//! CRC-32 (IEEE 802.3) — the integrity tag used by every persistent
//! structure that must detect torn or bit-rotted data: checkpoint commit
//! records, backup page images, allocator-journal records and ext-sync
//! ring slots.
//!
//! Implemented in-crate (reflected polynomial `0xEDB88320`) so the
//! workspace stays free of external dependencies. Two kernels compute the
//! same function:
//!
//! * **slicing-by-16** (portable): sixteen 256-entry tables consume 16
//!   input bytes per step. Runs on every target, finishes the sub-16-byte
//!   tail of the folded path, and is the differential oracle's second
//!   witness next to the bytewise reference in the tests.
//! * **carry-less folding** (`x86_64` with `pclmulqdq` + `sse4.1`, detected
//!   at run time): four 128-bit lanes are folded 64 bytes at a time with
//!   `pclmulqdq`, reduced to 128 → 64 → 32 bits by Barrett reduction
//!   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", Intel 2009; constants in the reflected
//!   domain).
//!
//! A page's tag is computed after every CoW duplicate, stop-and-copy and
//! restore validation, so the kernel's cost sits directly on the fault and
//! checkpoint paths: a 4 KiB page takes ≈12 µs bytewise, ≈2 µs sliced and
//! ≈0.2 µs folded on the development host.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables, built at compile time: `TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes (`TABLES[0]` is the classic
/// bytewise table).
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data` (standard init `!0`, final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 computation: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    !update_state(!crc, data)
}

/// Advances the raw (un-inverted) CRC state over `data` with the fastest
/// kernel the host offers.
fn update_state(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN
        && std::is_x86_feature_detected!("pclmulqdq")
        && std::is_x86_feature_detected!("sse4.1")
    {
        let (body, tail) = data.split_at(data.len() & !15);
        // SAFETY: both CPU features `fold` is compiled for were detected
        // on this host just above.
        let state = unsafe { clmul::fold(state, body) };
        return sliced(state, tail);
    }
    sliced(state, data)
}

/// Slicing-by-16 over the raw CRC state.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // Byte `i` of the block is followed by `15 - i` more bytes of it,
        // hence table `15 - i`; the running state folds into bytes 0..4.
        let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let lanes = [word(0) ^ c, word(4), word(8), word(12)];
        c = 0;
        for (l, lane) in lanes.iter().enumerate() {
            let bytes = lane.to_le_bytes();
            for j in 0..4 {
                c ^= t[15 - (4 * l + j)][bytes[j] as usize];
            }
        }
    }
    for &byte in blocks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ byte as u32) & 0xFF) as usize];
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input `fold` accepts: one full 4 × 128-bit block.
    pub const MIN_LEN: usize = 64;

    // Reflected-domain folding constants for the IEEE polynomial:
    // x^(512±32), x^(128±32), x^64 mod P, then P and its Barrett µ.
    const K1K2: [u64; 2] = [0x0001_5444_2bd4, 0x0001_c6e4_1596];
    const K3K4: [u64; 2] = [0x0001_7519_97d0, 0x0000_ccaa_009e];
    const K5: [u64; 2] = [0x0001_63cd_6124, 0];
    const POLY_MU: [u64; 2] = [0x0001_db71_0641, 0x0001_f701_1641];

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn consts(k: &[u64; 2]) -> __m128i {
        _mm_set_epi64x(k[1] as i64, k[0] as i64)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(block: &[u8]) -> __m128i {
        debug_assert!(block.len() >= 16);
        // SAFETY: the slice holds at least 16 readable bytes; `loadu` has
        // no alignment requirement.
        _mm_loadu_si128(block.as_ptr().cast())
    }

    /// Folds `x` forward by the distance `k` encodes and absorbs `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn fold_step(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw CRC `state` over `data`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 16 and at least
    /// [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN && data.len() & 15 == 0, "fold needs ≥ 64 B in 16 B units");
        let (head, mut rest) = data.split_at(64);
        let mut x0 = _mm_xor_si128(load(head), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&head[16..]);
        let mut x2 = load(&head[32..]);
        let mut x3 = load(&head[48..]);

        // Four independent lanes, 64 bytes per iteration.
        let k = consts(&K1K2);
        while rest.len() >= 64 {
            x0 = fold_step(x0, k, load(rest));
            x1 = fold_step(x1, k, load(&rest[16..]));
            x2 = fold_step(x2, k, load(&rest[32..]));
            x3 = fold_step(x3, k, load(&rest[48..]));
            rest = &rest[64..];
        }

        // Collapse the lanes, then absorb the remaining 16-byte blocks.
        let k = consts(&K3K4);
        let mut x = fold_step(x0, k, x1);
        x = fold_step(x, k, x2);
        x = fold_step(x, k, x3);
        while rest.len() >= 16 {
            x = fold_step(x, k, load(rest));
            rest = &rest[16..];
        }

        // 128 → 64 bits.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let t = _mm_clmulepi64_si128::<0x10>(x, k);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), t);
        let t = _mm_srli_si128::<4>(x);
        x = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), consts(&K5));
        x = _mm_xor_si128(x, t);

        // Barrett reduction 64 → 32 bits.
        let pm = consts(&POLY_MU);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pm);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), pm);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference every kernel must agree with.
    fn bytewise(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c = (c >> 8) ^ TABLES[0][((c ^ b as u32) & 0xFF) as usize];
        }
        !c
    }

    /// Deterministic non-repeating filler (xorshift), so a kernel that
    /// mixes up lanes or block order cannot pass by symmetry.
    fn filler(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // 32 zero bytes / 32 0xFF bytes (RFC 3720 B.4 patterns, IEEE poly).
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn update_is_concatenation() {
        let whole = crc32(b"treesls-nvm");
        let split = crc32_update(crc32(b"treesls"), b"-nvm");
        assert_eq!(whole, split);
    }

    #[test]
    fn every_length_and_alignment_matches_the_bytewise_reference() {
        let buf = filler(4224 + 16);
        for align in 0..16 {
            // The reference runs incrementally (one table step per added
            // byte) so the sweep stays O(n²) only in the kernels under test.
            let mut reference = !0u32;
            for len in 0..=4224 {
                let data = &buf[align..align + len];
                let want = !reference;
                assert_eq!(crc32(data), want, "dispatched kernel, len {len} align {align}");
                assert_eq!(!sliced(!0, data), want, "portable kernel, len {len} align {align}");
                reference = !bytewise(!reference, &buf[align + len..align + len + 1]);
            }
        }
    }

    #[test]
    fn update_split_at_every_position() {
        let buf = filler(300);
        let whole = bytewise(0, &buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "dispatched, cut {cut}");
            assert_eq!(!sliced(sliced(!0, a), b), whole, "portable, cut {cut}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folded_kernel_matches_from_any_starting_state() {
        if !(std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")) {
            return; // host without the instructions: the dispatcher never picks it
        }
        let buf = filler(4096);
        for state in [0u32, !0, 0xDEAD_BEEF, 1] {
            for len in (64..=4096).step_by(16) {
                // SAFETY: features detected above.
                let got = unsafe { clmul::fold(state, &buf[..len]) };
                assert_eq!(got, sliced(state, &buf[..len]), "state {state:#x} len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = vec![0xA5u8; 256];
        let c0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32(&mutated), c0, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
