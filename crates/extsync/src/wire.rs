//! The byte cursor under every ring-slot payload codec.
//!
//! A ring slot frames its payload and CRCs it ([`crate::ring`]); the
//! codecs that give the payload meaning — the KV and transaction
//! protocols in `treesls-apps`/`treesls-txn` and the replication frames in
//! `treesls-repl` — read it through one [`Reader`] and write it with the
//! `put_*` helpers here. Every field is little-endian. A decoder never
//! panics on structurally bad bytes: a read past the end is
//! [`WireError::Truncated`], and [`decode_exact`] rejects bytes left over
//! after a complete decode with [`WireError::Trailing`].
//!
//! Reads borrow from the frame ([`Reader::take`], [`Reader::array_ref`],
//! [`Reader::bytes`]), so a serving loop can decode a request in place
//! without allocating.

/// Structural decode failures (distinct from wire corruption, which the
/// ring slot CRC catches before decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before its structure did.
    Truncated,
    /// Unknown frame, record or operation tag.
    BadTag(u8),
    /// A field holds a value its format forbids (e.g. a length over its
    /// cap).
    Invalid,
    /// Bytes left over after a complete decode.
    Trailing,
}

/// A bounds-checked little-endian reader over a frame.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, off: 0 }
    }

    /// Borrows the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.off.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.off..end).ok_or(WireError::Truncated)?;
        self.off = end;
        Ok(s)
    }

    /// Borrows the next `N` bytes as a fixed-size array.
    pub fn array_ref<const N: usize>(&mut self) -> Result<&'a [u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Copies out the next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.array_ref().copied()
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Borrows a `u32`-length-prefixed byte string (the inverse of
    /// [`put_bytes`]).
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| WireError::Invalid)
    }

    /// Reads a `u32` count followed by that many items (the inverse of
    /// [`put_list`]).
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.u32()? as usize;
        // Every item takes at least one byte: a count beyond the bytes left
        // is truncation, so it must not size the allocation.
        let mut out = Vec::with_capacity(n.min(self.buf.len() - self.off));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// `Ok` when every byte of the frame has been read.
    #[inline]
    pub fn done(&self) -> Result<(), WireError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

/// Decodes all of `buf` with `read`: the frame must end exactly where
/// `read` stops.
pub fn decode_exact<'a, T>(
    buf: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = read(&mut r)?;
    r.done()?;
    Ok(v)
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte string.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Appends a `u32` count followed by each item.
pub fn put_list<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(buf, items.len() as u32);
    for item in items {
        put(buf, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_writers_wrote() {
        let mut b = vec![7];
        put_u16(&mut b, 0x0102);
        put_u32(&mut b, 0x0304_0506);
        put_u64(&mut b, u64::MAX - 1);
        put_bytes(&mut b, b"abc");
        put_list(&mut b, &[1u16, 2], |b, &v| put_u16(b, v));
        b.extend_from_slice(&[9; 4]);
        let got = decode_exact(&b, |r| {
            Ok((
                r.u8()?,
                r.u16()?,
                r.u32()?,
                r.u64()?,
                r.bytes()?.to_vec(),
                r.list(Reader::u16)?,
                *r.array_ref::<2>()?,
                r.array::<2>()?,
            ))
        });
        assert_eq!(
            got,
            Ok((7, 0x0102, 0x0304_0506, u64::MAX - 1, b"abc".to_vec(), vec![1, 2], [9; 2], [9; 2]))
        );
    }

    #[test]
    fn short_and_long_frames_are_errors() {
        assert_eq!(decode_exact(&[1], |r| r.u16()), Err(WireError::Truncated));
        assert_eq!(decode_exact(&[1, 2, 3], |r| r.u16()), Err(WireError::Trailing));
        // A length prefix claiming more than the frame holds.
        let mut b = Vec::new();
        put_u32(&mut b, u32::MAX);
        assert_eq!(decode_exact(&b, |r| r.bytes().map(<[u8]>::len)), Err(WireError::Truncated));
        assert_eq!(Reader::new(&[]).take(usize::MAX), Err(WireError::Truncated));
        // A list count beyond the bytes left must not size the allocation.
        assert_eq!(decode_exact(&b, |r| r.list(Reader::u8)), Err(WireError::Truncated));
    }
}
