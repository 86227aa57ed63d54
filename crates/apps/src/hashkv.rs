//! A fixed-capacity open-addressing hash table over abstract memory.
//!
//! The in-memory store behind the memcached-like and redis-like servers.
//! All table state lives in [`MemIo`] memory: running inside TreeSLS every
//! access goes through the soft-MMU (and is therefore checkpointed page by
//! page); running on a baseline backend the same code hits plain host
//! memory. This is exactly the paper's claim — "existing applications
//! designed for memory can also gain persistence support transparently
//! with SLS" — made literal.
//!
//! Layout at `base`:
//!
//! ```text
//! +0   magic      u64
//! +8   nbuckets   u64 (power of two)
//! +16  val_cap    u64 (max value bytes per bucket)
//! +24  count      u64 (live entries)
//! +32  buckets[nbuckets], each:
//!        +0  state  u8 (0 empty / 1 used / 2 tombstone)
//!        +1  pad    7 B
//!        +8  key    16 B
//!        +24 vlen   u32, pad 4 B
//!        +32 value  val_cap B (rounded up to 8)
//! ```
//!
//! Every access is one `MemIo` call per contiguous span, since inside
//! TreeSLS each call is a soft-MMU translation: [`HashKv::attach`] reads
//! the geometry in one call, a probe reads a bucket's `state..vlen` head
//! (32 B) in one call, and an insert stores `key ‖ vlen` in one.

use treesls_extsync::MemIo;
use treesls_kernel::types::KernelError;

use crate::wire::KEY_LEN;

const MAGIC: u64 = 0x4B56_5441_424C_4501; // "KVTABLE"

const HDR: u64 = 32;
const B_STATE: u64 = 0;
const B_KEY: u64 = 8;
const B_VLEN: u64 = 24;
const B_VALUE: u64 = 32;
/// Bytes of a bucket before its value: `state`, `key` and `vlen`.
const B_HEAD: usize = B_VALUE as usize;

const EMPTY: u8 = 0;
const USED: u8 = 1;
const TOMB: u8 = 2;

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// No free bucket left.
    Full,
    /// Value exceeds the per-bucket capacity.
    ValueTooLarge,
    /// The region does not contain a formatted table.
    BadMagic,
    /// Underlying memory error.
    Mem(KernelError),
}

impl From<KernelError> for KvError {
    fn from(e: KernelError) -> Self {
        KvError::Mem(e)
    }
}

/// A handle to a hash table living at `base` in some [`MemIo`] memory.
#[derive(Debug, Clone, Copy)]
pub struct HashKv {
    /// Base address of the table.
    pub base: u64,
    nbuckets: u64,
    val_cap: u64,
}

impl HashKv {
    /// Bytes needed for a table of `nbuckets` buckets (power of two) with
    /// `val_cap`-byte values.
    pub fn region_len(nbuckets: u64, val_cap: u64) -> u64 {
        HDR + nbuckets * Self::bucket_size(val_cap)
    }

    fn bucket_size(val_cap: u64) -> u64 {
        B_VALUE + val_cap.div_ceil(8) * 8
    }

    /// Formats a fresh table in *zeroed* memory.
    ///
    /// Only the header is written: a zero bucket-state byte means `EMPTY`,
    /// so freshly materialized (zero-filled) pages need no clearing pass.
    /// This keeps format O(1) — important inside TreeSLS, where a long
    /// program step would delay stop-the-world checkpoints. Use
    /// [`format_clearing`](Self::format_clearing) for recycled memory.
    ///
    /// # Panics
    ///
    /// Panics if `nbuckets` is not a power of two.
    pub fn format<M: MemIo>(io: &M, base: u64, nbuckets: u64, val_cap: u64) -> Result<Self, KvError> {
        assert!(nbuckets.is_power_of_two(), "nbuckets must be a power of two");
        io.mem_write_u64(base, MAGIC)?;
        io.mem_write_u64(base + 8, nbuckets)?;
        io.mem_write_u64(base + 16, val_cap)?;
        io.mem_write_u64(base + 24, 0)?;
        Ok(Self { base, nbuckets, val_cap })
    }

    /// Formats a table in possibly dirty memory, clearing every bucket
    /// state (O(nbuckets)).
    pub fn format_clearing<M: MemIo>(
        io: &M,
        base: u64,
        nbuckets: u64,
        val_cap: u64,
    ) -> Result<Self, KvError> {
        let t = Self::format(io, base, nbuckets, val_cap)?;
        for i in 0..nbuckets {
            io.mem_write(t.bucket(i) + B_STATE, &[EMPTY])?;
        }
        Ok(t)
    }

    /// Attaches to an existing table (e.g. after a restore): one 24 B
    /// read of `magic`, `nbuckets` and `val_cap`.
    pub fn attach<M: MemIo>(io: &M, base: u64) -> Result<Self, KvError> {
        let mut h = [0u8; 24];
        io.mem_read(base, &mut h)?;
        let word = |i: usize| u64::from_le_bytes(h[i * 8..i * 8 + 8].try_into().expect("8 B"));
        if word(0) != MAGIC {
            return Err(KvError::BadMagic);
        }
        Ok(Self { base, nbuckets: word(1), val_cap: word(2) })
    }

    /// Reads bucket `b`'s head (`state`, `key`, `vlen`) in one call.
    fn head<M: MemIo>(io: &M, b: u64) -> Result<BucketHead, KvError> {
        let mut h = [0u8; B_HEAD];
        io.mem_read(b, &mut h)?;
        Ok(BucketHead(h))
    }

    /// Stores `key ‖ vlen` (20 contiguous bytes) at bucket `b`.
    fn write_key_len<M: MemIo>(
        io: &M,
        b: u64,
        key: &[u8; KEY_LEN],
        vlen: usize,
    ) -> Result<(), KvError> {
        let mut kl = [0u8; KEY_LEN + 4];
        kl[..KEY_LEN].copy_from_slice(key);
        kl[KEY_LEN..].copy_from_slice(&(vlen as u32).to_le_bytes());
        io.mem_write(b + B_KEY, &kl)?;
        Ok(())
    }

    fn bucket(&self, i: u64) -> u64 {
        self.base + HDR + (i & (self.nbuckets - 1)) * Self::bucket_size(self.val_cap)
    }

    fn hash(key: &[u8; KEY_LEN]) -> u64 {
        // FNV-1a, good enough for bucket spreading.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Number of live entries.
    pub fn len<M: MemIo>(&self, io: &M) -> Result<u64, KvError> {
        Ok(io.mem_read_u64(self.base + 24)?)
    }

    /// Looks up `key`.
    pub fn get<M: MemIo>(&self, io: &M, key: &[u8; KEY_LEN]) -> Result<Option<Vec<u8>>, KvError> {
        let mut v = Vec::new();
        Ok(self.get_into(io, key, &mut v)?.map(|_| v))
    }

    /// Zero-copy lookup: appends the value bytes for `key` to `out` and
    /// returns their length, or `None` on a miss (leaving `out`
    /// untouched). The poll-mode KV service reads values straight into
    /// its reusable response buffer with this, so a `Get` allocates
    /// nothing once the buffer has grown to the largest value.
    pub fn get_into<M: MemIo>(
        &self,
        io: &M,
        key: &[u8; KEY_LEN],
        out: &mut Vec<u8>,
    ) -> Result<Option<usize>, KvError> {
        let mut i = Self::hash(key);
        for _ in 0..self.nbuckets {
            let b = self.bucket(i);
            let head = Self::head(io, b)?;
            match head.state() {
                EMPTY => return Ok(None),
                USED if head.key() == key => {
                    let len = (head.vlen() as u64).min(self.val_cap) as usize;
                    let start = out.len();
                    out.resize(start + len, 0);
                    io.mem_read(b + B_VALUE, &mut out[start..])?;
                    return Ok(Some(len));
                }
                _ => {}
            }
            i = i.wrapping_add(1);
        }
        Ok(None)
    }

    /// Inserts or updates `key`. Returns `true` if the key was new.
    pub fn set<M: MemIo>(
        &self,
        io: &M,
        key: &[u8; KEY_LEN],
        value: &[u8],
    ) -> Result<bool, KvError> {
        if value.len() as u64 > self.val_cap {
            return Err(KvError::ValueTooLarge);
        }
        let mut i = Self::hash(key);
        let mut insert_at: Option<u64> = None;
        for _ in 0..self.nbuckets {
            let b = self.bucket(i);
            let head = Self::head(io, b)?;
            match head.state() {
                EMPTY => {
                    let b = insert_at.unwrap_or(b);
                    Self::write_key_len(io, b, key, value.len())?;
                    io.mem_write(b + B_VALUE, value)?;
                    io.mem_write(b + B_STATE, &[USED])?;
                    let count = io.mem_read_u64(self.base + 24)?;
                    io.mem_write_u64(self.base + 24, count + 1)?;
                    return Ok(true);
                }
                TOMB => {
                    if insert_at.is_none() {
                        insert_at = Some(b);
                    }
                }
                _ => {
                    if head.key() == key {
                        io.mem_write(b + B_VLEN, &(value.len() as u32).to_le_bytes())?;
                        io.mem_write(b + B_VALUE, value)?;
                        return Ok(false);
                    }
                }
            }
            i = i.wrapping_add(1);
        }
        // No empty bucket found; reuse a tombstone if we saw one.
        if let Some(b) = insert_at {
            Self::write_key_len(io, b, key, value.len())?;
            io.mem_write(b + B_VALUE, value)?;
            io.mem_write(b + B_STATE, &[USED])?;
            let count = io.mem_read_u64(self.base + 24)?;
            io.mem_write_u64(self.base + 24, count + 1)?;
            return Ok(true);
        }
        Err(KvError::Full)
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn del<M: MemIo>(&self, io: &M, key: &[u8; KEY_LEN]) -> Result<bool, KvError> {
        let mut i = Self::hash(key);
        for _ in 0..self.nbuckets {
            let b = self.bucket(i);
            let head = Self::head(io, b)?;
            match head.state() {
                EMPTY => return Ok(false),
                USED if head.key() == key => {
                    io.mem_write(b + B_STATE, &[TOMB])?;
                    let count = io.mem_read_u64(self.base + 24)?;
                    io.mem_write_u64(self.base + 24, count.saturating_sub(1))?;
                    return Ok(true);
                }
                _ => {}
            }
            i = i.wrapping_add(1);
        }
        Ok(false)
    }
}

/// A bucket's first 32 bytes, as [`HashKv::head`] read them.
struct BucketHead([u8; B_HEAD]);

impl BucketHead {
    fn state(&self) -> u8 {
        self.0[B_STATE as usize]
    }

    fn key(&self) -> &[u8; KEY_LEN] {
        self.0[B_KEY as usize..B_VLEN as usize].try_into().expect("16 B key")
    }

    fn vlen(&self) -> u32 {
        u32::from_le_bytes(self.0[B_VLEN as usize..B_VLEN as usize + 4].try_into().expect("4 B"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_extsync::{Counted, HeapMem};
    use crate::wire::make_key;

    fn table() -> (HeapMem, HashKv) {
        let len = HashKv::region_len(256, 64);
        let m = HeapMem::new(len as usize);
        let t = HashKv::format(&m, 0, 256, 64).unwrap();
        (m, t)
    }

    #[test]
    fn set_get_del_roundtrip() {
        let (m, t) = table();
        let k = make_key(b"hello");
        assert_eq!(t.get(&m, &k).unwrap(), None);
        assert!(t.set(&m, &k, b"world").unwrap());
        assert_eq!(t.get(&m, &k).unwrap(), Some(b"world".to_vec()));
        assert!(!t.set(&m, &k, b"again").unwrap());
        assert_eq!(t.get(&m, &k).unwrap(), Some(b"again".to_vec()));
        assert_eq!(t.len(&m).unwrap(), 1);
        assert!(t.del(&m, &k).unwrap());
        assert!(!t.del(&m, &k).unwrap());
        assert_eq!(t.get(&m, &k).unwrap(), None);
        assert_eq!(t.len(&m).unwrap(), 0);
    }

    #[test]
    fn many_keys_no_collateral() {
        let (m, t) = table();
        for i in 0..200u64 {
            let k = make_key(format!("key-{i}").as_bytes());
            t.set(&m, &k, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.len(&m).unwrap(), 200);
        for i in 0..200u64 {
            let k = make_key(format!("key-{i}").as_bytes());
            assert_eq!(t.get(&m, &k).unwrap(), Some(i.to_le_bytes().to_vec()), "key-{i}");
        }
        // Delete evens, verify odds intact.
        for i in (0..200u64).step_by(2) {
            let k = make_key(format!("key-{i}").as_bytes());
            assert!(t.del(&m, &k).unwrap());
        }
        for i in 0..200u64 {
            let k = make_key(format!("key-{i}").as_bytes());
            let got = t.get(&m, &k).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None);
            } else {
                assert!(got.is_some());
            }
        }
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let len = HashKv::region_len(16, 8);
        let m = HeapMem::new(len as usize);
        let t = HashKv::format(&m, 0, 16, 8).unwrap();
        for i in 0..16u64 {
            t.set(&m, &make_key(&i.to_le_bytes()), b"x").unwrap();
        }
        assert_eq!(t.set(&m, &make_key(b"onemore"), b"x"), Err(KvError::Full));
        // Updating an existing key still works when full.
        t.set(&m, &make_key(&3u64.to_le_bytes()), b"y").unwrap();
        // Deleting frees a slot (tombstone reuse).
        t.del(&m, &make_key(&5u64.to_le_bytes())).unwrap();
        t.set(&m, &make_key(b"onemore"), b"x").unwrap();
    }

    #[test]
    fn oversized_value_rejected() {
        let (m, t) = table();
        assert_eq!(t.set(&m, &make_key(b"k"), &[0; 65]), Err(KvError::ValueTooLarge));
    }

    #[test]
    fn get_hit_without_collision_is_attach_bucket_value() {
        let (m, t) = table();
        let k = make_key(b"hit");
        t.set(&m, &k, b"value").unwrap();
        let m = Counted::new(m);
        // `KvService`'s GET: attach, then one probe and the value.
        let t = HashKv::attach(&m, t.base).unwrap();
        let mut out = Vec::new();
        assert_eq!(t.get_into(&m, &k, &mut out).unwrap(), Some(5));
        assert_eq!(out, b"value");
        assert_eq!((m.reads(), m.writes()), (3, 0));
    }

    #[test]
    fn set_stores_key_and_length_in_one_call() {
        let (m, t) = table();
        let m = Counted::new(m);
        let k = make_key(b"new");
        assert!(t.set(&m, &k, b"v1").unwrap());
        // Probe + count read; key ‖ vlen, value, state, count.
        assert_eq!((m.reads(), m.writes()), (2, 4));
        m.reset();
        assert!(!t.set(&m, &k, b"v2").unwrap());
        // Probe; vlen, value.
        assert_eq!((m.reads(), m.writes()), (1, 2));
        assert_eq!(t.get(&m, &k).unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn attach_rereads_geometry() {
        let (m, t) = table();
        t.set(&m, &make_key(b"persist"), b"me").unwrap();
        let t2 = HashKv::attach(&m, 0).unwrap();
        assert_eq!(t2.get(&m, &make_key(b"persist")).unwrap(), Some(b"me".to_vec()));
        assert_eq!(HashKv::attach(&m, 8).err(), Some(KvError::BadMagic));
    }
}
