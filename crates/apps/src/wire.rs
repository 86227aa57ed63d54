//! Wire format for key-value requests and responses.
//!
//! A tiny binary protocol shared by all KV servers (memcached-like,
//! redis-like, LSM) and the host-side clients, so the same request stream
//! can be replayed against TreeSLS servers and baseline backends. Frames
//! are read through the shared [`treesls_extsync::wire::Reader`] and
//! written with its `put_*` helpers; their bytes are pinned in
//! `tests/wire_golden.rs`.

use treesls_extsync::wire::{decode_exact, put_bytes, WireError};

/// Fixed key width on the wire (shorter keys are zero-padded).
pub const KEY_LEN: usize = 16;

/// A key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Look up a key.
    Get {
        /// The key.
        key: [u8; KEY_LEN],
    },
    /// Insert or update a key.
    Set {
        /// The key.
        key: [u8; KEY_LEN],
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Remove a key.
    Del {
        /// The key.
        key: [u8; KEY_LEN],
    },
}

const OP_GET: u8 = 1;
const OP_SET: u8 = 2;
const OP_DEL: u8 = 3;

/// A response to a [`KvOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResp {
    /// Operation succeeded; `Get` carries the value.
    Ok(Option<Vec<u8>>),
    /// Key not found (`Get`/`Del`).
    Miss,
    /// The store rejected the operation (e.g. full).
    Error,
}

const ST_OK: u8 = 0;
const ST_OK_VALUE: u8 = 1;
const ST_MISS: u8 = 2;
const ST_ERROR: u8 = 3;

/// Borrowed view of a [`KvOp`], decoded zero-copy from a request buffer.
///
/// This is the hot-path form the poll-mode services use: the key and the
/// value are `&[u8]` slices into the ring's scratch buffer, validated in
/// place — no per-request allocation. [`KvOp`] remains the owned form for
/// clients and IPC paths that outlive the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpRef<'a> {
    /// Look up a key.
    Get {
        /// The key (always `KEY_LEN` bytes).
        key: &'a [u8; KEY_LEN],
    },
    /// Insert or update a key.
    Set {
        /// The key (always `KEY_LEN` bytes).
        key: &'a [u8; KEY_LEN],
        /// The value bytes, borrowed from the request buffer.
        value: &'a [u8],
    },
    /// Remove a key.
    Del {
        /// The key (always `KEY_LEN` bytes).
        key: &'a [u8; KEY_LEN],
    },
}

impl<'a> KvOpRef<'a> {
    /// Parses an operation without copying; `None` on malformed input.
    /// Accepts exactly the bytes [`KvOp::encode`] produces: truncated
    /// frames, unknown opcodes and trailing bytes are all rejected.
    pub fn decode(data: &'a [u8]) -> Option<KvOpRef<'a>> {
        decode_exact(data, |r| {
            let op = r.u8()?;
            let key = r.array_ref()?;
            Ok(match op {
                OP_GET => KvOpRef::Get { key },
                OP_SET => KvOpRef::Set { key, value: r.bytes()? },
                OP_DEL => KvOpRef::Del { key },
                t => return Err(WireError::BadTag(t)),
            })
        })
        .ok()
    }

    /// Returns `true` for operations that mutate the store.
    pub fn is_write(&self) -> bool {
        !matches!(self, KvOpRef::Get { .. })
    }

    /// Converts to the owned form (copies the key/value).
    pub fn to_owned(&self) -> KvOp {
        match *self {
            KvOpRef::Get { key } => KvOp::Get { key: *key },
            KvOpRef::Set { key, value } => KvOp::Set { key: *key, value: value.to_vec() },
            KvOpRef::Del { key } => KvOp::Del { key: *key },
        }
    }
}

/// Zero-copy response encoding: status/value frames are appended to a
/// reusable output buffer instead of allocating a `Vec` per response.
/// [`KvResp::encode`] is built from these writers.
pub mod resp {
    use treesls_extsync::wire::{put_bytes, put_u32};

    use super::{ST_ERROR, ST_MISS, ST_OK, ST_OK_VALUE};

    /// Appends an `Ok` (no value) response.
    pub fn ok_into(out: &mut Vec<u8>) {
        out.push(ST_OK);
    }

    /// Appends a `Miss` response.
    pub fn miss_into(out: &mut Vec<u8>) {
        out.push(ST_MISS);
    }

    /// Appends an `Error` response.
    pub fn error_into(out: &mut Vec<u8>) {
        out.push(ST_ERROR);
    }

    /// Begins an `Ok(value)` response, reserving the length field.
    /// Append the value bytes to `out`, then call [`finish_value`] with
    /// the returned mark.
    pub fn begin_value(out: &mut Vec<u8>) -> usize {
        out.push(ST_OK_VALUE);
        put_u32(out, 0);
        out.len()
    }

    /// Patches the length field of a response started with
    /// [`begin_value`]: everything appended after `mark` is the value.
    pub fn finish_value(out: &mut [u8], mark: usize) {
        let len = (out.len() - mark) as u32;
        out[mark - 4..mark].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends a complete `Ok(value)` response.
    pub fn value_into(out: &mut Vec<u8>, value: &[u8]) {
        out.push(ST_OK_VALUE);
        put_bytes(out, value);
    }
}

/// Pads/truncates an arbitrary byte key to the wire width.
pub fn make_key(raw: &[u8]) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    let n = raw.len().min(KEY_LEN);
    k[..n].copy_from_slice(&raw[..n]);
    k
}

/// Builds the wire key for a numeric id (YCSB-style `user########`).
pub fn numeric_key(id: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..4].copy_from_slice(b"user");
    k[4..12].copy_from_slice(&id.to_le_bytes());
    k
}

impl KvOp {
    /// Serializes the operation.
    pub fn encode(&self) -> Vec<u8> {
        let (op, key, value) = match self {
            KvOp::Get { key } => (OP_GET, key, None),
            KvOp::Set { key, value } => (OP_SET, key, Some(value)),
            KvOp::Del { key } => (OP_DEL, key, None),
        };
        let mut b = Vec::with_capacity(1 + KEY_LEN + value.map_or(0, |v| 4 + v.len()));
        b.push(op);
        b.extend_from_slice(key);
        if let Some(v) = value {
            put_bytes(&mut b, v);
        }
        b
    }

    /// Parses an operation; `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<KvOp> {
        KvOpRef::decode(data).map(|r| r.to_owned())
    }

    /// Returns `true` for operations that mutate the store.
    pub fn is_write(&self) -> bool {
        !matches!(self, KvOp::Get { .. })
    }
}

impl KvResp {
    /// Serializes the response (the [`resp`] writers' bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            KvResp::Ok(None) => resp::ok_into(&mut b),
            KvResp::Ok(Some(v)) => resp::value_into(&mut b, v),
            KvResp::Miss => resp::miss_into(&mut b),
            KvResp::Error => resp::error_into(&mut b),
        }
        b
    }

    /// Parses a response; `None` on malformed input (truncation, an
    /// unknown status or trailing bytes).
    pub fn decode(data: &[u8]) -> Option<KvResp> {
        decode_exact(data, |r| {
            Ok(match r.u8()? {
                ST_OK => KvResp::Ok(None),
                ST_OK_VALUE => KvResp::Ok(Some(r.bytes()?.to_vec())),
                ST_MISS => KvResp::Miss,
                ST_ERROR => KvResp::Error,
                t => return Err(WireError::BadTag(t)),
            })
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_roundtrips() {
        let ops = [
            KvOp::Get { key: make_key(b"alpha") },
            KvOp::Set { key: make_key(b"beta"), value: vec![1, 2, 3] },
            KvOp::Set { key: numeric_key(42), value: vec![] },
            KvOp::Del { key: make_key(b"gamma") },
        ];
        for op in ops {
            assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }
    }

    #[test]
    fn resp_roundtrips() {
        for r in [
            KvResp::Ok(None),
            KvResp::Ok(Some(b"value".to_vec())),
            KvResp::Miss,
            KvResp::Error,
        ] {
            assert_eq!(KvResp::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert_eq!(KvOp::decode(&[]), None);
        assert_eq!(KvOp::decode(&[OP_GET, 1, 2]), None);
        assert_eq!(KvOp::decode(&[99; 20]), None);
        let mut truncated = KvOp::Set { key: make_key(b"k"), value: vec![0; 10] }.encode();
        truncated.truncate(truncated.len() - 1);
        assert_eq!(KvOp::decode(&truncated), None);
        assert_eq!(KvResp::decode(&[]), None);
        assert_eq!(KvResp::decode(&[ST_OK_VALUE, 5, 0, 0, 0]), None);
    }

    #[test]
    fn borrowed_decode_matches_owned() {
        let ops = [
            KvOp::Get { key: make_key(b"alpha") },
            KvOp::Set { key: make_key(b"beta"), value: vec![1, 2, 3] },
            KvOp::Set { key: numeric_key(42), value: vec![] },
            KvOp::Del { key: make_key(b"gamma") },
        ];
        for op in ops {
            let bytes = op.encode();
            let view = KvOpRef::decode(&bytes).unwrap();
            assert_eq!(view.to_owned(), op);
            assert_eq!(view.is_write(), op.is_write());
        }
        // Same rejection surface as the owned decoder.
        assert_eq!(KvOpRef::decode(&[]), None);
        assert_eq!(KvOpRef::decode(&[OP_GET, 1, 2]), None);
        assert_eq!(KvOpRef::decode(&[99; 20]), None);
    }

    #[test]
    fn resp_into_matches_encode() {
        let mut out = Vec::new();
        resp::ok_into(&mut out);
        assert_eq!(out, KvResp::Ok(None).encode());
        out.clear();
        resp::miss_into(&mut out);
        assert_eq!(out, KvResp::Miss.encode());
        out.clear();
        resp::error_into(&mut out);
        assert_eq!(out, KvResp::Error.encode());
        out.clear();
        resp::value_into(&mut out, b"value");
        assert_eq!(out, KvResp::Ok(Some(b"value".to_vec())).encode());
        // Streaming form: bytes appended between begin/finish become the
        // length-framed value.
        out.clear();
        let mark = resp::begin_value(&mut out);
        out.extend_from_slice(b"val");
        out.extend_from_slice(b"ue");
        resp::finish_value(&mut out, mark);
        assert_eq!(KvResp::decode(&out), Some(KvResp::Ok(Some(b"value".to_vec()))));
    }

    #[test]
    fn write_classification() {
        assert!(!KvOp::Get { key: make_key(b"k") }.is_write());
        assert!(KvOp::Set { key: make_key(b"k"), value: vec![] }.is_write());
        assert!(KvOp::Del { key: make_key(b"k") }.is_write());
    }
}
