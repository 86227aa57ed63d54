//! Wire protocol for the transaction verbs.
//!
//! Extends the KV wire surface (opcodes 1–3 in `treesls-apps`) with a
//! disjoint opcode range for multi-key transactions. Frames are
//! little-endian and length-prefixed only by the ring slot, so decoders
//! must reject every truncated, oversized or overlong frame without
//! panicking: both directions read through the shared
//! [`treesls_extsync::wire::Reader`] and end in its `done()` check.
//! Property-tested in `treesls-apps/tests/wire_prop.rs`; the bytes are
//! pinned in `treesls-apps/tests/wire_golden.rs`.
//!
//! Transaction ids are **client-chosen**: a tenant picks ids it knows are
//! unique (e.g. `tenant << 48 | counter`), which lets a driver pair a
//! `BeginRead` with a later `WriteCommit` without waiting for the first
//! response, and makes retries after a crash explicit (the server lost
//! every working set; a resent id simply begins a fresh transaction).

use treesls_extsync::wire::{decode_exact, put_u16, put_u64, Reader, WireError};

use crate::engine::TxnError;
use crate::store::{Record, KEY_LEN, VAL_CAP};

/// Begin a transaction. Payload: `txn_id`, flags.
pub const OP_TXN_BEGIN: u8 = 8;
/// Read one key inside (or outside, id 0) a transaction.
pub const OP_TXN_READ: u8 = 9;
/// Buffer one upsert/delete into a transaction's working set.
pub const OP_TXN_WRITE: u8 = 10;
/// Range-scan the primary space or one index tag.
pub const OP_TXN_SCAN: u8 = 11;
/// Validate and publish a transaction.
pub const OP_TXN_COMMIT: u8 = 12;
/// Drop a transaction's working set.
pub const OP_TXN_ABORT: u8 = 13;
/// Begin + read in one frame (the paired-RMW fast path).
pub const OP_TXN_BEGIN_READ: u8 = 14;
/// Write + commit in one frame (the paired-RMW fast path).
pub const OP_TXN_WRITE_COMMIT: u8 = 15;

// The KV protocol owns opcodes 1..=3; the txn verbs start above it, and
// status codes sit above every opcode.
const _: () = assert!(OP_TXN_BEGIN > 3);
const _: () = assert!(ST_TXN_OK > OP_TXN_WRITE_COMMIT);

/// Generic success (payload: `u64` sequence — snapshot for begin, commit
/// sequence for commit).
pub const ST_TXN_OK: u8 = 16;
/// A value follows (`vlen u16` + bytes).
pub const ST_TXN_VALUE: u8 = 17;
/// Key absent.
pub const ST_TXN_MISS: u8 = 18;
/// Commit validation failed: first committer won, the transaction rolled
/// back.
pub const ST_TXN_CONFLICT: u8 = 19;
/// Scan results follow (`count u16`, then per record: major 16 + minor
/// 16 + `vlen u16` + bytes).
pub const ST_TXN_SCAN: u8 = 20;
/// The transaction id has no live working set (crashed server or typo) —
/// the client should restart the transaction.
pub const ST_TXN_UNKNOWN: u8 = 21;
/// Malformed frame, working-set limit, or store full.
pub const ST_TXN_ERROR: u8 = 22;

/// Begin-flag bit: this begin retries a transaction that previously
/// aborted with a conflict (drives the `txn_conflict_retries` counter).
pub const FLAG_RETRY: u8 = 1;

/// One decoded transaction request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Start a transaction with a client-chosen id.
    Begin {
        /// Client-chosen transaction id (0 is reserved for auto-commit).
        txn: u64,
        /// [`FLAG_RETRY`] when retrying after a conflict.
        flags: u8,
    },
    /// Read `key`; `txn == 0` reads the stable snapshot directly.
    Read {
        /// Transaction id (0 = auto-commit read).
        txn: u64,
        /// Primary key.
        key: [u8; KEY_LEN],
    },
    /// Upsert (`val = Some`) or delete (`val = None`); `txn == 0`
    /// commits the single write immediately.
    Write {
        /// Transaction id (0 = auto-commit single-key transaction).
        txn: u64,
        /// Primary key.
        key: [u8; KEY_LEN],
        /// Secondary-index tag (zeros = unindexed).
        tag: [u8; KEY_LEN],
        /// Value, or `None` to delete.
        val: Option<Vec<u8>>,
    },
    /// Range scan: primary keys in `[lo, hi)` (`space` 0) or the members
    /// of index tags `[lo, hi]` (`space` 1).
    Scan {
        /// Transaction id (0 = stable-snapshot scan).
        txn: u64,
        /// 0 = primary order, 1 = secondary (index) order.
        space: u8,
        /// Lower bound (primary key, or index tag).
        lo: [u8; KEY_LEN],
        /// Upper bound.
        hi: [u8; KEY_LEN],
        /// Maximum records returned.
        limit: u16,
    },
    /// Validate + publish.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Drop the working set.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Begin, then read, in one round trip.
    BeginRead {
        /// Client-chosen transaction id.
        txn: u64,
        /// [`FLAG_RETRY`] when retrying after a conflict.
        flags: u8,
        /// Primary key to read under the fresh snapshot.
        key: [u8; KEY_LEN],
    },
    /// Write, then commit, in one round trip.
    WriteCommit {
        /// Transaction id.
        txn: u64,
        /// Primary key.
        key: [u8; KEY_LEN],
        /// Secondary-index tag.
        tag: [u8; KEY_LEN],
        /// Value, or `None` to delete.
        val: Option<Vec<u8>>,
    },
}

/// Sentinel `vlen` encoding a delete in write frames.
const VLEN_DELETE: u16 = 0xffff;

/// Reads `len` value bytes, rejecting a length beyond [`VAL_CAP`].
fn read_val(r: &mut Reader<'_>, len: u16) -> Result<Vec<u8>, WireError> {
    if len as usize > VAL_CAP {
        return Err(WireError::Invalid);
    }
    Ok(r.take(len as usize)?.to_vec())
}

impl TxnOp {
    /// Encodes the request frame: opcode, transaction id, then the
    /// operation's own fields.
    pub fn encode(&self) -> Vec<u8> {
        let (op, txn) = match *self {
            TxnOp::Begin { txn, .. } => (OP_TXN_BEGIN, txn),
            TxnOp::Read { txn, .. } => (OP_TXN_READ, txn),
            TxnOp::Write { txn, .. } => (OP_TXN_WRITE, txn),
            TxnOp::Scan { txn, .. } => (OP_TXN_SCAN, txn),
            TxnOp::Commit { txn } => (OP_TXN_COMMIT, txn),
            TxnOp::Abort { txn } => (OP_TXN_ABORT, txn),
            TxnOp::BeginRead { txn, .. } => (OP_TXN_BEGIN_READ, txn),
            TxnOp::WriteCommit { txn, .. } => (OP_TXN_WRITE_COMMIT, txn),
        };
        let mut out = Vec::with_capacity(64);
        out.push(op);
        put_u64(&mut out, txn);
        match self {
            TxnOp::Begin { flags, .. } => out.push(*flags),
            TxnOp::Read { key, .. } => out.extend_from_slice(key),
            TxnOp::Write { key, tag, val, .. } | TxnOp::WriteCommit { key, tag, val, .. } => {
                out.extend_from_slice(key);
                out.extend_from_slice(tag);
                match val {
                    Some(v) => {
                        put_u16(&mut out, v.len() as u16);
                        out.extend_from_slice(v);
                    }
                    None => put_u16(&mut out, VLEN_DELETE),
                }
            }
            TxnOp::Scan { space, lo, hi, limit, .. } => {
                out.push(*space);
                out.extend_from_slice(lo);
                out.extend_from_slice(hi);
                put_u16(&mut out, *limit);
            }
            TxnOp::Commit { .. } | TxnOp::Abort { .. } => {}
            TxnOp::BeginRead { flags, key, .. } => {
                out.push(*flags);
                out.extend_from_slice(key);
            }
        }
        out
    }

    /// Decodes a request frame; `None` on any malformed input (wrong
    /// opcode, truncation, oversized value, trailing garbage).
    pub fn decode(buf: &[u8]) -> Option<TxnOp> {
        decode_exact(buf, |r| {
            let op = r.u8()?;
            let txn = r.u64()?;
            Ok(match op {
                OP_TXN_BEGIN => TxnOp::Begin { txn, flags: r.u8()? },
                OP_TXN_READ => TxnOp::Read { txn, key: r.array()? },
                OP_TXN_WRITE | OP_TXN_WRITE_COMMIT => {
                    let (key, tag) = (r.array()?, r.array()?);
                    let val = match r.u16()? {
                        VLEN_DELETE => None,
                        len => Some(read_val(r, len)?),
                    };
                    if op == OP_TXN_WRITE {
                        TxnOp::Write { txn, key, tag, val }
                    } else {
                        TxnOp::WriteCommit { txn, key, tag, val }
                    }
                }
                OP_TXN_SCAN => {
                    let space = r.u8()?;
                    if space > 1 {
                        return Err(WireError::Invalid);
                    }
                    TxnOp::Scan { txn, space, lo: r.array()?, hi: r.array()?, limit: r.u16()? }
                }
                OP_TXN_COMMIT => TxnOp::Commit { txn },
                OP_TXN_ABORT => TxnOp::Abort { txn },
                OP_TXN_BEGIN_READ => TxnOp::BeginRead { txn, flags: r.u8()?, key: r.array()? },
                t => return Err(WireError::BadTag(t)),
            })
        })
        .ok()
    }
}

/// One scan result row on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRow {
    /// Major key part (primary key, or index tag).
    pub major: [u8; KEY_LEN],
    /// Minor key part (zeros for primary rows; the member key for index
    /// rows).
    pub minor: [u8; KEY_LEN],
    /// Value bytes.
    pub val: Vec<u8>,
}

impl ScanRow {
    /// Builds a wire row from a store record.
    pub fn from_record(r: &Record) -> ScanRow {
        let mut major = [0u8; KEY_LEN];
        let mut minor = [0u8; KEY_LEN];
        major.copy_from_slice(&r.ckey[1..1 + KEY_LEN]);
        minor.copy_from_slice(&r.ckey[1 + KEY_LEN..1 + 2 * KEY_LEN]);
        ScanRow { major, minor, val: r.val.clone() }
    }
}

/// One decoded transaction response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnResp {
    /// Success; `seq` is the snapshot (begin) or commit sequence.
    Ok {
        /// Sequence number (snapshot or commit).
        seq: u64,
    },
    /// Read hit.
    Value {
        /// The value bytes.
        val: Vec<u8>,
    },
    /// Read miss.
    Miss,
    /// Commit aborted: first committer won.
    Conflict,
    /// Scan results.
    Scan {
        /// The returned rows, in key order.
        rows: Vec<ScanRow>,
    },
    /// No live working set under that id.
    UnknownTxn,
    /// Malformed frame / limit / store full.
    Error,
}

impl TxnResp {
    /// Encodes the response into `out` (appends; caller clears).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TxnResp::Ok { seq } => {
                out.push(ST_TXN_OK);
                put_u64(out, *seq);
            }
            TxnResp::Value { val } => {
                out.push(ST_TXN_VALUE);
                put_u16(out, val.len() as u16);
                out.extend_from_slice(val);
            }
            TxnResp::Miss => out.push(ST_TXN_MISS),
            TxnResp::Conflict => out.push(ST_TXN_CONFLICT),
            TxnResp::Scan { rows } => {
                out.push(ST_TXN_SCAN);
                put_u16(out, rows.len() as u16);
                for r in rows {
                    out.extend_from_slice(&r.major);
                    out.extend_from_slice(&r.minor);
                    put_u16(out, r.val.len() as u16);
                    out.extend_from_slice(&r.val);
                }
            }
            TxnResp::UnknownTxn => out.push(ST_TXN_UNKNOWN),
            TxnResp::Error => out.push(ST_TXN_ERROR),
        }
    }

    /// Encodes the response as an owned frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a response frame; `None` on malformed input (unknown
    /// status, truncation, oversized value, trailing garbage).
    pub fn decode(buf: &[u8]) -> Option<TxnResp> {
        decode_exact(buf, |r| {
            Ok(match r.u8()? {
                ST_TXN_OK => TxnResp::Ok { seq: r.u64()? },
                ST_TXN_VALUE => {
                    let len = r.u16()?;
                    TxnResp::Value { val: read_val(r, len)? }
                }
                ST_TXN_MISS => TxnResp::Miss,
                ST_TXN_CONFLICT => TxnResp::Conflict,
                ST_TXN_SCAN => {
                    let count = r.u16()?;
                    let mut rows = Vec::with_capacity(count.min(256) as usize);
                    for _ in 0..count {
                        let (major, minor, len) = (r.array()?, r.array()?, r.u16()?);
                        rows.push(ScanRow { major, minor, val: read_val(r, len)? });
                    }
                    TxnResp::Scan { rows }
                }
                ST_TXN_UNKNOWN => TxnResp::UnknownTxn,
                ST_TXN_ERROR => TxnResp::Error,
                t => return Err(WireError::BadTag(t)),
            })
        })
        .ok()
    }
}

/// Maps an engine error to its wire status.
pub fn error_resp(e: TxnError) -> TxnResp {
    match e {
        TxnError::Conflict => TxnResp::Conflict,
        TxnError::UnknownTxn => TxnResp::UnknownTxn,
        TxnError::Full | TxnError::Limit | TxnError::Io => TxnResp::Error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u8) -> [u8; KEY_LEN] {
        [b; KEY_LEN]
    }

    #[test]
    fn ops_roundtrip() {
        let ops = vec![
            TxnOp::Begin { txn: 7, flags: FLAG_RETRY },
            TxnOp::Read { txn: 7, key: k(1) },
            TxnOp::Write { txn: 7, key: k(1), tag: k(2), val: Some(vec![1, 2, 3]) },
            TxnOp::Write { txn: 7, key: k(1), tag: k(0), val: None },
            TxnOp::Scan { txn: 0, space: 1, lo: k(0), hi: k(9), limit: 25 },
            TxnOp::Commit { txn: 7 },
            TxnOp::Abort { txn: 7 },
            TxnOp::BeginRead { txn: 8, flags: 0, key: k(5) },
            TxnOp::WriteCommit { txn: 8, key: k(5), tag: k(6), val: Some(vec![9]) },
        ];
        for op in ops {
            let enc = op.encode();
            assert_eq!(TxnOp::decode(&enc), Some(op.clone()), "{op:?}");
            // Every strict prefix must be rejected.
            for cut in 0..enc.len() {
                assert!(TxnOp::decode(&enc[..cut]).is_none(), "prefix {cut} of {op:?}");
            }
            // Trailing garbage must be rejected.
            let mut long = enc.clone();
            long.push(0);
            assert!(TxnOp::decode(&long).is_none(), "trailing byte on {op:?}");
        }
    }

    #[test]
    fn resps_roundtrip() {
        let resps = vec![
            TxnResp::Ok { seq: 42 },
            TxnResp::Value { val: vec![1, 2, 3] },
            TxnResp::Miss,
            TxnResp::Conflict,
            TxnResp::Scan {
                rows: vec![
                    ScanRow { major: k(1), minor: k(0), val: vec![5] },
                    ScanRow { major: k(2), minor: k(3), val: vec![] },
                ],
            },
            TxnResp::UnknownTxn,
            TxnResp::Error,
        ];
        for r in resps {
            let enc = r.encode();
            assert_eq!(TxnResp::decode(&enc), Some(r.clone()), "{r:?}");
            for cut in 0..enc.len() {
                assert!(TxnResp::decode(&enc[..cut]).is_none(), "prefix {cut} of {r:?}");
            }
        }
    }

    #[test]
    fn oversized_values_reject() {
        let mut frame = TxnOp::Write { txn: 1, key: k(1), tag: k(0), val: Some(vec![0; 4]) }.encode();
        // Rewrite vlen to something absurd.
        let at = 9 + 2 * KEY_LEN;
        frame[at..at + 2].copy_from_slice(&1000u16.to_le_bytes());
        assert!(TxnOp::decode(&frame).is_none());
    }

}
