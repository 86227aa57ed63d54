//! Multi-key transactions over the in-place store.
//!
//! The engine is optimistic concurrency control with first-committer-wins
//! validation, shaped by what external synchrony already guarantees:
//!
//! * **begin** snapshots the stable sequence number;
//! * **read** resolves against the transaction's own write set first
//!   (read-your-writes), then the stable root, recording the observed
//!   per-key version stamp in the read set;
//! * **write / delete** only buffer into the working set — the stable
//!   tree is untouched until commit;
//! * **commit** re-validates every read stamp and write target against
//!   the *current* stable root. A key whose stamp moved since the
//!   snapshot means another transaction committed first → the whole
//!   transaction aborts with [`TxnError::Conflict`] and leaves no trace.
//!   A valid transaction turns its working set into primary + index
//!   [`StoreOp`]s and applies them through [`TxnStore::commit_apply`] —
//!   all or nothing, by step atomicity against crashes and undo on error.
//!
//! Working sets live in ordinary volatile service state, **not** in
//! checkpointed memory: an uncommitted transaction is supposed to die
//! with a crash. Committed state becomes durable at the next checkpoint
//! round, and the commit *response* is released by the NIC's commit gate
//! only after that round lands — so a client that saw "committed" can
//! never lose the transaction, and a client that never saw the response
//! may retry idempotently.
//!
//! Scans validate the stamps of the records they returned (no phantom
//! protection: a scan re-run at commit time may see inserts that slipped
//! between — the documented isolation level is snapshot-validated OCC,
//! not full serializability over predicates).

use treesls_extsync::MemIo;

use crate::store::{
    index_key, primary_key, space_range, CKey, Record, StoreOp, TxnStore, KEY_LEN, SPACE_INDEX,
    SPACE_PRIMARY, VAL_CAP,
};

/// Maximum buffered writes per transaction.
pub const MAX_WRITES: usize = 64;
/// Maximum tracked read stamps per transaction.
pub const MAX_READS: usize = 256;

/// Why a transaction operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// First-committer-wins validation failed: another transaction
    /// committed a conflicting key after this one's snapshot.
    Conflict,
    /// The transaction id is not active (never begun, already finished,
    /// or its working set died with a crash).
    UnknownTxn,
    /// The store ran out of nodes.
    Full,
    /// The working set hit [`MAX_WRITES`] / [`MAX_READS`].
    Limit,
    /// A memory access failed (fatal for the caller's request).
    Io,
}

/// One buffered mutation in a transaction's working set.
#[derive(Debug, Clone)]
pub struct WriteOp {
    /// Primary key.
    pub key: [u8; KEY_LEN],
    /// Secondary-index tag (all zeros = unindexed).
    pub tag: [u8; KEY_LEN],
    /// `Some(value)` = upsert, `None` = delete.
    pub val: Option<Vec<u8>>,
}

/// A live transaction's working set.
#[derive(Debug, Clone)]
pub struct TxnState {
    /// Stable sequence at begin.
    pub snapshot: u64,
    /// `(composite key, stamp observed)` for every read; stamp 0 = the
    /// key was absent.
    pub reads: Vec<(CKey, u64)>,
    /// Buffered writes in arrival order (later wins on the same key).
    pub writes: Vec<WriteOp>,
    /// Monotonic time at begin, for the commit-latency histogram.
    pub begun: std::time::Instant,
}

impl TxnState {
    /// Fresh working set against stable sequence `snapshot`.
    pub fn new(snapshot: u64) -> TxnState {
        TxnState {
            snapshot,
            reads: Vec::new(),
            writes: Vec::new(),
            begun: std::time::Instant::now(),
        }
    }

    fn record_read(&mut self, ckey: CKey, stamp: u64) -> Result<(), TxnError> {
        if let Some(r) = self.reads.iter_mut().find(|(k, _)| *k == ckey) {
            // Keep the first observation: validation checks that the
            // stamp never moved across the whole transaction.
            let _ = r;
            return Ok(());
        }
        if self.reads.len() >= MAX_READS {
            return Err(TxnError::Limit);
        }
        self.reads.push((ckey, stamp));
        Ok(())
    }

    /// The transaction's own latest buffered write for `key`, if any.
    pub fn own_write(&self, key: &[u8; KEY_LEN]) -> Option<&WriteOp> {
        self.writes.iter().rev().find(|w| w.key == *key)
    }
}

/// Reads `key` inside transaction `txn` (read-your-writes, then the
/// stable root), recording the read stamp for validation.
pub fn txn_read<M: MemIo>(
    store: &TxnStore,
    io: &M,
    txn: &mut TxnState,
    key: &[u8; KEY_LEN],
) -> Result<Option<Record>, TxnError> {
    if let Some(w) = txn.own_write(key) {
        return Ok(w.val.as_ref().map(|v| Record {
            ckey: primary_key(key),
            wseq: txn.snapshot,
            tag: w.tag,
            val: v.clone(),
        }));
    }
    let ckey = primary_key(key);
    let rec = store.get(io, &ckey).map_err(|_| TxnError::Io)?;
    txn.record_read(ckey, rec.as_ref().map_or(0, |r| r.wseq))?;
    Ok(rec)
}

/// Buffers an upsert/delete into transaction `txn`'s working set.
pub fn txn_write(txn: &mut TxnState, op: WriteOp) -> Result<(), TxnError> {
    if op.val.as_ref().is_some_and(|v| v.len() > VAL_CAP) {
        return Err(TxnError::Limit);
    }
    if txn.writes.len() >= MAX_WRITES {
        return Err(TxnError::Limit);
    }
    txn.writes.push(op);
    Ok(())
}

/// Range-scans the primary space (`space == SPACE_PRIMARY`, from `lo`,
/// minor part ignored) or one index tag (`space == SPACE_INDEX`, tag in
/// `lo`), validating the stamps of everything returned. Outside a
/// transaction pass `txn = None` for a plain stable-snapshot scan.
pub fn txn_scan<M: MemIo>(
    store: &TxnStore,
    io: &M,
    txn: Option<&mut TxnState>,
    space: u8,
    lo: &[u8; KEY_LEN],
    hi: &[u8; KEY_LEN],
    limit: usize,
) -> Result<Vec<Record>, TxnError> {
    let (clo, chi) = match space {
        SPACE_INDEX => (index_key(lo, &[0u8; KEY_LEN]), index_key(hi, &[0xffu8; KEY_LEN])),
        _ => (primary_key(lo), primary_key(hi)),
    };
    let (slo, shi) = space_range(space);
    let clo = clo.max(slo);
    let chi = chi.min(shi);
    let recs = store.scan(io, &clo, &chi, limit).map_err(|_| TxnError::Io)?;
    if let Some(txn) = txn {
        for r in &recs {
            txn.record_read(r.ckey, r.wseq)?;
        }
    }
    Ok(recs)
}

/// Validates `txn` against the current stable root and, if clean, applies
/// its working set (primary records plus their secondary-index entries)
/// as one atomic commit with sequence `meta.seq + 1`.
///
/// First-committer-wins: any read stamp that moved, or any write target
/// stamped after the snapshot, aborts the transaction with
/// [`TxnError::Conflict`] — the caller drops the working set and nothing
/// was stored.
///
/// Returns the new committed sequence on success.
pub fn txn_commit<M: MemIo>(
    store: &TxnStore,
    io: &M,
    txn: &TxnState,
) -> Result<u64, TxnError> {
    // Validate the read set: every stamp must be exactly what the
    // transaction observed (0 = still absent).
    for (ckey, seen) in &txn.reads {
        let cur = store.get(io, ckey).map_err(|_| TxnError::Io)?;
        if cur.map_or(0, |r| r.wseq) != *seen {
            return Err(TxnError::Conflict);
        }
    }
    // Collapse to last-write-wins per key, preserving first-buffer order.
    // One lookup per key both validates it (a blind write conflicts only
    // when someone committed the key after this transaction's snapshot)
    // and yields the index tag to retire.
    let mut ops: Vec<StoreOp> = Vec::new();
    let mut keys_done: Vec<[u8; KEY_LEN]> = Vec::new();
    for w in &txn.writes {
        if keys_done.contains(&w.key) {
            continue;
        }
        keys_done.push(w.key);
        let w = txn.own_write(&w.key).expect("key just seen");
        let prior = store.get(io, &primary_key(&w.key)).map_err(|_| TxnError::Io)?;
        if prior.as_ref().map_or(0, |r| r.wseq) > txn.snapshot {
            return Err(TxnError::Conflict);
        }
        let old_tag = prior.as_ref().map(|r| r.tag).filter(|t| *t != [0u8; KEY_LEN]);
        match &w.val {
            Some(v) => {
                ops.push(StoreOp::Put { ckey: primary_key(&w.key), tag: w.tag, val: v.clone() });
                if let Some(old) = old_tag {
                    if old != w.tag {
                        ops.push(StoreOp::Del { ckey: index_key(&old, &w.key) });
                    }
                }
                if w.tag != [0u8; KEY_LEN] {
                    ops.push(StoreOp::Put {
                        ckey: index_key(&w.tag, &w.key),
                        tag: [0u8; KEY_LEN],
                        val: w.key.to_vec(),
                    });
                }
            }
            None => {
                ops.push(StoreOp::Del { ckey: primary_key(&w.key) });
                if let Some(old) = old_tag {
                    ops.push(StoreOp::Del { ckey: index_key(&old, &w.key) });
                }
            }
        }
    }
    let seq = store.meta(io).map_err(|_| TxnError::Io)?.seq;
    if ops.is_empty() {
        // Read-only transactions validate and commit without storing.
        return Ok(seq);
    }
    store.commit_apply(io, &ops, seq + 1)?;
    Ok(seq + 1)
}

/// Walks the whole store and checks primary ↔ secondary exact
/// consistency: every tagged primary record has exactly its one index
/// entry, and every index entry points at a primary record carrying that
/// tag. Returns the number of primary records, or an error string naming
/// the first violation.
pub fn check_index_consistency<M: MemIo>(store: &TxnStore, io: &M) -> Result<usize, String> {
    let (plo, phi) = space_range(SPACE_PRIMARY);
    let primaries = store.scan(io, &plo, &phi, usize::MAX).map_err(|e| format!("scan: {e:?}"))?;
    let (ilo, ihi) = space_range(SPACE_INDEX);
    let index = store.scan(io, &ilo, &ihi, usize::MAX).map_err(|e| format!("scan: {e:?}"))?;
    let mut expect: std::collections::BTreeSet<CKey> = Default::default();
    for p in &primaries {
        if p.tag != [0u8; KEY_LEN] {
            let mut key = [0u8; KEY_LEN];
            key.copy_from_slice(&p.ckey[1..1 + KEY_LEN]);
            expect.insert(index_key(&p.tag, &key));
        }
    }
    for e in &index {
        if !expect.remove(&e.ckey) {
            return Err(format!("orphan index entry {:?}", &e.ckey[..8]));
        }
    }
    if let Some(missing) = expect.iter().next() {
        return Err(format!("missing index entry {:?}", &missing[..8]));
    }
    Ok(primaries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::region_len;
    use crate::testio::{key, Flat};

    fn setup() -> (Flat, TxnStore) {
        let io = Flat::new(region_len(256) as usize);
        let s = TxnStore::format(&io, 0, 256).unwrap();
        (io, s)
    }

    fn upsert(key_: [u8; KEY_LEN], v: &[u8]) -> WriteOp {
        WriteOp { key: key_, tag: [0; KEY_LEN], val: Some(v.to_vec()) }
    }

    #[test]
    fn multi_key_commit_is_atomic_and_visible() {
        let (io, s) = setup();
        let mut t = TxnState::new(s.meta(&io).unwrap().seq);
        txn_write(&mut t, upsert(key(1), b"a")).unwrap();
        txn_write(&mut t, upsert(key(2), b"b")).unwrap();
        let seq = txn_commit(&s, &io, &t).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(s.get(&io, &primary_key(&key(1))).unwrap().unwrap().val, b"a");
        assert_eq!(s.get(&io, &primary_key(&key(2))).unwrap().unwrap().val, b"b");
    }

    #[test]
    fn first_committer_wins_on_write_write() {
        let (io, s) = setup();
        let mut a = TxnState::new(0);
        let mut b = TxnState::new(0);
        txn_write(&mut a, upsert(key(5), b"A")).unwrap();
        txn_write(&mut b, upsert(key(5), b"B")).unwrap();
        assert_eq!(txn_commit(&s, &io, &a), Ok(1));
        assert_eq!(txn_commit(&s, &io, &b), Err(TxnError::Conflict));
        assert_eq!(s.get(&io, &primary_key(&key(5))).unwrap().unwrap().val, b"A");
    }

    #[test]
    fn stale_read_aborts() {
        let (io, s) = setup();
        let mut seed = TxnState::new(0);
        txn_write(&mut seed, upsert(key(9), b"v0")).unwrap();
        txn_commit(&s, &io, &seed).unwrap();

        let mut reader = TxnState::new(s.meta(&io).unwrap().seq);
        let r = txn_read(&s, &io, &mut reader, &key(9)).unwrap().unwrap();
        assert_eq!(r.val, b"v0");
        // A second transaction rewrites the key the reader depends on.
        let mut w = TxnState::new(s.meta(&io).unwrap().seq);
        txn_write(&mut w, upsert(key(9), b"v1")).unwrap();
        txn_commit(&s, &io, &w).unwrap();
        // The reader's commit (writing a different key) must abort: its
        // read of key 9 is stale.
        txn_write(&mut reader, upsert(key(10), b"dep")).unwrap();
        assert_eq!(txn_commit(&s, &io, &reader), Err(TxnError::Conflict));
        assert!(s.get(&io, &primary_key(&key(10))).unwrap().is_none());
    }

    #[test]
    fn read_absent_then_insert_elsewhere_conflicts() {
        let (io, s) = setup();
        let mut t = TxnState::new(0);
        assert!(txn_read(&s, &io, &mut t, &key(3)).unwrap().is_none());
        let mut other = TxnState::new(0);
        txn_write(&mut other, upsert(key(3), b"x")).unwrap();
        txn_commit(&s, &io, &other).unwrap();
        txn_write(&mut t, upsert(key(4), b"y")).unwrap();
        assert_eq!(txn_commit(&s, &io, &t), Err(TxnError::Conflict));
    }

    #[test]
    fn read_your_own_writes() {
        let (io, s) = setup();
        let mut t = TxnState::new(0);
        txn_write(&mut t, upsert(key(1), b"mine")).unwrap();
        let r = txn_read(&s, &io, &mut t, &key(1)).unwrap().unwrap();
        assert_eq!(r.val, b"mine");
        // Buffered deletes read as absent.
        txn_write(&mut t, WriteOp { key: key(1), tag: [0; KEY_LEN], val: None }).unwrap();
        assert!(txn_read(&s, &io, &mut t, &key(1)).unwrap().is_none());
    }

    #[test]
    fn index_follows_tag_changes() {
        let (io, s) = setup();
        let t1 = key(100);
        let t2 = key(200);
        let mut a = TxnState::new(0);
        txn_write(&mut a, WriteOp { key: key(1), tag: t1, val: Some(b"v".to_vec()) }).unwrap();
        txn_commit(&s, &io, &a).unwrap();
        assert_eq!(check_index_consistency(&s, &io), Ok(1));
        // Retag: old index entry must go, new one must appear.
        let mut b = TxnState::new(s.meta(&io).unwrap().seq);
        txn_write(&mut b, WriteOp { key: key(1), tag: t2, val: Some(b"w".to_vec()) }).unwrap();
        txn_commit(&s, &io, &b).unwrap();
        assert_eq!(check_index_consistency(&s, &io), Ok(1));
        let hits = txn_scan(&s, &io, None, SPACE_INDEX, &t2, &t2, 10).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(txn_scan(&s, &io, None, SPACE_INDEX, &t1, &t1, 10).unwrap().is_empty());
        // Delete drops both primary and index entries.
        let mut c = TxnState::new(s.meta(&io).unwrap().seq);
        txn_write(&mut c, WriteOp { key: key(1), tag: [0; KEY_LEN], val: None }).unwrap();
        txn_commit(&s, &io, &c).unwrap();
        assert_eq!(check_index_consistency(&s, &io), Ok(0));
    }

    #[test]
    fn scan_validates_returned_stamps() {
        let (io, s) = setup();
        let mut seed = TxnState::new(0);
        for i in 0..10 {
            txn_write(&mut seed, upsert(key(i), b"v")).unwrap();
        }
        txn_commit(&s, &io, &seed).unwrap();
        let mut t = TxnState::new(s.meta(&io).unwrap().seq);
        let hits =
            txn_scan(&s, &io, Some(&mut t), SPACE_PRIMARY, &key(0), &key(5), 100).unwrap();
        assert_eq!(hits.len(), 5);
        // Concurrent rewrite of a scanned key aborts the scanner.
        let mut w = TxnState::new(s.meta(&io).unwrap().seq);
        txn_write(&mut w, upsert(key(2), b"new")).unwrap();
        txn_commit(&s, &io, &w).unwrap();
        txn_write(&mut t, upsert(key(50), b"dep")).unwrap();
        assert_eq!(txn_commit(&s, &io, &t), Err(TxnError::Conflict));
    }

    #[test]
    fn read_only_txn_commits_without_bumping_seq() {
        let (io, s) = setup();
        let mut seed = TxnState::new(0);
        txn_write(&mut seed, upsert(key(1), b"v")).unwrap();
        txn_commit(&s, &io, &seed).unwrap();
        let mut t = TxnState::new(s.meta(&io).unwrap().seq);
        txn_read(&s, &io, &mut t, &key(1)).unwrap();
        assert_eq!(txn_commit(&s, &io, &t), Ok(1));
        assert_eq!(s.meta(&io).unwrap().seq, 1);
    }

    #[test]
    fn working_set_limits_are_enforced() {
        let mut t = TxnState::new(0);
        for i in 0..MAX_WRITES as u64 {
            txn_write(&mut t, upsert(key(i), b"v")).unwrap();
        }
        assert_eq!(txn_write(&mut t, upsert(key(9999), b"v")), Err(TxnError::Limit));
        assert_eq!(
            txn_write(&mut TxnState::new(0), upsert(key(0), &[0u8; VAL_CAP + 1])),
            Err(TxnError::Limit)
        );
    }
}
