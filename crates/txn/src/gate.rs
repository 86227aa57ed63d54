//! The transaction durability gate: a checkpoint callback that tracks
//! which committed sequence is covered by a persistent checkpoint.
//!
//! The store itself needs no callback — it lives in checkpointed memory
//! and a service step never straddles a round's cut, so the checkpoint
//! image holds all of a commit or none of it, for free. What *does* need
//! host-side tracking is the durability frontier the §5 oracle checks
//! against:
//!
//! * [`TxnGate::committed_seq`] — the sequence visible on the stable
//!   root right now (may still be volatile);
//! * [`TxnGate::durable_seq`] — the highest sequence captured by a
//!   *committed* checkpoint round. A crash can never lose a transaction
//!   `<= durable_seq`, and the NIC's commit gate guarantees a client
//!   only ever *sees* a commit acknowledgement once its sequence is
//!   durable.
//!
//! The gate follows the NIC-callback idiom: it reads the store header
//! through a [`HostIo`] into the service vmspace at each epoch flip
//! (that snapshot is exactly what the round captures, because the flip
//! happens inside the grace window), promotes the snapshot to durable
//! when the round commits, and resyncs from the restored header after a
//! rollback — also dropping the service's volatile working sets, since
//! uncommitted transactions are supposed to die with the crash.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use treesls_checkpoint::CkptCallback;
use treesls_extsync::port::HostIo;

use crate::service::TxnService;
use crate::store::TxnStore;

/// Checkpoint-gated durability tracking for one transaction store.
pub struct TxnGate {
    io: HostIo,
    store_base: u64,
    service: Arc<TxnService>,
    /// Store sequence snapshotted at the epoch flip (what the in-flight
    /// round will capture). `u64::MAX` = no snapshot pending.
    epoch_seq: AtomicU64,
    /// Highest store sequence covered by a committed checkpoint.
    durable_seq: AtomicU64,
}

impl std::fmt::Debug for TxnGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnGate")
            .field("store_base", &self.store_base)
            .field("durable_seq", &self.durable_seq)
            .finish_non_exhaustive()
    }
}

impl TxnGate {
    /// New gate reading the store at `store_base` through `io`, resetting
    /// `service`'s working sets on restore.
    pub fn new(io: HostIo, store_base: u64, service: Arc<TxnService>) -> TxnGate {
        TxnGate {
            io,
            store_base,
            service,
            epoch_seq: AtomicU64::new(u64::MAX),
            durable_seq: AtomicU64::new(0),
        }
    }

    fn read_seq(&self) -> Option<u64> {
        let store = TxnStore::attach(&self.io, self.store_base).ok()??;
        store.meta(&self.io).ok().map(|m| m.seq)
    }

    /// The commit sequence visible on the stable root right now (possibly
    /// not yet durable). `None` until the store is formatted.
    pub fn committed_seq(&self) -> Option<u64> {
        self.read_seq()
    }

    /// The highest commit sequence covered by a committed checkpoint
    /// round. Transactions at or below this can never be lost.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq.load(Ordering::SeqCst)
    }
}

impl CkptCallback for TxnGate {
    fn on_epoch(&self, _version: u64) {
        // Inside the grace-held flip window: the sequence read here is
        // exactly what the round's image captures (no commit can land
        // between this read and the flip).
        if let Some(seq) = self.read_seq() {
            self.epoch_seq.store(seq, Ordering::SeqCst);
        }
    }

    fn on_checkpoint(&self, _version: u64) {
        let snap = self.epoch_seq.swap(u64::MAX, Ordering::SeqCst);
        if snap != u64::MAX {
            self.durable_seq.store(snap, Ordering::SeqCst);
            self.io.kernel().metrics.set_txn_durable(snap);
        }
    }

    fn on_restore(&self, _version: u64) {
        // Uncommitted working sets die with the crash; the durable
        // frontier resyncs to whatever sequence the restored image holds
        // (which is ≥ every acknowledgement any client ever saw, by the
        // NIC commit gate).
        self.service.reset_working_sets();
        let seq = self.read_seq().unwrap_or(0);
        self.epoch_seq.store(u64::MAX, Ordering::SeqCst);
        self.durable_seq.store(seq, Ordering::SeqCst);
        self.io.kernel().metrics.set_txn_durable(seq);
    }
}
