//! The transaction service behind a NIC queue.
//!
//! [`TxnService`] plugs the OCC engine into the `treesls-net` poll-mode
//! runtime: the queue's `PollServer` loop decodes each frame with
//! [`TxnOp::decode`] and dispatches it here. The **store** lives in the
//! service vmspace's checkpointed heap (rolled back on crash as one
//! consistent instant); the **working sets** live in this host-side
//! struct's `Mutex<HashMap>` — deliberately volatile, because an
//! uncommitted transaction is supposed to die with a crash. A client that
//! resends a transaction id after recovery gets [`TxnResp::UnknownTxn`]
//! (its working set is gone) and restarts the transaction.
//!
//! Transactions are **single-shard**: all frames of one transaction must
//! arrive on the same queue (deployments pin the txn service to one
//! queue; cross-shard two-phase commit is a ROADMAP follow-on).
//!
//! Responses carrying a commit acknowledgement are released to the host
//! by the NIC's commit gate only after the covering checkpoint lands, so
//! §5 holds for multi-key transactions with no extra machinery here.

use std::collections::HashMap;

use parking_lot::Mutex;
use treesls_kernel::program::UserCtx;
use treesls_net::{Service, ServiceError};
use treesls_obs::EventKind;

use crate::engine::{txn_commit, txn_read, txn_scan, txn_write, TxnError, TxnState, WriteOp};
use crate::store::{primary_key, TxnStore, KEY_LEN};
use crate::wire::{error_resp, ScanRow, TxnOp, TxnResp, FLAG_RETRY};

/// Hard cap on concurrently live working sets (bounds host memory under a
/// client that begins transactions and never finishes them).
pub const MAX_LIVE_TXNS: usize = 4096;

/// Decoded bounds of one scan frame: key space, range, and row cap.
struct ScanBounds<'a> {
    space: u8,
    lo: &'a [u8; KEY_LEN],
    hi: &'a [u8; KEY_LEN],
    limit: u16,
}

/// The transactional KV + secondary-index protocol served through the NIC
/// poll runtime.
#[derive(Debug)]
pub struct TxnService {
    /// Store region base inside the service vmspace.
    pub store_base: u64,
    /// Tree node capacity of the store region.
    pub node_cap: u64,
    /// Live working sets by client-chosen transaction id.
    live: Mutex<HashMap<u64, TxnState>>,
}

impl TxnService {
    /// New service over a store region at `store_base` with `node_cap`
    /// tree nodes.
    pub fn new(store_base: u64, node_cap: u64) -> TxnService {
        TxnService { store_base, node_cap, live: Mutex::new(HashMap::new()) }
    }

    /// Drops every live working set. The restore path calls this so the
    /// host-side state matches what a real crash does to uncommitted
    /// transactions: they vanish, and clients get
    /// [`TxnResp::UnknownTxn`] on their next frame.
    pub fn reset_working_sets(&self) {
        self.live.lock().clear();
    }

    fn attach(&self, ctx: &UserCtx<'_>) -> Result<TxnStore, ServiceError> {
        TxnStore::attach(ctx, self.store_base)
            .map_err(|_| ServiceError)?
            .ok_or(ServiceError)
    }

    fn begin(&self, store: &TxnStore, ctx: &UserCtx<'_>, txn: u64, flags: u8) -> TxnResp {
        if flags & FLAG_RETRY != 0 {
            ctx.metrics().record_txn_retry();
        }
        let Ok(meta) = store.meta(ctx) else { return TxnResp::Error };
        let mut live = self.live.lock();
        if live.len() >= MAX_LIVE_TXNS && !live.contains_key(&txn) {
            return TxnResp::Error;
        }
        // Re-beginning an id replaces the old working set (the client
        // gave up on it).
        live.insert(txn, TxnState::new(meta.seq));
        TxnResp::Ok { seq: meta.seq }
    }

    fn read(&self, store: &TxnStore, ctx: &UserCtx<'_>, txn: u64, key: &[u8; KEY_LEN]) -> TxnResp {
        if txn == 0 {
            // Auto-commit read: straight off the stable root.
            return match store.get(ctx, &primary_key(key)) {
                Ok(Some(r)) => TxnResp::Value { val: r.val },
                Ok(None) => TxnResp::Miss,
                Err(_) => TxnResp::Error,
            };
        }
        let mut live = self.live.lock();
        let Some(state) = live.get_mut(&txn) else { return TxnResp::UnknownTxn };
        match txn_read(store, ctx, state, key) {
            Ok(Some(r)) => TxnResp::Value { val: r.val },
            Ok(None) => TxnResp::Miss,
            Err(e) => error_resp(e),
        }
    }

    fn write(
        &self,
        store: &TxnStore,
        ctx: &UserCtx<'_>,
        txn: u64,
        op: WriteOp,
    ) -> TxnResp {
        if txn == 0 {
            // Auto-commit single-key transaction.
            let mut state = TxnState::new(u64::MAX);
            if let Err(e) = txn_write(&mut state, op) {
                return error_resp(e);
            }
            return self.finish_commit(store, ctx, 0, &state);
        }
        let mut live = self.live.lock();
        let Some(state) = live.get_mut(&txn) else { return TxnResp::UnknownTxn };
        match txn_write(state, op) {
            Ok(()) => TxnResp::Ok { seq: state.writes.len() as u64 },
            Err(e) => error_resp(e),
        }
    }

    fn scan(&self, store: &TxnStore, ctx: &UserCtx<'_>, txn: u64, b: ScanBounds<'_>) -> TxnResp {
        let limit = (b.limit as usize).min(crate::engine::MAX_READS);
        let res = if txn == 0 {
            txn_scan(store, ctx, None, b.space, b.lo, b.hi, limit)
        } else {
            let mut live = self.live.lock();
            let Some(state) = live.get_mut(&txn) else { return TxnResp::UnknownTxn };
            txn_scan(store, ctx, Some(state), b.space, b.lo, b.hi, limit)
        };
        match res {
            Ok(recs) => {
                TxnResp::Scan { rows: recs.iter().map(ScanRow::from_record).collect() }
            }
            Err(e) => error_resp(e),
        }
    }

    /// Runs validation + publication for a finished working set and
    /// records the outcome (metrics + flight event). The working set has
    /// already been removed from the live map.
    fn finish_commit(
        &self,
        store: &TxnStore,
        ctx: &UserCtx<'_>,
        txn: u64,
        state: &TxnState,
    ) -> TxnResp {
        match txn_commit(store, ctx, state) {
            Ok(seq) => {
                let latency_ns = state.begun.elapsed().as_nanos() as u64;
                ctx.metrics().record_txn_commit(latency_ns);
                ctx.recorder().record(
                    EventKind::TxnCommit,
                    [
                        seq,
                        txn,
                        state.writes.len() as u64,
                        state.reads.len() as u64,
                        latency_ns,
                        state.snapshot,
                    ],
                );
                TxnResp::Ok { seq }
            }
            Err(TxnError::Conflict) => {
                ctx.metrics().record_txn_abort();
                TxnResp::Conflict
            }
            Err(e) => {
                ctx.metrics().record_txn_abort();
                error_resp(e)
            }
        }
    }

    fn commit(&self, store: &TxnStore, ctx: &UserCtx<'_>, txn: u64) -> TxnResp {
        let Some(state) = self.live.lock().remove(&txn) else { return TxnResp::UnknownTxn };
        self.finish_commit(store, ctx, txn, &state)
    }

    fn abort(&self, txn: u64) -> TxnResp {
        match self.live.lock().remove(&txn) {
            Some(_) => TxnResp::Ok { seq: 0 },
            None => TxnResp::UnknownTxn,
        }
    }
}

impl Service for TxnService {
    fn init(&self, ctx: &mut UserCtx<'_>) -> Result<(), ServiceError> {
        TxnStore::format(ctx, self.store_base, self.node_cap)
            .map(|_| ())
            .map_err(|_| ServiceError)
    }

    fn handle(
        &self,
        ctx: &mut UserCtx<'_>,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ServiceError> {
        let store = self.attach(ctx)?;
        let resp = match TxnOp::decode(payload) {
            Some(TxnOp::Begin { txn, flags }) => self.begin(&store, ctx, txn, flags),
            Some(TxnOp::Read { txn, key }) => self.read(&store, ctx, txn, &key),
            Some(TxnOp::Write { txn, key, tag, val }) => {
                self.write(&store, ctx, txn, WriteOp { key, tag, val })
            }
            Some(TxnOp::Scan { txn, space, lo, hi, limit }) => {
                self.scan(&store, ctx, txn, ScanBounds { space, lo: &lo, hi: &hi, limit })
            }
            Some(TxnOp::Commit { txn }) => self.commit(&store, ctx, txn),
            Some(TxnOp::Abort { txn }) => self.abort(txn),
            Some(TxnOp::BeginRead { txn, flags, key }) => {
                match self.begin(&store, ctx, txn, flags) {
                    TxnResp::Ok { .. } => self.read(&store, ctx, txn, &key),
                    other => other,
                }
            }
            Some(TxnOp::WriteCommit { txn, key, tag, val }) => {
                let wr = self.write(&store, ctx, txn, WriteOp { key, tag, val });
                match wr {
                    TxnResp::Ok { .. } if txn != 0 => self.commit(&store, ctx, txn),
                    other => other,
                }
            }
            None => TxnResp::Error,
        };
        resp.encode_into(out);
        Ok(())
    }
}
