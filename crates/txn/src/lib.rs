//! `treesls-txn`: multi-key transactions with commit-gated visibility
//! and secondary indexes over the TreeSLS single-level store.
//!
//! The paper's external-synchrony argument (§5) says a whole-system
//! persistent kernel makes transactional guarantees *cheap*: since every
//! externally visible response already waits for the covering checkpoint,
//! a storage engine gets "no committed-then-lost, no visible partial
//! transaction" without a write-ahead log. This crate is that engine:
//!
//! * [`store`] — a B+ tree updated in place in checkpointed service
//!   memory, storing only the bytes a commit changes. Primary records and
//!   secondary-index entries share one composite-key space, so one commit
//!   covers both. Step atomicity (a checkpoint round holds all of a commit
//!   or none — the invariant the `txn.*` crash sites let fault
//!   enumeration verify) plus undo on error make it atomic.
//! * [`engine`] — optimistic concurrency control with
//!   first-committer-wins validation: begin snapshots the stable
//!   sequence, reads record per-key version stamps, commit re-validates
//!   and aborts with [`TxnError::Conflict`](engine::TxnError) on any
//!   moved stamp.
//! * [`wire`] — the transaction verbs (opcode range 8–15, disjoint from
//!   the KV protocol), including the paired `BeginRead`/`WriteCommit`
//!   fast path that lets an open-loop generator drive interactive
//!   read-modify-write transactions.
//! * [`service`] — the [`Service`](treesls_net::Service) implementation
//!   behind a NIC queue; working sets are volatile host state that dies
//!   with a crash, exactly like uncommitted transactions should.
//! * [`gate`] — a checkpoint callback tracking the durable commit
//!   frontier, the anchor for the §5 oracle.

#![deny(missing_docs)]

pub mod engine;
pub mod gate;
pub mod service;
pub mod store;
#[cfg(test)]
mod testio;
pub mod wire;

pub use engine::{check_index_consistency, TxnError, TxnState, WriteOp};
pub use gate::TxnGate;
pub use service::TxnService;
pub use store::{index_key, primary_key, Record, StoreOp, TxnStore, KEY_LEN, VAL_CAP};
pub use wire::{ScanRow, TxnOp, TxnResp};
