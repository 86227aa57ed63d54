//! `treesls-net` — the multi-queue virtual NIC and poll-mode server
//! runtime with commit-gated TX.
//!
//! The paper's §5 network server is a single boundary where external
//! synchrony is enforced: responses leave the machine only after the
//! checkpoint covering their producing state commits. This crate scales
//! that boundary out to a device: a [`VirtualNic`] with N queues
//! (RSS-style flow steering, per-queue doorbells, per-queue credit
//! admission), a [`PollServer`] runtime running one service loop per
//! queue, and **one** commit-time visibility barrier that releases every
//! queue's held-back responses together.
//!
//! Layering: `extsync` provides the version-tagged rings and the
//! host-side DMA view; this crate provides the *device* built from them;
//! `apps` plugs protocol [`Service`]s into the runtime.
//!
//! * [`flow`] — RSS-style flow→queue steering.
//! * [`fault`] — deterministic drop/duplicate/reorder wire model,
//!   composable with a [`treesls_nvm::CrashSchedule`].
//! * [`nic`] — the NIC device: queues, credits, doorbells, and the
//!   checkpoint/restore callbacks (visibility barrier, uniform re-arm).
//! * [`runtime`] — the poll-mode server loop and the [`Service`] trait.
//! * [`deploy`](mod@deploy) — spawning a NIC-backed service process inside the SLS.
//! * [`repl`] — the checkpoint-shipping replication channel: a dedicated
//!   delta/ack queue pair between a primary and each replica, with the
//!   same wire-fault model, plus the [`ReleaseGate`] the NIC consults to
//!   bound TX visibility at the quorum-durable round.

#![deny(missing_docs)]

pub mod deploy;
pub mod fault;
pub mod flow;
pub mod nic;
pub mod repl;
pub mod runtime;

pub use deploy::{deploy, DeploySpec, NicDeployment};
pub use fault::{FaultState, NetFaultConfig, Perturbation};
pub use flow::{flow_hash, key_flow, queue_for, shard_for};
pub use nic::{CallOutcome, NetError, NicConfig, NicLayout, VirtualNic};
pub use repl::{ReleaseGate, ReplChannel, ShipError};
pub use runtime::{PollServer, Scratch, Service, ServiceError};
