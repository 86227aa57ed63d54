//! `treesls-repl` — checkpoint-shipping replication: survive the
//! machine, not just the power cord.
//!
//! TreeSLS makes a single box persistent: every checkpoint survives a
//! power cut because it lives in NVM. This crate extends the same
//! guarantee across machine failure by *shipping* each checkpoint
//! round's delta — the dirty-queue drain the checkpoint already computed
//! — over a dedicated [`ReplChannel`](treesls_net::ReplChannel) queue
//! pair to replica machines, which mirror the tree and ack by round.
//!
//! The external-synchrony story composes: the NIC's commit-gated TX
//! barrier (§5) already holds client-visible responses until the round
//! covering their state commits locally; with replication installed it
//! holds them until the round is durable on a configurable *quorum* of
//! machines ([`ReplHealth`] is the NIC's
//! [`ReleaseGate`](treesls_net::ReleaseGate)). `quorum = 1` degenerates
//! to exactly the single-box behavior — the compatibility oracle the
//! tests pin.
//!
//! * [`wire`] — CRC-checked frame codec (records with raw ids, page
//!   images, delta/snapshot bracketing, acks, resync requests).
//! * [`ship`] — the primary-side checkpoint callback: O(changes) delta
//!   construction, per-peer retry/backoff, snapshot resync, quorum wait,
//!   degraded mode.
//! * [`replica`] — the replica: atomic round application,
//!   quarantine-and-resync on any damage, and promotion of the mirror
//!   into a bootable [`System`](treesls::System) through the standard
//!   crash-restore path.
//! * [`cluster`] — the 1-primary + N-replica harness with the fault
//!   drill levers (partition, crash, corruption, failover).

#![deny(missing_docs)]

pub mod cluster;
pub mod replica;
pub mod ship;
pub mod wire;

pub use cluster::{Cluster, ClusterConfig};
pub use replica::{promote, PageImage, PromoteError, Replica, ReplicaStore};
pub use ship::{ReplHealth, ShipConfig, Shipper, ShipStats};
pub use wire::{Frame, WireError, WireRecord};
