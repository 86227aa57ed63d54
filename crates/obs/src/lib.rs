//! Whole-system observability for the TreeSLS reproduction.
//!
//! The paper's evaluation (§7) is entirely about *measuring* the 1 ms
//! checkpoint loop; this crate is the single place where the stack's
//! telemetry converges. It provides two independent pieces:
//!
//! 1. **[`FlightRecorder`]** — a fixed-size, CRC-tagged event ring that
//!    lives *on the emulated NVM device* (inside the metadata arena) and
//!    therefore survives crashes. The kernel, checkpoint manager, and
//!    external-synchrony layer append typed [`FlightEvent`]s (checkpoint
//!    flip/commit with per-phase durations, CoW faults, hybrid-copy
//!    decisions, restore, quarantine, journal truncation, ring publish);
//!    after a crash, recovery replays the surviving tail so post-crash
//!    forensics show the last events before the cut. The design follows the
//!    spirit of In-Cache-Line Logging (arXiv:1902.00660): each record is a
//!    single cache line, so appends are one atomic-or-absent NVM write.
//!
//! 2. **[`MetricsRegistry`]** — relaxed-atomic counters and a log-bucketed
//!    stop-the-world pause histogram, aggregated with the existing
//!    per-crate statistics into one plain-value [`MetricsSnapshot`] with a
//!    [`since`](MetricsSnapshot::since) delta API. Recording is
//!    feature-gated (`metrics`, on by default): with the feature off every
//!    record method compiles to an empty inline stub.
//!
//! See `OBSERVABILITY.md` at the repository root for the NVM layout, the
//! event taxonomy, and the crash-survival argument.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod recorder;

pub use metrics::{MetricsRegistry, MetricsSnapshot, PauseHistogram, PauseStats, NET_SHARDS};
pub use recorder::{EventKind, FlightEvent, FlightRecorder, RoundCommit, SLOT_LEN};
