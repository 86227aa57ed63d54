//! Host-side (external) clients driving TreeSLS servers through the
//! virtual NIC.
//!
//! These play the external systems of §5: they live outside the SLS (their
//! state survives crashes like any real remote client) and observe only
//! externally visible responses. Each operation carries a *flow id* the
//! NIC hashes onto a queue (RSS steering). The drivers record
//! per-operation latency histograms for Figures 11, 12 and 14, and carry
//! a built-in external-synchrony oracle: with ext-sync on, a response
//! observed at a committed version no later than the version current at
//! send time is a §5 violation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use treesls_net::{CallOutcome, VirtualNic};

use crate::hist::Histogram;
use crate::wire::{KvOp, KvResp};

/// Outcome of one client run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Completed operations.
    pub ops: u64,
    /// Timed-out operations.
    pub timeouts: u64,
    /// Operations shed by admission control (`Busy` replies).
    pub sheds: u64,
    /// External-synchrony violations observed (responses visible before
    /// their covering checkpoint committed). Must be 0 with ext-sync on.
    pub sync_violations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-operation latency (ns), completed operations only.
    pub latency: Histogram,
}

impl RunStats {
    /// Throughput in completed operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// A closed-loop client issuing operations from an iterator against a
/// NIC; each operation names the flow it belongs to (queue steering is
/// the NIC's job).
pub fn run_closed_loop(
    nic: &VirtualNic,
    mut ops: impl FnMut() -> Option<(u64, KvOp)>,
    timeout: Duration,
) -> RunStats {
    let mut latency = Histogram::new();
    let mut done = 0u64;
    let mut timeouts = 0u64;
    let mut sheds = 0u64;
    let mut sync_violations = 0u64;
    let start = Instant::now();
    while let Some((flow, op)) = ops() {
        let t0 = Instant::now();
        let v_send = nic.committed_version();
        match nic.call(flow, &op.encode(), timeout) {
            Ok(CallOutcome::Reply(resp)) => {
                debug_assert!(KvResp::decode(&resp).is_some());
                // §5 oracle: the producing state lives in interval
                // v_send+1 (or later), so its covering commit leaves the
                // committed version strictly above v_send.
                if nic.ext_sync() && nic.committed_version() <= v_send {
                    sync_violations += 1;
                }
                latency.record(t0.elapsed().as_nanos() as u64);
                done += 1;
            }
            Ok(CallOutcome::Busy) => {
                // Admission control shed the request; back off briefly so
                // a fleet of closed-loop clients doesn't busy-spin against
                // an exhausted credit budget.
                sheds += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(CallOutcome::TimedOut) | Err(_) => {
                timeouts += 1;
            }
        }
    }
    RunStats { ops: done, timeouts, sheds, sync_violations, elapsed: start.elapsed(), latency }
}

/// Runs `nthreads` closed-loop clients in parallel, each drawing from its
/// own operation stream (`make_ops(thread_idx)`), and merges the results.
pub fn run_parallel_clients(
    nic: &VirtualNic,
    nthreads: usize,
    make_ops: impl Fn(usize) -> Box<dyn FnMut() -> Option<(u64, KvOp)> + Send> + Sync,
    timeout: Duration,
) -> RunStats {
    let total_ops = AtomicU64::new(0);
    let total_timeouts = AtomicU64::new(0);
    let total_sheds = AtomicU64::new(0);
    let total_violations = AtomicU64::new(0);
    let merged = parking_lot::Mutex::new(Histogram::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..nthreads {
            let mut ops = make_ops(t);
            let total_ops = &total_ops;
            let total_timeouts = &total_timeouts;
            let total_sheds = &total_sheds;
            let total_violations = &total_violations;
            let merged = &merged;
            s.spawn(move || {
                let stats = run_closed_loop(nic, &mut *ops, timeout);
                total_ops.fetch_add(stats.ops, Ordering::Relaxed);
                total_timeouts.fetch_add(stats.timeouts, Ordering::Relaxed);
                total_sheds.fetch_add(stats.sheds, Ordering::Relaxed);
                total_violations.fetch_add(stats.sync_violations, Ordering::Relaxed);
                merged.lock().merge(&stats.latency);
            });
        }
    });
    RunStats {
        ops: total_ops.load(Ordering::Relaxed),
        timeouts: total_timeouts.load(Ordering::Relaxed),
        sheds: total_sheds.load(Ordering::Relaxed),
        sync_violations: total_violations.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        latency: merged.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_throughput() {
        let s = RunStats {
            ops: 1000,
            timeouts: 0,
            sheds: 0,
            sync_violations: 0,
            elapsed: Duration::from_secs(2),
            latency: Histogram::new(),
        };
        assert!((s.throughput() - 500.0).abs() < 1e-9);
        let z = RunStats {
            ops: 0,
            timeouts: 0,
            sheds: 0,
            sync_violations: 0,
            elapsed: Duration::ZERO,
            latency: Histogram::new(),
        };
        assert_eq!(z.throughput(), 0.0);
    }
}
