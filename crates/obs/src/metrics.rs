//! Unified metrics registry: relaxed-atomic counters, gauges, and a
//! log-bucketed stop-the-world pause histogram.
//!
//! The registry is the aggregation point the evaluation chapters of the
//! paper assume but the reproduction previously lacked: `StwBreakdown`
//! (checkpoint crate), `HybridRoundStats` (checkpoint crate), kernel fault
//! counters, and `MemStats` (nvm crate) each lived in their own silo. The
//! registry adds the cross-cutting counters none of them carried —
//! per-generation backup page counts, NIC visibility-barrier gauges,
//! allocator journal high water — and one plain-value [`MetricsSnapshot`]
//! that the `System` facade fills in from all of them.
//!
//! Every metric is declared once, with its doc and its kind, in the table
//! at the `metrics!` invocation below. The table generates the registry's
//! atomics, [`MetricsRegistry::snapshot`], the [`MetricsSnapshot`] struct
//! and [`MetricsSnapshot::since`]; only the `record_*`/`set_*` methods that
//! write a metric are written by hand.
//!
//! Hot-path cost: every record method is `#[inline]` and writes through the
//! private `add`/`set`/`max` helpers — one relaxed atomic RMW each, and
//! nothing at all when the crate's `metrics` feature is off (callers never
//! need `cfg` guards). The measured pause-time delta between the two
//! configurations is reported in `EXPERIMENTS.md`.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

/// Whether the `metrics` feature compiled the recording paths in. Tested
/// only by the write helpers below, so every recording site is `cfg`-free
/// and reads as zero with the feature off.
const ON: bool = cfg!(feature = "metrics");

#[inline]
fn add(cell: &AtomicU64, n: u64) {
    if ON {
        cell.fetch_add(n, Relaxed);
    }
}

#[inline]
fn set(cell: &AtomicU64, v: u64) {
    if ON {
        cell.store(v, Relaxed);
    }
}

#[inline]
fn max(cell: &AtomicU64, v: u64) {
    if ON {
        cell.fetch_max(v, Relaxed);
    }
}

/// Number of log₂ buckets in [`PauseHistogram`]; covers 1 ns..2⁶³ ns.
const BUCKETS: usize = 64;

/// Number of per-shard service counters the registry carries. Shards
/// beyond this fold into their index modulo `NET_SHARDS` — fixed-size so
/// the hot-path record stays a single relaxed `fetch_add` with no
/// allocation or locking.
pub const NET_SHARDS: usize = 16;

/// Log-bucketed latency histogram for stop-the-world pauses.
///
/// Bucket *i* holds samples whose bit length is *i*, i.e. the range
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds exact zeros). Recording is
/// one relaxed `fetch_add` per sample; quantiles are resolved to a bucket's
/// upper bound, so a reported p99 of `1023 ns` means "at most 1.023 µs".
/// The maximum is tracked exactly.
#[derive(Debug)]
pub struct PauseHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for PauseHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PauseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one pause of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        let idx = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        add(&self.buckets[idx], 1);
        add(&self.sum_ns, ns);
        max(&self.max_ns, ns);
    }

    /// Returns a plain-value summary (count, mean, p50/p95/p99, max).
    pub fn stats(&self) -> PauseStats {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return if i == 0 { 0 } else { (1u64 << i) - 1 };
                }
            }
            u64::MAX
        };
        PauseStats {
            count,
            mean_ns: self.sum_ns.load(Relaxed).checked_div(count).unwrap_or(0),
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            max_ns: self.max_ns.load(Relaxed),
        }
    }
}

/// Plain-value summary of a [`PauseHistogram`].
///
/// Quantiles are bucket upper bounds (see the histogram docs); `max_ns` is
/// exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PauseStats {
    /// Number of pauses recorded.
    pub count: u64,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: u64,
    /// Median (bucket upper bound) in nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile (bucket upper bound) in nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile (bucket upper bound) in nanoseconds.
    pub p99_ns: u64,
    /// Largest single pause in nanoseconds (exact).
    pub max_ns: u64,
}

/// Expands the metric table. Each entry is its doc, then `name: kind`:
///
/// * `counter` — cumulative; [`MetricsSnapshot::since`] subtracts it;
/// * `gauge` — the latest value or a high-water mark; `since` carries it;
/// * `histogram` — a [`PauseHistogram`], snapshotted as [`PauseStats`] and
///   carried by `since`;
/// * `shards` — one counter per service shard ([`NET_SHARDS`] of them),
///   subtracted element-wise.
///
/// Entries under `registry` own a cell in [`MetricsRegistry`]. Entries
/// under `filled` exist only in the snapshot: their count lives in another
/// crate (kernel fault stats, NVM device stats, allocator journal) and the
/// `System` facade fills them in.
macro_rules! metrics {
    (@cell counter) => { AtomicU64 };
    (@cell gauge) => { AtomicU64 };
    (@cell histogram) => { PauseHistogram };
    (@cell shards) => { [AtomicU64; NET_SHARDS] };
    (@value counter) => { u64 };
    (@value gauge) => { u64 };
    (@value histogram) => { PauseStats };
    (@value shards) => { [u64; NET_SHARDS] };
    (@load histogram, $cell:expr) => { $cell.stats() };
    (@load shards, $cell:expr) => { std::array::from_fn(|i| $cell[i].load(Relaxed)) };
    (@load $kind:ident, $cell:expr) => { $cell.load(Relaxed) };
    (@since counter, $now:expr, $then:expr) => { $now - $then };
    (@since gauge, $now:expr, $then:expr) => { $now };
    (@since histogram, $now:expr, $then:expr) => { $now };
    (@since shards, $now:expr, $then:expr) => { std::array::from_fn(|i| $now[i] - $then[i]) };
    (
        registry { $($(#[$rdoc:meta])* $r:ident: $rk:ident,)* }
        filled { $($(#[$fdoc:meta])* $f:ident: $fk:ident,)* }
    ) => {
        /// Cross-cutting counters and gauges for the whole stack.
        ///
        /// One instance lives in the kernel (`Kernel::metrics`) and is
        /// shared by the checkpoint manager, the NIC and the replication
        /// and transaction services. All updates are relaxed atomics; with
        /// the `metrics` feature off every write compiles to nothing.
        #[derive(Debug, Default)]
        pub struct MetricsRegistry {
            $($(#[$rdoc])* $r: metrics!(@cell $rk),)*
        }

        impl MetricsRegistry {
            /// Snapshot of the registry-owned fields.
            ///
            /// The `filled` fields (kernel fault counters, device
            /// `MemStats`, allocator journal) are zero here; the `System`
            /// facade in `treesls` fills them in.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($r: metrics!(@load $rk, self.$r),)*
                    ..MetricsSnapshot::default()
                }
            }
        }

        /// Point-in-time plain-value view of the whole stack's telemetry.
        ///
        /// Registry-owned fields come from [`MetricsRegistry::snapshot`];
        /// the rest (faults, NVM traffic, allocator journal) are filled by
        /// the `System` facade, which can see those crates. Counters are
        /// cumulative; use [`since`](Self::since) for interval deltas.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$rdoc])* pub $r: metrics!(@value $rk),)*
            $($(#[$fdoc])* pub $f: metrics!(@value $fk),)*
        }

        impl MetricsSnapshot {
            /// Interval view `self − earlier`: counters (per-shard ones
            /// element-wise) subtract; gauges, high-water marks and the
            /// cumulative histogram summaries are carried from `self`.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($r: metrics!(@since $rk, self.$r, earlier.$r),)*
                    $($f: metrics!(@since $fk, self.$f, earlier.$f),)*
                }
            }
        }
    };
}

metrics! {
    registry {
        /// Checkpoints committed.
        checkpoints: counter,
        /// Whole-system restores completed.
        restores: counter,
        /// Pages migrated into DRAM by hybrid copy.
        hybrid_migrated_in: counter,
        /// Stop-and-copy page copies performed by hybrid copy.
        hybrid_sac_copies: counter,
        /// Idle pages evicted from DRAM by hybrid copy.
        hybrid_evicted: counter,
        /// Backup pages written under even global versions.
        backup_pages_even: counter,
        /// Backup pages written under odd global versions.
        backup_pages_odd: counter,
        /// NIC visibility barriers (one per NIC per committed round).
        ring_publishes: counter,
        /// Gauge: TX ring entries written but not yet consumed, summed
        /// across queues at the last visibility barrier.
        ring_depth: gauge,
        /// Checkpoint rounds that walked the whole capability tree.
        tree_full_walks: counter,
        /// Checkpoint rounds that walked only the dirty queue.
        tree_dirty_walks: counter,
        /// Dirty-queue entries drained across all walks.
        tree_dirty_drained: counter,
        /// Backup records (re)written by tree walks.
        tree_copied: counter,
        /// ORoots tombstoned by the epoch/refcount sweep.
        tree_tombstoned: counter,
        /// Gauge: dirty-queue ids pending after the last walk drained it.
        dirty_queue_depth: gauge,
        /// Gauge: cumulative sharded-store lock contention events.
        shard_contention: gauge,
        /// Gauge: cores parked by the last round (every registered core
        /// under full quiesce, 0 under the epoch flip).
        quiesced_cores: gauge,
        /// Epoch-concurrent rounds: O(1) flips whose copy phase ran with
        /// mutators live.
        epoch_flips: counter,
        /// In-line undo records appended instead of whole-page captures.
        inline_log_captures: counter,
        /// Encoded bytes appended to in-line undo logs.
        inline_log_bytes: counter,
        /// Gauge: nanoseconds the last round spent copying concurrently
        /// with mutators (outside the stop window).
        concurrent_copy_ns: gauge,
        /// Requests admitted by virtual NICs.
        net_requests: counter,
        /// Requests shed by NIC admission control (`Busy` replies).
        net_sheds: counter,
        /// Queue doorbells re-armed by NIC restore callbacks.
        net_rearms: counter,
        /// Packets dropped by the network fault model.
        net_faults_dropped: counter,
        /// Packets duplicated by the network fault model.
        net_faults_duplicated: counter,
        /// Packets reordered by the network fault model.
        net_faults_reordered: counter,
        /// Gauge: worst per-queue `writer − visible_writer` at the last
        /// visibility barrier.
        net_visible_lag_max: gauge,
        /// Gauge: summed `writer − visible_writer` across all queues at the
        /// last visibility barrier.
        net_visible_lag_sum: gauge,
        /// High-water mark of RX ring occupancy across all queues.
        net_rx_occupancy_hwm: gauge,
        /// High-water mark of TX ring occupancy across all queues.
        net_tx_occupancy_hwm: gauge,
        /// Requests served per service shard (index modulo [`NET_SHARDS`]).
        net_shard_requests: shards,
        /// Round-batched TX publishes (one flush + one writer store each).
        net_tx_batches: counter,
        /// Responses released across all batched publishes.
        net_tx_batched_responses: counter,
        /// Distribution of responses per TX publish (samples are counts,
        /// not nanoseconds).
        tx_batch: histogram,
        /// Checkpoint-round deltas shipped to replication peers.
        repl_rounds_shipped: counter,
        /// Backup records streamed to replication peers.
        repl_records_shipped: counter,
        /// Backup page images streamed to replication peers.
        repl_pages_shipped: counter,
        /// Wire bytes streamed to replication peers.
        repl_bytes_shipped: counter,
        /// Nanoseconds spent building round frames (deltas and
        /// snapshots) for replication peers.
        repl_build_ns: counter,
        /// Data pages read from NVM to build round deltas (eternal ring
        /// pages, read every round, excluded).
        repl_pages_read: counter,
        /// Nanoseconds spent waiting for a round's replication quorum.
        repl_quorum_wait_ns: counter,
        /// Round acknowledgements received from replicas.
        repl_acks: counter,
        /// Full-snapshot resyncs served after delta gaps or corruption.
        repl_resyncs: counter,
        /// Delta frames quarantined by replicas (corrupt slot / CRC
        /// mismatch).
        repl_quarantined: counter,
        /// Times the primary entered degraded mode (quorum lost).
        repl_degraded_entries: counter,
        /// Gauge: highest round durable on the configured quorum.
        repl_acked_round: gauge,
        /// Gauge: primary's committed round minus the quorum-durable round.
        repl_lag: gauge,
        /// Transactions committed (validation passed, publication flipped).
        txn_commits: counter,
        /// Transactions aborted (conflict or fatal store error at commit).
        txn_aborts: counter,
        /// Client retries of previously conflicted transactions.
        txn_conflict_retries: counter,
        /// Gauge: highest commit sequence covered by a committed checkpoint.
        txn_durable_seq: gauge,
        /// Begin-to-commit latency distribution for committed transactions.
        txn_latency: histogram,
        /// Stop-the-world pause distribution.
        pause: histogram,
    }
    filled {
        /// Copy-on-write page faults taken (kernel).
        write_faults: counter,
        /// Minor (mapping-only) faults taken (kernel).
        minor_faults: counter,
        /// Pages copied by CoW fault handling (kernel).
        cow_copies: counter,
        /// Epoch-fence conflict captures by writes racing an epoch flip's
        /// copy phase (kernel).
        epoch_conflicts: counter,
        /// Bytes written to the NVM device.
        nvm_bytes_written: counter,
        /// Bytes read from the NVM device.
        nvm_bytes_read: counter,
        /// Whole-page copies landing on the NVM device.
        nvm_page_copies: counter,
        /// Gauge: high-water mark of allocator undo-journal records per
        /// transaction.
        journal_high_water: gauge,
        /// Gauge: allocator-journal records truncated by the last recovery.
        journal_truncated: gauge,
    }
}

impl MetricsRegistry {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed checkpoint and its total stop-the-world pause.
    #[inline]
    pub fn record_checkpoint(&self, total_pause_ns: u64) {
        add(&self.checkpoints, 1);
        self.pause.record(total_pause_ns);
    }

    /// Records a completed whole-system restore.
    #[inline]
    pub fn record_restore(&self) {
        add(&self.restores, 1);
    }

    /// Records one hybrid-copy round's page movement.
    #[inline]
    pub fn record_hybrid(&self, migrated_in: u64, sac_copies: u64, evicted: u64) {
        add(&self.hybrid_migrated_in, migrated_in);
        add(&self.hybrid_sac_copies, sac_copies);
        add(&self.hybrid_evicted, evicted);
    }

    /// Records one backup page written under the given version's parity
    /// (the dual-generation page pair of §4.2).
    #[inline]
    pub fn record_backup_page(&self, version: u64) {
        let parity = if version & 1 == 0 { &self.backup_pages_even } else { &self.backup_pages_odd };
        add(parity, 1);
    }

    /// Records one capability-tree walk: whether it was a full walk or a
    /// dirty-queue walk, how many queue entries were drained, and how many
    /// backup records were copied / tombstoned.
    #[inline]
    pub fn record_tree_walk(&self, full: bool, drained: u64, copied: u64, tombstoned: u64) {
        let walks = if full { &self.tree_full_walks } else { &self.tree_dirty_walks };
        add(walks, 1);
        add(&self.tree_dirty_drained, drained);
        add(&self.tree_copied, copied);
        add(&self.tree_tombstoned, tombstoned);
    }

    /// Updates the checkpoint-path gauges: residual dirty-queue depth (ids
    /// pushed since the walk drained it) and cumulative sharded-store lock
    /// contention, both sampled at the end of each round.
    #[inline]
    pub fn set_ckpt_gauges(&self, dirty_queue_depth: u64, shard_contention: u64) {
        set(&self.dirty_queue_depth, dirty_queue_depth);
        set(&self.shard_contention, shard_contention);
    }

    /// Updates the quiescence gauge: how many cores the last round
    /// actually parked (every core under full quiesce, 0 under the epoch
    /// flip).
    #[inline]
    pub fn set_quiesced_cores(&self, cores: u64) {
        set(&self.quiesced_cores, cores);
    }

    /// Records one epoch flip: an O(1) stop window that armed the fence,
    /// cut the dirty queue, and resumed — leaving the copy phase to run
    /// concurrently with mutators.
    #[inline]
    pub fn record_epoch_flip(&self) {
        add(&self.epoch_flips, 1);
    }

    /// Records one in-line undo record appended by the conflict path (a
    /// sub-cache-line first write that logged its pre-image instead of
    /// duplicating the whole page). `bytes` is the encoded record size.
    #[inline]
    pub fn record_inline_log(&self, bytes: u64) {
        add(&self.inline_log_captures, 1);
        add(&self.inline_log_bytes, bytes);
    }

    /// Updates the concurrent-copy gauge: nanoseconds the last round spent
    /// draining the cut and copying pages *outside* the stop window,
    /// overlapped with mutators.
    #[inline]
    pub fn set_concurrent_copy_ns(&self, ns: u64) {
        set(&self.concurrent_copy_ns, ns);
    }

    /// Records one request admitted by a virtual NIC.
    #[inline]
    pub fn record_net_request(&self) {
        add(&self.net_requests, 1);
    }

    /// Records one request shed by NIC admission control (credit budget
    /// exhausted or RX descriptor ring full → explicit `Busy` reply).
    #[inline]
    pub fn record_net_shed(&self) {
        add(&self.net_sheds, 1);
    }

    /// Records queue doorbells re-armed by a NIC restore callback.
    #[inline]
    pub fn record_net_rearm(&self, queues: u64) {
        add(&self.net_rearms, queues);
    }

    /// Records packets perturbed by the network fault model.
    #[inline]
    pub fn record_net_faults(&self, dropped: u64, duplicated: u64, reordered: u64) {
        add(&self.net_faults_dropped, dropped);
        add(&self.net_faults_duplicated, duplicated);
        add(&self.net_faults_reordered, reordered);
    }

    /// Records one NIC visibility barrier, sampled by the NIC's checkpoint
    /// callback after the barrier's flush. Sets the TX depth and
    /// visible-lag gauges (`writer − visible_writer` merged across queues:
    /// the worst queue and the whole-NIC sum) and folds ring occupancies
    /// into the high-water marks.
    #[inline]
    pub fn record_net_barrier(
        &self,
        tx_depth: u64,
        lag_max: u64,
        lag_sum: u64,
        rx_occupancy: u64,
        tx_occupancy: u64,
    ) {
        add(&self.ring_publishes, 1);
        set(&self.ring_depth, tx_depth);
        set(&self.net_visible_lag_max, lag_max);
        set(&self.net_visible_lag_sum, lag_sum);
        max(&self.net_rx_occupancy_hwm, rx_occupancy);
        max(&self.net_tx_occupancy_hwm, tx_occupancy);
    }

    /// Records one round-batched TX publish by a poll-mode service shard:
    /// `responses` requests were served and released with a single ring
    /// publish (one persistence barrier, one writer store). Attributes
    /// the served count to `shard` (folded modulo [`NET_SHARDS`]) and
    /// feeds the batch-size histogram — samples are *response counts*,
    /// not nanoseconds, so read its quantiles as "responses per publish".
    #[inline]
    pub fn record_net_batch(&self, shard: usize, responses: u64) {
        add(&self.net_shard_requests[shard % NET_SHARDS], responses);
        add(&self.net_tx_batches, 1);
        add(&self.net_tx_batched_responses, responses);
        self.tx_batch.record(responses);
    }

    /// Records one checkpoint-round delta shipped to replication peers.
    #[inline]
    pub fn record_repl_ship(&self, records: u64, pages: u64, bytes: u64) {
        add(&self.repl_rounds_shipped, 1);
        add(&self.repl_records_shipped, records);
        add(&self.repl_pages_shipped, pages);
        add(&self.repl_bytes_shipped, bytes);
    }

    /// Records where one replicated round's time went: `build_ns`
    /// building its frames (of which `pages_read` data pages were read),
    /// `wait_ns` waiting for the quorum.
    #[inline]
    pub fn record_repl_round(&self, build_ns: u64, pages_read: u64, wait_ns: u64) {
        add(&self.repl_build_ns, build_ns);
        add(&self.repl_pages_read, pages_read);
        add(&self.repl_quorum_wait_ns, wait_ns);
    }

    /// Records one round acknowledgement received from a replica.
    #[inline]
    pub fn record_repl_ack(&self) {
        add(&self.repl_acks, 1);
    }

    /// Records one full-snapshot resync (requested by a replica after a
    /// delta gap or corrupt frame, served by the primary).
    #[inline]
    pub fn record_repl_resync(&self) {
        add(&self.repl_resyncs, 1);
    }

    /// Records one delta frame quarantined by a replica (`Corrupt` ring
    /// slot or payload CRC mismatch — never a panic, always a resync).
    #[inline]
    pub fn record_repl_quarantine(&self) {
        add(&self.repl_quarantined, 1);
    }

    /// Records the primary entering degraded mode (replication quorum
    /// lost; new write acks are shed until it returns).
    #[inline]
    pub fn record_repl_degraded(&self) {
        add(&self.repl_degraded_entries, 1);
    }

    /// Updates the replication gauges: the highest quorum-durable round
    /// and the primary's lag behind it (`committed_round − durable_round`).
    #[inline]
    pub fn set_repl_gauges(&self, acked_round: u64, lag: u64) {
        set(&self.repl_acked_round, acked_round);
        set(&self.repl_lag, lag);
    }

    /// Records one committed transaction and its begin-to-commit latency.
    #[inline]
    pub fn record_txn_commit(&self, latency_ns: u64) {
        add(&self.txn_commits, 1);
        self.txn_latency.record(latency_ns);
    }

    /// Records one aborted transaction (first-committer-wins validation
    /// failure, or a fatal store error at commit).
    #[inline]
    pub fn record_txn_abort(&self) {
        add(&self.txn_aborts, 1);
    }

    /// Records one client retry of a previously conflicted transaction
    /// (a begin frame carrying the retry flag).
    #[inline]
    pub fn record_txn_retry(&self) {
        add(&self.txn_conflict_retries, 1);
    }

    /// Updates the transaction durability gauge: the highest commit
    /// sequence covered by a committed checkpoint round.
    #[inline]
    pub fn set_txn_durable(&self, seq: u64) {
        set(&self.txn_durable_seq, seq);
    }

    /// The stop-the-world pause histogram.
    pub fn pause_histogram(&self) -> &PauseHistogram {
        &self.pause
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "metrics")]
    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = PauseHistogram::new();
        for _ in 0..99 {
            h.record(1000); // bucket 10, upper bound 1023
        }
        h.record(1_000_000); // bucket 20, upper bound 1048575
        let s = h.stats();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 1023);
        assert_eq!(s.p95_ns, 1023);
        assert_eq!(s.p99_ns, 1023);
        assert_eq!(s.max_ns, 1_000_000);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn histogram_p99_catches_the_tail() {
        let h = PauseHistogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(60_000);
        }
        let s = h.stats();
        assert_eq!(s.p50_ns, 127);
        assert!(s.p99_ns >= 60_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = PauseHistogram::new().stats();
        assert_eq!(s, PauseStats::default());
    }

    #[test]
    fn registry_snapshot_and_delta() {
        let r = MetricsRegistry::new();
        r.record_checkpoint(500_000);
        r.record_hybrid(3, 2, 1);
        r.record_backup_page(4);
        r.record_backup_page(5);
        r.record_net_request();
        r.record_net_shed();
        r.record_net_barrier(8, 3, 5, 7, 9);
        r.record_net_barrier(7, 2, 4, 6, 11);
        r.set_quiesced_cores(3);
        r.record_epoch_flip();
        r.record_inline_log(24);
        r.record_inline_log(40);
        r.set_concurrent_copy_ns(12_345);
        r.record_net_batch(2, 10);
        r.record_net_batch(2, 6);
        r.record_net_batch(17, 4); // folds to shard 1
        r.record_txn_commit(2_000);
        r.record_txn_commit(3_000);
        r.record_txn_abort();
        r.record_txn_retry();
        r.set_txn_durable(7);
        let a = r.snapshot();
        if ON {
            assert_eq!(a.checkpoints, 1);
            assert_eq!(a.hybrid_migrated_in, 3);
            assert_eq!(a.backup_pages_even, 1);
            assert_eq!(a.backup_pages_odd, 1);
            assert_eq!(a.ring_publishes, 2);
            assert_eq!(a.ring_depth, 7);
            assert_eq!(a.net_requests, 1);
            assert_eq!(a.net_sheds, 1);
            // Lag gauges carry the latest barrier; occupancies are
            // high-water marks across barriers.
            assert_eq!(a.net_visible_lag_max, 2);
            assert_eq!(a.net_visible_lag_sum, 4);
            assert_eq!(a.net_rx_occupancy_hwm, 7);
            assert_eq!(a.net_tx_occupancy_hwm, 11);
            assert_eq!(a.quiesced_cores, 3);
            assert_eq!(a.epoch_flips, 1);
            assert_eq!(a.inline_log_captures, 2);
            assert_eq!(a.inline_log_bytes, 64);
            assert_eq!(a.concurrent_copy_ns, 12_345);
            assert_eq!(a.pause.count, 1);
            assert_eq!(a.net_shard_requests[2], 16);
            assert_eq!(a.net_shard_requests[1], 4);
            assert_eq!(a.net_tx_batches, 3);
            assert_eq!(a.net_tx_batched_responses, 20);
            // Batch histogram samples are response counts.
            assert_eq!(a.tx_batch.count, 3);
            assert_eq!(a.tx_batch.max_ns, 10);
            assert_eq!(a.txn_commits, 2);
            assert_eq!(a.txn_aborts, 1);
            assert_eq!(a.txn_conflict_retries, 1);
            assert_eq!(a.txn_durable_seq, 7);
            assert_eq!(a.txn_latency.count, 2);
        } else {
            assert_eq!(a, MetricsSnapshot::default());
        }
        r.record_checkpoint(600_000);
        r.record_net_batch(2, 8);
        let d = r.snapshot().since(&a);
        if ON {
            assert_eq!(d.checkpoints, 1);
            assert_eq!(d.hybrid_migrated_in, 0);
            assert_eq!(d.net_shard_requests[2], 8);
            assert_eq!(d.net_shard_requests[1], 0);
            assert_eq!(d.net_tx_batches, 1);
        }
    }
}
