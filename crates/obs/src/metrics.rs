//! Unified metrics registry: relaxed-atomic counters, gauges, and a
//! log-bucketed stop-the-world pause histogram.
//!
//! The registry is the aggregation point the evaluation chapters of the
//! paper assume but the reproduction previously lacked: `StwBreakdown`
//! (checkpoint crate), `HybridRoundStats` (checkpoint crate), kernel fault
//! counters, and `MemStats` (nvm crate) each lived in their own silo. The
//! registry adds the cross-cutting counters none of them carried —
//! per-generation backup page counts, ext-sync ring depth and visible lag,
//! allocator journal high water — and one plain-value [`MetricsSnapshot`]
//! that the `System` facade fills in from all of them.
//!
//! Hot-path cost: every record method is `#[inline]`, performs at most one
//! relaxed atomic RMW, and compiles to an empty stub when the crate's
//! `metrics` feature is off (callers never need `cfg` guards). The
//! measured pause-time delta between the two configurations is reported in
//! `EXPERIMENTS.md`.

use std::sync::atomic::AtomicU64;
#[cfg(feature = "metrics")]
use std::sync::atomic::Ordering;

use crate::json::Json;

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
#[cfg_attr(not(feature = "metrics"), allow(dead_code))]
pub struct PauseHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
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
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one pause of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        #[cfg(feature = "metrics")]
        {
            let idx = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum_ns.fetch_add(ns, Ordering::Relaxed);
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = ns;
    }

    /// Returns a plain-value summary (count, mean, p50/p95/p99, max).
    pub fn stats(&self) -> PauseStats {
        #[cfg(feature = "metrics")]
        {
            let counts: Vec<u64> =
                self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            let count: u64 = counts.iter().sum();
            let sum = self.sum_ns.load(Ordering::Relaxed);
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
                mean_ns: sum.checked_div(count).unwrap_or(0),
                p50_ns: quantile(0.50),
                p95_ns: quantile(0.95),
                p99_ns: quantile(0.99),
                max_ns: self.max_ns.load(Ordering::Relaxed),
            }
        }
        #[cfg(not(feature = "metrics"))]
        PauseStats::default()
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

impl PauseStats {
    /// Renders the summary as a JSON object (nanosecond integers).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::from(self.count)),
            ("mean_ns".into(), Json::from(self.mean_ns)),
            ("p50_ns".into(), Json::from(self.p50_ns)),
            ("p95_ns".into(), Json::from(self.p95_ns)),
            ("p99_ns".into(), Json::from(self.p99_ns)),
            ("max_ns".into(), Json::from(self.max_ns)),
        ])
    }
}

/// Cross-cutting counters and gauges for the whole stack.
///
/// One instance lives in the kernel (`Kernel::metrics`) and is shared by
/// the checkpoint manager and the external-synchrony layer. All updates
/// are relaxed atomics; with the `metrics` feature off every method body
/// is empty.
#[derive(Debug, Default)]
#[cfg_attr(not(feature = "metrics"), allow(dead_code))]
pub struct MetricsRegistry {
    checkpoints: AtomicU64,
    restores: AtomicU64,
    hybrid_migrated_in: AtomicU64,
    hybrid_sac_copies: AtomicU64,
    hybrid_evicted: AtomicU64,
    backup_pages_even: AtomicU64,
    backup_pages_odd: AtomicU64,
    ring_publishes: AtomicU64,
    ring_depth: AtomicU64,
    ring_visible_lag: AtomicU64,
    tree_full_walks: AtomicU64,
    tree_dirty_walks: AtomicU64,
    tree_dirty_drained: AtomicU64,
    tree_copied: AtomicU64,
    tree_offloaded: AtomicU64,
    tree_tombstoned: AtomicU64,
    dirty_queue_depth: AtomicU64,
    shard_contention: AtomicU64,
    quiesced_cores: AtomicU64,
    epoch_conflicts: AtomicU64,
    epoch_flips: AtomicU64,
    inline_log_captures: AtomicU64,
    inline_log_bytes: AtomicU64,
    concurrent_copy_ns: AtomicU64,
    net_requests: AtomicU64,
    net_sheds: AtomicU64,
    net_rearms: AtomicU64,
    net_faults_dropped: AtomicU64,
    net_faults_duplicated: AtomicU64,
    net_faults_reordered: AtomicU64,
    net_visible_lag_max: AtomicU64,
    net_visible_lag_sum: AtomicU64,
    net_rx_occupancy_hwm: AtomicU64,
    net_tx_occupancy_hwm: AtomicU64,
    net_shard_requests: [AtomicU64; NET_SHARDS],
    net_tx_batches: AtomicU64,
    net_tx_batched_responses: AtomicU64,
    tx_batch: PauseHistogram,
    repl_rounds_shipped: AtomicU64,
    repl_records_shipped: AtomicU64,
    repl_pages_shipped: AtomicU64,
    repl_bytes_shipped: AtomicU64,
    repl_acks: AtomicU64,
    repl_resyncs: AtomicU64,
    repl_quarantined: AtomicU64,
    repl_degraded_entries: AtomicU64,
    repl_acked_round: AtomicU64,
    repl_lag: AtomicU64,
    txn_commits: AtomicU64,
    txn_aborts: AtomicU64,
    txn_conflict_retries: AtomicU64,
    txn_durable_seq: AtomicU64,
    txn_latency: PauseHistogram,
    pause: PauseHistogram,
}

impl MetricsRegistry {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed checkpoint and its total stop-the-world pause.
    #[inline]
    pub fn record_checkpoint(&self, total_pause_ns: u64) {
        #[cfg(feature = "metrics")]
        {
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
            self.pause.record(total_pause_ns);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = total_pause_ns;
    }

    /// Records a completed whole-system restore.
    #[inline]
    pub fn record_restore(&self) {
        #[cfg(feature = "metrics")]
        self.restores.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one hybrid-copy round's page movement.
    #[inline]
    pub fn record_hybrid(&self, migrated_in: u64, sac_copies: u64, evicted: u64) {
        #[cfg(feature = "metrics")]
        {
            self.hybrid_migrated_in.fetch_add(migrated_in, Ordering::Relaxed);
            self.hybrid_sac_copies.fetch_add(sac_copies, Ordering::Relaxed);
            self.hybrid_evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (migrated_in, sac_copies, evicted);
    }

    /// Records one backup page written under the given version's parity
    /// (the dual-generation page pair of §4.2).
    #[inline]
    pub fn record_backup_page(&self, version: u64) {
        #[cfg(feature = "metrics")]
        if version & 1 == 0 {
            self.backup_pages_even.fetch_add(1, Ordering::Relaxed);
        } else {
            self.backup_pages_odd.fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = version;
    }

    /// Records one ext-sync ring request published by a client.
    #[inline]
    pub fn record_ring_publish(&self) {
        #[cfg(feature = "metrics")]
        self.ring_publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the ext-sync ring gauges (sampled at each checkpoint
    /// callback).
    #[inline]
    pub fn set_ring_gauges(&self, depth: u64, visible_lag: u64) {
        #[cfg(feature = "metrics")]
        {
            self.ring_depth.store(depth, Ordering::Relaxed);
            self.ring_visible_lag.store(visible_lag, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (depth, visible_lag);
    }

    /// Records one capability-tree walk: whether it was a full walk or a
    /// dirty-queue walk, how many queue entries were drained, and how many
    /// backup records were copied / built by offload workers / tombstoned.
    #[inline]
    pub fn record_tree_walk(
        &self,
        full: bool,
        drained: u64,
        copied: u64,
        offloaded: u64,
        tombstoned: u64,
    ) {
        #[cfg(feature = "metrics")]
        {
            if full {
                self.tree_full_walks.fetch_add(1, Ordering::Relaxed);
            } else {
                self.tree_dirty_walks.fetch_add(1, Ordering::Relaxed);
            }
            self.tree_dirty_drained.fetch_add(drained, Ordering::Relaxed);
            self.tree_copied.fetch_add(copied, Ordering::Relaxed);
            self.tree_offloaded.fetch_add(offloaded, Ordering::Relaxed);
            self.tree_tombstoned.fetch_add(tombstoned, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (full, drained, copied, offloaded, tombstoned);
    }

    /// Updates the checkpoint-path gauges: residual dirty-queue depth (ids
    /// pushed since the walk drained it) and cumulative sharded-store lock
    /// contention, both sampled at the end of each round.
    #[inline]
    pub fn set_ckpt_gauges(&self, dirty_queue_depth: u64, shard_contention: u64) {
        #[cfg(feature = "metrics")]
        {
            self.dirty_queue_depth.store(dirty_queue_depth, Ordering::Relaxed);
            self.shard_contention.store(shard_contention, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (dirty_queue_depth, shard_contention);
    }

    /// Updates the quiescence gauge: how many cores the last round
    /// actually parked (every core under full quiesce, 0 under the epoch
    /// flip).
    #[inline]
    pub fn set_quiesced_cores(&self, cores: u64) {
        #[cfg(feature = "metrics")]
        self.quiesced_cores.store(cores, Ordering::Relaxed);
        #[cfg(not(feature = "metrics"))]
        let _ = cores;
    }

    /// Records one epoch-fence conflict capture: a write racing an epoch
    /// flip's copy phase hit a page whose round image was not yet
    /// preserved, and the fault path preserved it in-line.
    #[inline]
    pub fn record_epoch_conflict(&self) {
        #[cfg(feature = "metrics")]
        self.epoch_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one epoch flip: an O(1) stop window that armed the fence,
    /// cut the dirty queue, and resumed — leaving the copy phase to run
    /// concurrently with mutators.
    #[inline]
    pub fn record_epoch_flip(&self) {
        #[cfg(feature = "metrics")]
        self.epoch_flips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one in-line undo record appended by the conflict path (a
    /// sub-cache-line first write that logged its pre-image instead of
    /// duplicating the whole page). `bytes` is the encoded record size.
    #[inline]
    pub fn record_inline_log(&self, bytes: u64) {
        #[cfg(feature = "metrics")]
        {
            self.inline_log_captures.fetch_add(1, Ordering::Relaxed);
            self.inline_log_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = bytes;
    }

    /// Updates the concurrent-copy gauge: nanoseconds the last round spent
    /// draining the cut and copying pages *outside* the stop window,
    /// overlapped with mutators.
    #[inline]
    pub fn set_concurrent_copy_ns(&self, ns: u64) {
        #[cfg(feature = "metrics")]
        self.concurrent_copy_ns.store(ns, Ordering::Relaxed);
        #[cfg(not(feature = "metrics"))]
        let _ = ns;
    }

    /// Records one request admitted by a virtual NIC.
    #[inline]
    pub fn record_net_request(&self) {
        #[cfg(feature = "metrics")]
        self.net_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request shed by NIC admission control (credit budget
    /// exhausted or RX descriptor ring full → explicit `Busy` reply).
    #[inline]
    pub fn record_net_shed(&self) {
        #[cfg(feature = "metrics")]
        self.net_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records queue doorbells re-armed by a NIC restore callback.
    #[inline]
    pub fn record_net_rearm(&self, queues: u64) {
        #[cfg(feature = "metrics")]
        self.net_rearms.fetch_add(queues, Ordering::Relaxed);
        #[cfg(not(feature = "metrics"))]
        let _ = queues;
    }

    /// Records packets perturbed by the network fault model.
    #[inline]
    pub fn record_net_faults(&self, dropped: u64, duplicated: u64, reordered: u64) {
        #[cfg(feature = "metrics")]
        {
            self.net_faults_dropped.fetch_add(dropped, Ordering::Relaxed);
            self.net_faults_duplicated.fetch_add(duplicated, Ordering::Relaxed);
            self.net_faults_reordered.fetch_add(reordered, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (dropped, duplicated, reordered);
    }

    /// Updates the per-commit visible-lag gauges (`writer −
    /// visible_writer` merged across queues: the worst queue and the
    /// whole-NIC sum) and folds ring occupancies into the high-water
    /// marks. Sampled by the NIC's checkpoint callback after the
    /// visibility barrier.
    #[inline]
    pub fn record_net_barrier(&self, lag_max: u64, lag_sum: u64, rx_occupancy: u64, tx_occupancy: u64) {
        #[cfg(feature = "metrics")]
        {
            self.net_visible_lag_max.store(lag_max, Ordering::Relaxed);
            self.net_visible_lag_sum.store(lag_sum, Ordering::Relaxed);
            self.net_rx_occupancy_hwm.fetch_max(rx_occupancy, Ordering::Relaxed);
            self.net_tx_occupancy_hwm.fetch_max(tx_occupancy, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (lag_max, lag_sum, rx_occupancy, tx_occupancy);
    }

    /// Records one round-batched TX publish by a poll-mode service shard:
    /// `responses` requests were served and released with a single ring
    /// publish (one persistence barrier, one writer store). Attributes
    /// the served count to `shard` (folded modulo [`NET_SHARDS`]) and
    /// feeds the batch-size histogram — samples are *response counts*,
    /// not nanoseconds, so read its quantiles as "responses per publish".
    #[inline]
    pub fn record_net_batch(&self, shard: usize, responses: u64) {
        #[cfg(feature = "metrics")]
        {
            self.net_shard_requests[shard % NET_SHARDS].fetch_add(responses, Ordering::Relaxed);
            self.net_tx_batches.fetch_add(1, Ordering::Relaxed);
            self.net_tx_batched_responses.fetch_add(responses, Ordering::Relaxed);
            self.tx_batch.record(responses);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (shard, responses);
    }

    /// Records one checkpoint-round delta shipped to replication peers.
    #[inline]
    pub fn record_repl_ship(&self, records: u64, pages: u64, bytes: u64) {
        #[cfg(feature = "metrics")]
        {
            self.repl_rounds_shipped.fetch_add(1, Ordering::Relaxed);
            self.repl_records_shipped.fetch_add(records, Ordering::Relaxed);
            self.repl_pages_shipped.fetch_add(pages, Ordering::Relaxed);
            self.repl_bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (records, pages, bytes);
    }

    /// Records one round acknowledgement received from a replica.
    #[inline]
    pub fn record_repl_ack(&self) {
        #[cfg(feature = "metrics")]
        self.repl_acks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one full-snapshot resync (requested by a replica after a
    /// delta gap or corrupt frame, served by the primary).
    #[inline]
    pub fn record_repl_resync(&self) {
        #[cfg(feature = "metrics")]
        self.repl_resyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one delta frame quarantined by a replica (`Corrupt` ring
    /// slot or payload CRC mismatch — never a panic, always a resync).
    #[inline]
    pub fn record_repl_quarantine(&self) {
        #[cfg(feature = "metrics")]
        self.repl_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the primary entering degraded mode (replication quorum
    /// lost; new write acks are shed until it returns).
    #[inline]
    pub fn record_repl_degraded(&self) {
        #[cfg(feature = "metrics")]
        self.repl_degraded_entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the replication gauges: the highest quorum-durable round
    /// and the primary's lag behind it (`committed_round − durable_round`).
    #[inline]
    pub fn set_repl_gauges(&self, acked_round: u64, lag: u64) {
        #[cfg(feature = "metrics")]
        {
            self.repl_acked_round.store(acked_round, Ordering::Relaxed);
            self.repl_lag.store(lag, Ordering::Relaxed);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (acked_round, lag);
    }

    /// Records one committed transaction and its begin-to-commit latency.
    #[inline]
    pub fn record_txn_commit(&self, latency_ns: u64) {
        #[cfg(feature = "metrics")]
        {
            self.txn_commits.fetch_add(1, Ordering::Relaxed);
            self.txn_latency.record(latency_ns);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = latency_ns;
    }

    /// Records one aborted transaction (first-committer-wins validation
    /// failure, or a fatal store error at commit).
    #[inline]
    pub fn record_txn_abort(&self) {
        #[cfg(feature = "metrics")]
        self.txn_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one client retry of a previously conflicted transaction
    /// (a begin frame carrying the retry flag).
    #[inline]
    pub fn record_txn_retry(&self) {
        #[cfg(feature = "metrics")]
        self.txn_conflict_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the transaction durability gauge: the highest commit
    /// sequence covered by a committed checkpoint round.
    #[inline]
    pub fn set_txn_durable(&self, seq: u64) {
        #[cfg(feature = "metrics")]
        self.txn_durable_seq.store(seq, Ordering::Relaxed);
        #[cfg(not(feature = "metrics"))]
        let _ = seq;
    }

    /// The stop-the-world pause histogram.
    pub fn pause_histogram(&self) -> &PauseHistogram {
        &self.pause
    }

    /// Snapshot of the registry-owned fields.
    ///
    /// Fields sourced from other crates (kernel fault counters, device
    /// `MemStats`, allocator journal) are zero here; the `System` facade in
    /// `treesls` fills them in.
    pub fn snapshot(&self) -> MetricsSnapshot {
        #[cfg(feature = "metrics")]
        {
            let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
            MetricsSnapshot {
                checkpoints: l(&self.checkpoints),
                restores: l(&self.restores),
                hybrid_migrated_in: l(&self.hybrid_migrated_in),
                hybrid_sac_copies: l(&self.hybrid_sac_copies),
                hybrid_evicted: l(&self.hybrid_evicted),
                backup_pages_even: l(&self.backup_pages_even),
                backup_pages_odd: l(&self.backup_pages_odd),
                ring_publishes: l(&self.ring_publishes),
                ring_depth: l(&self.ring_depth),
                ring_visible_lag: l(&self.ring_visible_lag),
                tree_full_walks: l(&self.tree_full_walks),
                tree_dirty_walks: l(&self.tree_dirty_walks),
                tree_dirty_drained: l(&self.tree_dirty_drained),
                tree_copied: l(&self.tree_copied),
                tree_offloaded: l(&self.tree_offloaded),
                tree_tombstoned: l(&self.tree_tombstoned),
                dirty_queue_depth: l(&self.dirty_queue_depth),
                shard_contention: l(&self.shard_contention),
                quiesced_cores: l(&self.quiesced_cores),
                epoch_conflicts: l(&self.epoch_conflicts),
                epoch_flips: l(&self.epoch_flips),
                inline_log_captures: l(&self.inline_log_captures),
                inline_log_bytes: l(&self.inline_log_bytes),
                concurrent_copy_ns: l(&self.concurrent_copy_ns),
                net_requests: l(&self.net_requests),
                net_sheds: l(&self.net_sheds),
                net_rearms: l(&self.net_rearms),
                net_faults_dropped: l(&self.net_faults_dropped),
                net_faults_duplicated: l(&self.net_faults_duplicated),
                net_faults_reordered: l(&self.net_faults_reordered),
                net_visible_lag_max: l(&self.net_visible_lag_max),
                net_visible_lag_sum: l(&self.net_visible_lag_sum),
                net_rx_occupancy_hwm: l(&self.net_rx_occupancy_hwm),
                net_tx_occupancy_hwm: l(&self.net_tx_occupancy_hwm),
                net_shard_requests: std::array::from_fn(|i| l(&self.net_shard_requests[i])),
                net_tx_batches: l(&self.net_tx_batches),
                net_tx_batched_responses: l(&self.net_tx_batched_responses),
                tx_batch: self.tx_batch.stats(),
                repl_rounds_shipped: l(&self.repl_rounds_shipped),
                repl_records_shipped: l(&self.repl_records_shipped),
                repl_pages_shipped: l(&self.repl_pages_shipped),
                repl_bytes_shipped: l(&self.repl_bytes_shipped),
                repl_acks: l(&self.repl_acks),
                repl_resyncs: l(&self.repl_resyncs),
                repl_quarantined: l(&self.repl_quarantined),
                repl_degraded_entries: l(&self.repl_degraded_entries),
                repl_acked_round: l(&self.repl_acked_round),
                repl_lag: l(&self.repl_lag),
                txn_commits: l(&self.txn_commits),
                txn_aborts: l(&self.txn_aborts),
                txn_conflict_retries: l(&self.txn_conflict_retries),
                txn_durable_seq: l(&self.txn_durable_seq),
                txn_latency: self.txn_latency.stats(),
                pause: self.pause.stats(),
                ..MetricsSnapshot::default()
            }
        }
        #[cfg(not(feature = "metrics"))]
        MetricsSnapshot::default()
    }
}

/// Point-in-time plain-value view of the whole stack's telemetry.
///
/// Registry-owned fields come from [`MetricsRegistry::snapshot`]; the
/// remaining sections (faults, NVM traffic, allocator journal) are filled
/// by the `System` facade, which can see those crates. All counters are
/// cumulative; use [`since`](Self::since) for interval deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Whole-system restores completed.
    pub restores: u64,
    /// Pages migrated into DRAM by hybrid copy.
    pub hybrid_migrated_in: u64,
    /// Stop-and-copy page copies performed by hybrid copy.
    pub hybrid_sac_copies: u64,
    /// Idle pages evicted from DRAM by hybrid copy.
    pub hybrid_evicted: u64,
    /// Backup pages written under even global versions.
    pub backup_pages_even: u64,
    /// Backup pages written under odd global versions.
    pub backup_pages_odd: u64,
    /// Ext-sync ring requests published.
    pub ring_publishes: u64,
    /// Gauge: ring entries written but not yet consumed.
    pub ring_depth: u64,
    /// Gauge: ring entries written but not yet externally visible.
    pub ring_visible_lag: u64,
    /// Checkpoint rounds that walked the whole capability tree.
    pub tree_full_walks: u64,
    /// Checkpoint rounds that walked only the dirty queue.
    pub tree_dirty_walks: u64,
    /// Dirty-queue entries drained across all walks.
    pub tree_dirty_drained: u64,
    /// Backup records (re)written by tree walks.
    pub tree_copied: u64,
    /// Backup records built by offloaded (non-leader) cores.
    pub tree_offloaded: u64,
    /// ORoots tombstoned by the epoch/refcount sweep.
    pub tree_tombstoned: u64,
    /// Gauge: dirty-queue ids pending after the last walk drained it.
    pub dirty_queue_depth: u64,
    /// Gauge: cumulative sharded-store lock contention events.
    pub shard_contention: u64,
    /// Gauge: cores parked by the last round (every registered core
    /// under full quiesce, 0 under the epoch flip).
    pub quiesced_cores: u64,
    /// Epoch-fence conflict captures by writes racing an epoch flip's
    /// copy phase.
    pub epoch_conflicts: u64,
    /// Epoch-concurrent rounds: O(1) flips whose copy phase ran with
    /// mutators live.
    pub epoch_flips: u64,
    /// In-line undo records appended instead of whole-page captures.
    pub inline_log_captures: u64,
    /// Encoded bytes appended to in-line undo logs.
    pub inline_log_bytes: u64,
    /// Gauge: nanoseconds the last round spent copying concurrently with
    /// mutators (outside the stop window).
    pub concurrent_copy_ns: u64,
    /// Requests admitted by virtual NICs.
    pub net_requests: u64,
    /// Requests shed by NIC admission control (`Busy` replies).
    pub net_sheds: u64,
    /// Queue doorbells re-armed by NIC restore callbacks.
    pub net_rearms: u64,
    /// Packets dropped by the network fault model.
    pub net_faults_dropped: u64,
    /// Packets duplicated by the network fault model.
    pub net_faults_duplicated: u64,
    /// Packets reordered by the network fault model.
    pub net_faults_reordered: u64,
    /// Gauge: worst per-queue `writer − visible_writer` at the last
    /// visibility barrier.
    pub net_visible_lag_max: u64,
    /// Gauge: summed `writer − visible_writer` across all queues at the
    /// last visibility barrier.
    pub net_visible_lag_sum: u64,
    /// High-water mark of RX ring occupancy across all queues.
    pub net_rx_occupancy_hwm: u64,
    /// High-water mark of TX ring occupancy across all queues.
    pub net_tx_occupancy_hwm: u64,
    /// Requests served per service shard (index modulo [`NET_SHARDS`]).
    pub net_shard_requests: [u64; NET_SHARDS],
    /// Round-batched TX publishes (one flush + one writer store each).
    pub net_tx_batches: u64,
    /// Responses released across all batched publishes.
    pub net_tx_batched_responses: u64,
    /// Distribution of responses per TX publish (samples are counts, not
    /// nanoseconds).
    pub tx_batch: PauseStats,
    /// Checkpoint-round deltas shipped to replication peers.
    pub repl_rounds_shipped: u64,
    /// Backup records streamed to replication peers.
    pub repl_records_shipped: u64,
    /// Backup page images streamed to replication peers.
    pub repl_pages_shipped: u64,
    /// Wire bytes streamed to replication peers.
    pub repl_bytes_shipped: u64,
    /// Round acknowledgements received from replicas.
    pub repl_acks: u64,
    /// Full-snapshot resyncs served after delta gaps or corruption.
    pub repl_resyncs: u64,
    /// Delta frames quarantined by replicas (corrupt slot / CRC mismatch).
    pub repl_quarantined: u64,
    /// Times the primary entered degraded mode (quorum lost).
    pub repl_degraded_entries: u64,
    /// Gauge: highest round durable on the configured quorum.
    pub repl_acked_round: u64,
    /// Gauge: primary's committed round minus the quorum-durable round.
    pub repl_lag: u64,
    /// Transactions committed (validation passed, publication flipped).
    pub txn_commits: u64,
    /// Transactions aborted (conflict or fatal store error at commit).
    pub txn_aborts: u64,
    /// Client retries of previously conflicted transactions.
    pub txn_conflict_retries: u64,
    /// Gauge: highest commit sequence covered by a committed checkpoint.
    pub txn_durable_seq: u64,
    /// Begin-to-commit latency distribution for committed transactions.
    pub txn_latency: PauseStats,
    /// Stop-the-world pause distribution.
    pub pause: PauseStats,
    /// Copy-on-write page faults taken (kernel).
    pub write_faults: u64,
    /// Minor (mapping-only) faults taken (kernel).
    pub minor_faults: u64,
    /// Pages copied by CoW fault handling (kernel).
    pub cow_copies: u64,
    /// Bytes written to the NVM device.
    pub nvm_bytes_written: u64,
    /// Bytes read from the NVM device.
    pub nvm_bytes_read: u64,
    /// Whole-page copies landing on the NVM device.
    pub nvm_page_copies: u64,
    /// Gauge: high-water mark of allocator undo-journal records per
    /// transaction.
    pub journal_high_water: u64,
    /// Allocator-journal records truncated by the last recovery.
    pub journal_truncated: u64,
}

impl MetricsSnapshot {
    /// Field-wise delta `self − earlier` for counters; gauges
    /// (`ring_depth`, `ring_visible_lag`, `journal_high_water`) and the
    /// cumulative `pause` summary are carried from `self`.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            checkpoints: self.checkpoints - earlier.checkpoints,
            restores: self.restores - earlier.restores,
            hybrid_migrated_in: self.hybrid_migrated_in - earlier.hybrid_migrated_in,
            hybrid_sac_copies: self.hybrid_sac_copies - earlier.hybrid_sac_copies,
            hybrid_evicted: self.hybrid_evicted - earlier.hybrid_evicted,
            backup_pages_even: self.backup_pages_even - earlier.backup_pages_even,
            backup_pages_odd: self.backup_pages_odd - earlier.backup_pages_odd,
            ring_publishes: self.ring_publishes - earlier.ring_publishes,
            ring_depth: self.ring_depth,
            ring_visible_lag: self.ring_visible_lag,
            tree_full_walks: self.tree_full_walks - earlier.tree_full_walks,
            tree_dirty_walks: self.tree_dirty_walks - earlier.tree_dirty_walks,
            tree_dirty_drained: self.tree_dirty_drained - earlier.tree_dirty_drained,
            tree_copied: self.tree_copied - earlier.tree_copied,
            tree_offloaded: self.tree_offloaded - earlier.tree_offloaded,
            tree_tombstoned: self.tree_tombstoned - earlier.tree_tombstoned,
            dirty_queue_depth: self.dirty_queue_depth,
            shard_contention: self.shard_contention,
            quiesced_cores: self.quiesced_cores,
            epoch_conflicts: self.epoch_conflicts - earlier.epoch_conflicts,
            epoch_flips: self.epoch_flips - earlier.epoch_flips,
            inline_log_captures: self.inline_log_captures - earlier.inline_log_captures,
            inline_log_bytes: self.inline_log_bytes - earlier.inline_log_bytes,
            concurrent_copy_ns: self.concurrent_copy_ns,
            net_requests: self.net_requests - earlier.net_requests,
            net_sheds: self.net_sheds - earlier.net_sheds,
            net_rearms: self.net_rearms - earlier.net_rearms,
            net_faults_dropped: self.net_faults_dropped - earlier.net_faults_dropped,
            net_faults_duplicated: self.net_faults_duplicated - earlier.net_faults_duplicated,
            net_faults_reordered: self.net_faults_reordered - earlier.net_faults_reordered,
            net_visible_lag_max: self.net_visible_lag_max,
            net_visible_lag_sum: self.net_visible_lag_sum,
            net_rx_occupancy_hwm: self.net_rx_occupancy_hwm,
            net_tx_occupancy_hwm: self.net_tx_occupancy_hwm,
            net_shard_requests: std::array::from_fn(|i| {
                self.net_shard_requests[i] - earlier.net_shard_requests[i]
            }),
            net_tx_batches: self.net_tx_batches - earlier.net_tx_batches,
            net_tx_batched_responses: self.net_tx_batched_responses
                - earlier.net_tx_batched_responses,
            tx_batch: self.tx_batch,
            repl_rounds_shipped: self.repl_rounds_shipped - earlier.repl_rounds_shipped,
            repl_records_shipped: self.repl_records_shipped - earlier.repl_records_shipped,
            repl_pages_shipped: self.repl_pages_shipped - earlier.repl_pages_shipped,
            repl_bytes_shipped: self.repl_bytes_shipped - earlier.repl_bytes_shipped,
            repl_acks: self.repl_acks - earlier.repl_acks,
            repl_resyncs: self.repl_resyncs - earlier.repl_resyncs,
            repl_quarantined: self.repl_quarantined - earlier.repl_quarantined,
            repl_degraded_entries: self.repl_degraded_entries - earlier.repl_degraded_entries,
            repl_acked_round: self.repl_acked_round,
            repl_lag: self.repl_lag,
            txn_commits: self.txn_commits - earlier.txn_commits,
            txn_aborts: self.txn_aborts - earlier.txn_aborts,
            txn_conflict_retries: self.txn_conflict_retries - earlier.txn_conflict_retries,
            txn_durable_seq: self.txn_durable_seq,
            txn_latency: self.txn_latency,
            pause: self.pause,
            write_faults: self.write_faults - earlier.write_faults,
            minor_faults: self.minor_faults - earlier.minor_faults,
            cow_copies: self.cow_copies - earlier.cow_copies,
            nvm_bytes_written: self.nvm_bytes_written - earlier.nvm_bytes_written,
            nvm_bytes_read: self.nvm_bytes_read - earlier.nvm_bytes_read,
            nvm_page_copies: self.nvm_page_copies - earlier.nvm_page_copies,
            journal_high_water: self.journal_high_water,
            journal_truncated: self.journal_truncated,
        }
    }

    /// Renders the snapshot as a JSON object, grouped by subsystem.
    pub fn to_json(&self) -> Json {
        let u = Json::from;
        Json::Obj(vec![
            (
                "checkpoint".into(),
                Json::Obj(vec![
                    ("checkpoints".into(), u(self.checkpoints)),
                    ("restores".into(), u(self.restores)),
                    ("quiesced_cores".into(), u(self.quiesced_cores)),
                    ("epoch_conflicts".into(), u(self.epoch_conflicts)),
                    ("epoch_flips".into(), u(self.epoch_flips)),
                    ("inline_log_captures".into(), u(self.inline_log_captures)),
                    ("inline_log_bytes".into(), u(self.inline_log_bytes)),
                    ("concurrent_copy_ns".into(), u(self.concurrent_copy_ns)),
                    ("pause".into(), self.pause.to_json()),
                ]),
            ),
            (
                "hybrid".into(),
                Json::Obj(vec![
                    ("migrated_in".into(), u(self.hybrid_migrated_in)),
                    ("sac_copies".into(), u(self.hybrid_sac_copies)),
                    ("evicted".into(), u(self.hybrid_evicted)),
                ]),
            ),
            (
                "backup_pages".into(),
                Json::Obj(vec![
                    ("even_generation".into(), u(self.backup_pages_even)),
                    ("odd_generation".into(), u(self.backup_pages_odd)),
                ]),
            ),
            (
                "extsync".into(),
                Json::Obj(vec![
                    ("publishes".into(), u(self.ring_publishes)),
                    ("ring_depth".into(), u(self.ring_depth)),
                    ("visible_lag".into(), u(self.ring_visible_lag)),
                ]),
            ),
            (
                "tree_walk".into(),
                Json::Obj(vec![
                    ("full_walks".into(), u(self.tree_full_walks)),
                    ("dirty_walks".into(), u(self.tree_dirty_walks)),
                    ("dirty_drained".into(), u(self.tree_dirty_drained)),
                    ("records_copied".into(), u(self.tree_copied)),
                    ("records_offloaded".into(), u(self.tree_offloaded)),
                    ("oroots_tombstoned".into(), u(self.tree_tombstoned)),
                    ("dirty_queue_depth".into(), u(self.dirty_queue_depth)),
                    ("shard_contention".into(), u(self.shard_contention)),
                ]),
            ),
            (
                "net".into(),
                Json::Obj(vec![
                    ("requests".into(), u(self.net_requests)),
                    ("sheds".into(), u(self.net_sheds)),
                    ("rearms".into(), u(self.net_rearms)),
                    ("faults_dropped".into(), u(self.net_faults_dropped)),
                    ("faults_duplicated".into(), u(self.net_faults_duplicated)),
                    ("faults_reordered".into(), u(self.net_faults_reordered)),
                    ("visible_lag_max".into(), u(self.net_visible_lag_max)),
                    ("visible_lag_sum".into(), u(self.net_visible_lag_sum)),
                    ("rx_occupancy_hwm".into(), u(self.net_rx_occupancy_hwm)),
                    ("tx_occupancy_hwm".into(), u(self.net_tx_occupancy_hwm)),
                    (
                        "shard_requests".into(),
                        Json::Arr(self.net_shard_requests.iter().map(|&c| u(c)).collect()),
                    ),
                    ("tx_batches".into(), u(self.net_tx_batches)),
                    ("tx_batched_responses".into(), u(self.net_tx_batched_responses)),
                    ("tx_batch".into(), self.tx_batch.to_json()),
                ]),
            ),
            (
                "repl".into(),
                Json::Obj(vec![
                    ("rounds_shipped".into(), u(self.repl_rounds_shipped)),
                    ("records_shipped".into(), u(self.repl_records_shipped)),
                    ("pages_shipped".into(), u(self.repl_pages_shipped)),
                    ("bytes_shipped".into(), u(self.repl_bytes_shipped)),
                    ("acks".into(), u(self.repl_acks)),
                    ("resyncs".into(), u(self.repl_resyncs)),
                    ("quarantined".into(), u(self.repl_quarantined)),
                    ("degraded_entries".into(), u(self.repl_degraded_entries)),
                    ("acked_round".into(), u(self.repl_acked_round)),
                    ("lag".into(), u(self.repl_lag)),
                ]),
            ),
            (
                "txn".into(),
                Json::Obj(vec![
                    ("commits".into(), u(self.txn_commits)),
                    ("aborts".into(), u(self.txn_aborts)),
                    ("conflict_retries".into(), u(self.txn_conflict_retries)),
                    ("durable_seq".into(), u(self.txn_durable_seq)),
                    ("latency".into(), self.txn_latency.to_json()),
                ]),
            ),
            (
                "faults".into(),
                Json::Obj(vec![
                    ("write_faults".into(), u(self.write_faults)),
                    ("minor_faults".into(), u(self.minor_faults)),
                    ("cow_copies".into(), u(self.cow_copies)),
                ]),
            ),
            (
                "nvm".into(),
                Json::Obj(vec![
                    ("bytes_written".into(), u(self.nvm_bytes_written)),
                    ("bytes_read".into(), u(self.nvm_bytes_read)),
                    ("page_copies".into(), u(self.nvm_page_copies)),
                ]),
            ),
            (
                "alloc_journal".into(),
                Json::Obj(vec![
                    ("high_water_records".into(), u(self.journal_high_water)),
                    ("truncated_records".into(), u(self.journal_truncated)),
                ]),
            ),
        ])
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
        r.record_ring_publish();
        r.set_ring_gauges(7, 2);
        r.record_net_request();
        r.record_net_shed();
        r.record_net_barrier(3, 5, 7, 9);
        r.record_net_barrier(2, 4, 6, 11);
        r.set_quiesced_cores(3);
        r.record_epoch_conflict();
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
        if cfg!(feature = "metrics") {
            assert_eq!(a.checkpoints, 1);
            assert_eq!(a.hybrid_migrated_in, 3);
            assert_eq!(a.backup_pages_even, 1);
            assert_eq!(a.backup_pages_odd, 1);
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
            assert_eq!(a.epoch_conflicts, 1);
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
        if cfg!(feature = "metrics") {
            assert_eq!(d.checkpoints, 1);
            assert_eq!(d.hybrid_migrated_in, 0);
            assert_eq!(d.net_shard_requests[2], 8);
            assert_eq!(d.net_shard_requests[1], 0);
            assert_eq!(d.net_tx_batches, 1);
        }
    }

    #[test]
    fn snapshot_json_has_all_sections() {
        let j = MetricsSnapshot::default().to_json();
        for key in [
            "checkpoint",
            "hybrid",
            "backup_pages",
            "extsync",
            "tree_walk",
            "net",
            "repl",
            "txn",
            "faults",
            "nvm",
            "alloc_journal",
        ] {
            assert!(j.get(key).is_some(), "missing section {key}");
        }
    }
}
