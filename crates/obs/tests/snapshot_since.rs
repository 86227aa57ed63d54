//! Golden test for `MetricsSnapshot::since`: every field's interval rule
//! spelled out once. Counters subtract; gauges, high-water marks and
//! histogram summaries carry the later snapshot's value.

use treesls_obs::{MetricsSnapshot, PauseStats, NET_SHARDS};

fn stats(base: u64) -> PauseStats {
    PauseStats {
        count: base,
        mean_ns: base + 1,
        p50_ns: base + 2,
        p95_ns: base + 3,
        p99_ns: base + 4,
        max_ns: base + 5,
    }
}

fn shards(f: impl Fn(u64) -> u64) -> [u64; NET_SHARDS] {
    std::array::from_fn(|i| f(i as u64))
}

/// One line per field: `name: earlier, later => expected;`. Every struct
/// literal is complete, so a field added to `MetricsSnapshot` without a
/// line here fails to compile.
macro_rules! golden {
    ($($field:ident: $a:expr, $b:expr => $want:expr;)*) => {{
        let a = MetricsSnapshot { $($field: $a,)* };
        let b = MetricsSnapshot { $($field: $b,)* };
        let want = MetricsSnapshot { $($field: $want,)* };
        assert_eq!(b.since(&a), want);
    }};
}

/// Field *k* reads `k` earlier and `101·k` later, so a counter's delta is
/// `100·k` and a carried value is `101·k`: every field holds a distinct
/// value and every rule gives a distinct answer.
#[test]
fn since_subtracts_counters_and_carries_gauges_and_histograms() {
    golden! {
        checkpoints: 1, 101 => 100;
        restores: 2, 202 => 200;
        hybrid_migrated_in: 3, 303 => 300;
        hybrid_sac_copies: 4, 404 => 400;
        hybrid_evicted: 5, 505 => 500;
        backup_pages_even: 6, 606 => 600;
        backup_pages_odd: 7, 707 => 700;
        ring_publishes: 8, 808 => 800;
        ring_depth: 9, 909 => 909;
        tree_full_walks: 11, 1111 => 1100;
        tree_dirty_walks: 12, 1212 => 1200;
        tree_dirty_drained: 13, 1313 => 1300;
        tree_copied: 14, 1414 => 1400;
        tree_tombstoned: 16, 1616 => 1600;
        dirty_queue_depth: 17, 1717 => 1717;
        shard_contention: 18, 1818 => 1818;
        quiesced_cores: 19, 1919 => 1919;
        epoch_conflicts: 20, 2020 => 2000;
        epoch_flips: 21, 2121 => 2100;
        inline_log_captures: 22, 2222 => 2200;
        inline_log_bytes: 23, 2323 => 2300;
        concurrent_copy_ns: 24, 2424 => 2424;
        net_requests: 25, 2525 => 2500;
        net_sheds: 26, 2626 => 2600;
        net_rearms: 27, 2727 => 2700;
        net_faults_dropped: 28, 2828 => 2800;
        net_faults_duplicated: 29, 2929 => 2900;
        net_faults_reordered: 30, 3030 => 3000;
        net_visible_lag_max: 31, 3131 => 3131;
        net_visible_lag_sum: 32, 3232 => 3232;
        net_rx_occupancy_hwm: 33, 3333 => 3333;
        net_tx_occupancy_hwm: 34, 3434 => 3434;
        net_shard_requests: shards(|i| 35 + i), shards(|i| 3535 + 3 * i) => shards(|i| 3500 + 2 * i);
        net_tx_batches: 36, 3636 => 3600;
        net_tx_batched_responses: 37, 3737 => 3700;
        tx_batch: stats(38), stats(3838) => stats(3838);
        repl_rounds_shipped: 39, 3939 => 3900;
        repl_records_shipped: 40, 4040 => 4000;
        repl_pages_shipped: 41, 4141 => 4100;
        repl_bytes_shipped: 42, 4242 => 4200;
        repl_build_ns: 63, 6363 => 6300;
        repl_pages_read: 64, 6464 => 6400;
        repl_quorum_wait_ns: 65, 6565 => 6500;
        repl_acks: 43, 4343 => 4300;
        repl_resyncs: 44, 4444 => 4400;
        repl_quarantined: 45, 4545 => 4500;
        repl_degraded_entries: 46, 4646 => 4600;
        repl_acked_round: 47, 4747 => 4747;
        repl_lag: 48, 4848 => 4848;
        txn_commits: 49, 4949 => 4900;
        txn_aborts: 50, 5050 => 5000;
        txn_conflict_retries: 51, 5151 => 5100;
        txn_durable_seq: 52, 5252 => 5252;
        txn_latency: stats(53), stats(5353) => stats(5353);
        pause: stats(54), stats(5454) => stats(5454);
        write_faults: 55, 5555 => 5500;
        minor_faults: 56, 5656 => 5600;
        cow_copies: 57, 5757 => 5700;
        nvm_bytes_written: 58, 5858 => 5800;
        nvm_bytes_read: 59, 5959 => 5900;
        nvm_page_copies: 60, 6060 => 6000;
        journal_high_water: 61, 6161 => 6161;
        journal_truncated: 62, 6262 => 6262;
    }
}
