//! The paper's per-workload evaluation from one run per workload, and the
//! pass rules of the checkpoint-pause regression gates.
//!
//! [`run_workload`] builds one workload, runs it for one window, then
//! crashes and recovers it. Tables 2–4 and Figs. 9a/9b are all read from
//! the [`WorkloadRun`]s it returns, so each workload is built and run once
//! for the five of them.

use std::collections::HashMap;
use std::time::Duration;

use treesls::{ObjType, PauseStats, System};
use treesls_checkpoint::{HybridRoundStats, ObjectTimeTable, StwBreakdown};

use crate::harness::{build, BenchOpts, WorkloadKind};
use crate::table::{mib, ns_as_us, us, Table};

/// The Table 4 (and Fig. 10) workloads, in column order.
pub const TABLE4: [WorkloadKind; 4] =
    [WorkloadKind::Memcached, WorkloadKind::Redis, WorkloadKind::KMeans, WorkloadKind::Pca];

/// Object types of the Table 2 and Fig. 9b columns.
const COLUMNS: [ObjType; 6] = [
    ObjType::CapGroup,
    ObjType::Thread,
    ObjType::IpcConnection,
    ObjType::Notification,
    ObjType::Pmo,
    ObjType::VmSpace,
];

/// Warm-up rounds (full checkpoints of fresh objects) Fig. 9 skips.
const FIG9_WARMUP: usize = 4;

/// Warm-up rounds Table 4 skips.
const TABLE4_WARMUP: usize = 8;

/// What one window of one workload measured.
pub struct WorkloadRun {
    /// The workload.
    pub kind: WorkloadKind,
    /// Live objects per type at the end of the window.
    pub census: HashMap<ObjType, usize>,
    /// Runtime application memory.
    pub app_bytes: u64,
    /// Checkpoint (backup record) size.
    pub ckpt_bytes: u64,
    /// Per-round checkpoint breakdowns, oldest first.
    pub breakdowns: Vec<StwBreakdown>,
    /// Per-round hybrid-copy counters, oldest first.
    pub hybrid_rounds: Vec<HybridRoundStats>,
    /// The pause histogram over every round of the window.
    pub pause: PauseStats,
    /// Per-object checkpoint times, and the recovery's restore times.
    pub times: ObjectTimeTable,
    /// Whether crashing at the end of the window and recovering worked.
    pub restore: Result<(), String>,
}

/// Builds `kind`, runs it for `window` (or until its workers finish),
/// reads every counter the per-workload tables need, then crashes it and
/// recovers the image.
pub fn run_workload(kind: WorkloadKind, opts: &BenchOpts, window: Duration) -> WorkloadRun {
    let mut bench = build(kind, opts);
    bench.run(window);
    let sys = bench.sys;
    let mgr = sys.manager();
    let mut run = WorkloadRun {
        kind,
        census: sys.kernel().census(),
        app_bytes: sys.kernel().app_memory_bytes(),
        ckpt_bytes: mgr.ckpt_size_bytes(),
        breakdowns: mgr.breakdowns.lock().iter().cloned().collect(),
        hybrid_rounds: mgr.hybrid_rounds.lock().iter().copied().collect(),
        pause: sys.metrics_snapshot().pause,
        times: mgr.table.lock().clone(),
        restore: Ok(()),
    };
    let programs: Vec<_> = sys
        .programs()
        .names()
        .into_iter()
        .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
        .collect();
    let config = sys.config().clone();
    match System::recover(sys.crash(), config, |reg| {
        for (n, p) in programs {
            reg.register(&n, p);
        }
    }) {
        Ok((_, report)) => {
            run.times.merge(&ObjectTimeTable { restore: report.per_type, ..Default::default() })
        }
        Err(e) => run.restore = Err(format!("restore of {} failed: {e}", kind.label())),
    }
    run
}

fn table2_runs(runs: &[WorkloadRun]) -> impl Iterator<Item = &WorkloadRun> {
    runs.iter().filter(|r| WorkloadKind::TABLE2.contains(&r.kind))
}

/// Table 2: object counts (absolute for Default, `+n` over Default for
/// the rest) and runtime vs. checkpoint size.
pub fn table2(runs: &[WorkloadRun]) -> Table {
    let mut t = Table::new(&[
        "Workload",
        "C.G.",
        "Thread",
        "IPC",
        "Noti.",
        "PMO",
        "VMS",
        "App(MiB)",
        "Ckpt(MiB)",
    ]);
    let base = runs.iter().find(|r| r.kind == WorkloadKind::Default).map(|r| &r.census);
    let count = |census: &HashMap<ObjType, usize>, ty| census.get(&ty).copied().unwrap_or(0);
    for r in table2_runs(runs) {
        let default = r.kind == WorkloadKind::Default;
        let mut row = vec![r.kind.label().to_string()];
        row.extend(COLUMNS.map(|ty| match base {
            Some(b) if !default => {
                format!("+{}", count(&r.census, ty).saturating_sub(count(b, ty)))
            }
            _ => count(&r.census, ty).to_string(),
        }));
        row.extend(if default {
            ["n/a".into(), "n/a".into()]
        } else {
            [mib(r.app_bytes), mib(r.ckpt_bytes)]
        });
        t.row(row);
    }
    t
}

/// Table 3: min/max incremental, full and restore time per object type,
/// over every Table 2 workload.
pub fn table3(runs: &[WorkloadRun]) -> Table {
    let mut agg = ObjectTimeTable::default();
    for r in table2_runs(runs) {
        agg.merge(&r.times);
    }
    let mut t = Table::new(&[
        "Object", "Incr Min", "Incr Max", "Full Min", "Full Max", "Rest Min", "Rest Max",
    ]);
    for ty in ObjType::ALL {
        let mut row = vec![ty.short_name().to_string()];
        for times in [&agg.incr, &agg.full, &agg.restore] {
            let mm = times.get(&ty).filter(|mm| !mm.is_empty());
            row.push(mm.map_or("-".into(), |mm| us(mm.min)));
            row.push(mm.map_or("-".into(), |mm| us(mm.max)));
        }
        t.row(row);
    }
    t
}

/// Table 4: per-round means of the hybrid-copy counters after warm-up,
/// one column per [`TABLE4`] workload (`-` for a workload not run).
pub fn table4(runs: &[WorkloadRun]) -> Table {
    let mut header = vec!["Metric"];
    header.extend(TABLE4.map(WorkloadKind::label));
    let mut t = Table::new(&header);
    let cols = TABLE4.map(|k| match runs.iter().find(|r| r.kind == k) {
        Some(r) => hybrid_means(&r.hybrid_rounds),
        None => std::array::from_fn(|_| "-".to_string()),
    });
    for (i, metric) in [
        "# runtime page faults",
        "# dirty cached pages",
        "# cached pages",
        "faults eliminated",
        "dirty rate in cached",
    ]
    .into_iter()
    .enumerate()
    {
        let mut row = vec![metric.to_string()];
        row.extend(cols.iter().map(|c| c[i].clone()));
        t.row(row);
    }
    t
}

/// One Table 4 column: the mean round over the steady-state rounds with
/// any hybrid activity.
fn hybrid_means(rounds: &[HybridRoundStats]) -> [String; 5] {
    let active: Vec<_> = rounds
        .iter()
        .skip(TABLE4_WARMUP)
        .filter(|r| r.runtime_faults + r.dirty_cached + r.cached > 0)
        .collect();
    let n = active.len().max(1) as u64;
    let mean = |f: fn(&HybridRoundStats) -> u64| active.iter().map(|r| f(r)).sum::<u64>() / n;
    let m = HybridRoundStats {
        runtime_faults: mean(|r| r.runtime_faults),
        dirty_cached: mean(|r| r.dirty_cached),
        cached: mean(|r| r.cached),
        ..Default::default()
    };
    [
        m.runtime_faults.to_string(),
        m.dirty_cached.to_string(),
        m.cached.to_string(),
        format!("{:.0}%", m.fault_elimination_ratio() * 100.0),
        format!("{:.0}%", m.dirty_rate() * 100.0),
    ]
}

fn warm(r: &WorkloadRun) -> &[StwBreakdown] {
    r.breakdowns.get(FIG9_WARMUP..).unwrap_or_default()
}

/// Fig. 9a: the mean steady-state round's main bar (IPI, capability tree,
/// others) and hybrid-copy bar (busy time / `cores`), then each
/// workload's pause distribution over all rounds. Quantiles are log₂
/// bucket upper bounds, the max is exact (see OBSERVABILITY.md).
pub fn fig9a(runs: &[WorkloadRun], cores: usize) -> [Table; 2] {
    let mut bars =
        Table::new(&["Workload", "IPI", "CapTree", "Others", "MainTotal", "HybridCopy", "Rounds"]);
    let mut pauses = Table::new(&["Workload", "Count", "Mean", "P50<=", "P95<=", "P99<=", "Max"]);
    for r in table2_runs(runs) {
        let warm = warm(r);
        if warm.is_empty() {
            eprintln!("{}: no steady-state rounds", r.kind.label());
            continue;
        }
        let n = warm.len() as u32;
        let mean = |f: fn(&StwBreakdown) -> Duration| warm.iter().map(f).sum::<Duration>() / n;
        let (ipi, cap, others) = (mean(|b| b.ipi), mean(|b| b.cap_tree), mean(|b| b.others));
        let label = r.kind.label().to_string();
        bars.row(vec![
            label.clone(),
            us(ipi),
            us(cap),
            us(others),
            us(ipi + cap + others),
            us(mean(|b| b.hybrid_busy) / cores.max(1) as u32),
            n.to_string(),
        ]);
        let p = &r.pause;
        pauses.row(vec![
            label,
            p.count.to_string(),
            ns_as_us(p.mean_ns),
            ns_as_us(p.p50_ns),
            ns_as_us(p.p95_ns),
            ns_as_us(p.p99_ns),
            ns_as_us(p.max_ns),
        ]);
    }
    [bars, pauses]
}

/// Fig. 9b: mean steady-state capability-tree time per object type.
pub fn fig9b(runs: &[WorkloadRun]) -> Table {
    let mut t =
        Table::new(&["Workload", "CapGroup", "Thread", "IPC", "Noti", "PMO", "VMSpace", "Total"]);
    for r in table2_runs(runs) {
        let warm = warm(r);
        if warm.is_empty() {
            continue;
        }
        let cells = COLUMNS.map(|ty| {
            warm.iter().map(|b| b.per_type.get(&ty).copied().unwrap_or_default()).sum::<Duration>()
                / warm.len() as u32
        });
        let mut row = vec![r.kind.label().to_string()];
        row.extend(cells.iter().map(|d| us(*d)));
        row.push(us(cells.iter().sum()));
        t.row(row);
    }
    t
}

/// Measured checkpoints per size in each gate's sweep.
pub const GATE_ROUNDS: usize = 20;

/// Bound on the scaling gate's median-pause ratio across a 10× object
/// growth: flat ≈ 1, an O(objects) walk ≈ 10.
pub const SCALING_MAX_RATIO: f64 = 2.0;

/// Bound on the worst median epoch-flip pause across the heap sweep, µs.
pub const FLIP_MAX_P50_US: f64 = 100.0;

/// Bound on the epoch flip's parked-core time over the full-quiesce
/// oracle's, at the largest heap.
pub const PARKED_MAX_RATIO: f64 = 0.05;

/// One gate's measured value and its bound. A value that could not be
/// measured is infinite, so it fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The measured value.
    pub value: f64,
    /// The largest passing value.
    pub bound: f64,
}

impl Gate {
    /// Whether the value is within the bound.
    pub fn pass(&self) -> bool {
        self.value <= self.bound
    }
}

/// `num / den`, infinite when the denominator measured nothing.
fn ratio(num: Duration, den: Duration) -> f64 {
    if den.is_zero() {
        f64::INFINITY
    } else {
        num.as_secs_f64() / den.as_secs_f64()
    }
}

/// The nearest-rank median of `samples` (zero when empty): the smallest
/// sample with at least half of them at or below it, the rule the pause
/// histogram's quantiles use.
pub fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len().div_ceil(2).max(1) - 1).copied().unwrap_or_default()
}

/// Median pause at the largest tree over the median at the smallest,
/// both exact per-round pauses. (A ratio of log₂-bucket upper bounds
/// jumps from 1 to 2.001 when one median crosses a bucket edge, however
/// flat the pause.)
pub fn scaling_gate(smallest: Duration, largest: Duration) -> Gate {
    Gate { value: ratio(largest, smallest), bound: SCALING_MAX_RATIO }
}

/// The worst of the per-size median flip pauses, in µs. A size whose
/// median is zero recorded no pause, so it proves nothing and fails.
pub fn flip_pause_gate(p50s: &[Duration]) -> Gate {
    let value = if p50s.is_empty() || p50s.contains(&Duration::ZERO) {
        f64::INFINITY
    } else {
        p50s.iter().max().map_or(0.0, |d| d.as_secs_f64() * 1e6)
    };
    Gate { value, bound: FLIP_MAX_P50_US }
}

/// Epoch-flip median parked time over the full-quiesce oracle's. An
/// oracle that parked nothing cannot show the flip parks less: it fails.
pub fn parked_gate(epoch: Duration, full_quiesce: Duration) -> Gate {
    Gate { value: ratio(epoch, full_quiesce), bound: PARKED_MAX_RATIO }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn flat_medians_pass_every_gate() {
        assert!(scaling_gate(us(64), us(64)).pass());
        assert_eq!(scaling_gate(us(64), us(128)).value, 2.0);
        assert!(scaling_gate(us(64), us(128)).pass());
        assert!(flip_pause_gate(&[us(64), us(64), us(64)]).pass());
        assert!(parked_gate(Duration::ZERO, us(900)).pass());
    }

    #[test]
    fn the_scaling_gate_divides_exact_medians() {
        let ns = Duration::from_nanos;
        assert!(scaling_gate(ns(1_000), ns(1_100)).pass());
        assert!(!scaling_gate(ns(1_000), ns(2_100)).pass());
        assert_eq!(median(&[us(3), us(1), us(2), us(4)]), us(2));
        assert_eq!(median(&[us(3), us(1), us(2)]), us(2));
        assert_eq!(median(&[]), Duration::ZERO);
    }

    #[test]
    fn an_eightfold_growth_fails_every_gate() {
        assert!(!scaling_gate(us(64), us(512)).pass());
        assert!(!flip_pause_gate(&[us(16), us(128)]).pass());
        assert!(!parked_gate(us(800), us(100)).pass());
    }

    #[test]
    fn a_zero_denominator_fails_every_gate() {
        assert!(!scaling_gate(Duration::ZERO, us(64)).pass());
        assert!(!scaling_gate(Duration::ZERO, Duration::ZERO).pass());
        assert!(!flip_pause_gate(&[]).pass());
        assert!(!flip_pause_gate(&[us(32), Duration::ZERO]).pass());
        assert!(!parked_gate(Duration::ZERO, Duration::ZERO).pass());
    }

    #[test]
    fn one_default_run_fills_the_per_workload_tables() {
        // Default, plus Memcached: the in-SLS IPC client/server pair (four
        // server shards, eight checkpointed clients).
        let opts = BenchOpts::default();
        let runs = [WorkloadKind::Default, WorkloadKind::Memcached]
            .map(|kind| run_workload(kind, &opts, Duration::from_millis(300)));
        for run in &runs {
            assert_eq!(run.restore, Ok(()), "{}", run.kind.label());
        }
        let rows = |t: &Table| t.rows().to_vec();
        let t2 = rows(&table2(&runs));
        assert_eq!(t2.len(), 2);
        assert_eq!(t2[0][0], "Default");
        assert_eq!(t2[1][0], "Memcached");
        assert_eq!(t2[1][3], "+4", "one IPC connection per server shard: {:?}", t2[1]);
        // Table 3 has a row per object type; a restored cap group has a time.
        let t3 = rows(&table3(&runs));
        let cg = t3.iter().find(|r| r[0] == ObjType::CapGroup.short_name()).unwrap();
        assert_ne!(cg[5], "-", "no restore time recorded: {cg:?}");
        let [bars, pauses] = fig9a(&runs, opts.cores);
        assert_eq!(rows(&bars).len(), 2, "no steady-state rounds");
        assert_eq!(rows(&pauses)[1][0], "Memcached");
        assert_eq!(rows(&fig9b(&runs)).len(), 2);
        // Table 4 has its five metric rows, with `-` for the workloads not
        // run (every column after Memcached's).
        let t4 = rows(&table4(&runs));
        assert_eq!(t4.len(), 5);
        assert!(t4.iter().all(|r| r[2..].iter().all(|c| c == "-")));
    }
}
