//! Epoch-flip pause bench: the stop window must be O(1) — independent of
//! heap size *and* of how many cores dirty state — because the leader's
//! pause shrinks to the epoch flip (arm the fence, wait out in-flight
//! steps, mark the write set read-only, cut the dirty queue, seal,
//! resume; no core parks) while the tree walk, backup-record builds and
//! page copies run concurrently with live mutators.
//!
//! Three writers pinned to distinct cores of a 4-core machine re-dirty
//! per-process heaps whose size sweeps 10× (8 → 80 pages per writer).
//! For each size the bench reports the stop-window distribution consumed
//! directly from the metrics registry's exported pause histogram
//! (`MetricsSnapshot::pause` — the same numbers `to_json()` emits; the
//! quantiles are log₂-bucket upper bounds, the max is exact), plus the
//! aggregate core-parked time per round and the epoch-machinery counters
//! (flips, conflict captures, in-line log records, concurrent-copy
//! time) proving mutators really ran through the copy phase.
//!
//! Flags beyond the common set: `--rounds N` (measured checkpoints per
//! size), `--gate-pause-us U` (exit nonzero if any size's median pause
//! exceeds `U` µs — CI passes 100), `--gate-parked R` (exit nonzero if
//! `median(parked, epoch @ 10×)/median(parked, full-quiesce @ 10×)`
//! exceeds `R` — CI passes 0.05).

use std::sync::Arc;
use std::time::Duration;

use treesls::{
    PauseStats, ProcessSpec, Program, StepOutcome, System, SystemConfig, ThreadSpec, UserCtx,
};
use treesls_bench::harness::BenchOpts;
use treesls_bench::table::Table;
use treesls_bench::Sink;

/// Machine size; writers own `WRITERS` of these cores every round.
const CORES: usize = 4;

/// Pinned mutators — the writer count the flip must not scale with.
const WRITERS: usize = 3;

/// Per-writer heap pages: smallest → largest is the 10× object growth
/// the pause gate compares across.
const SIZES: [u64; 3] = [8, 24, 80];

/// Writes one `u64` per step, round-robin over the writer's heap pages —
/// 8-byte deltas, so first conflicting writes during the concurrent copy
/// take the in-line undo-log path rather than whole-page CoW.
struct DirtyPages {
    pages: u64,
}
impl Program for DirtyPages {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        let done = ctx.reg(2);
        let page = done % self.pages;
        let word = (done / self.pages) % 64;
        if ctx.write_u64(page * 4096 + word * 8, 0xE60C_0000 + done).is_err() {
            return StepOutcome::Exited;
        }
        ctx.set_reg(2, done + 1);
        StepOutcome::Ready
    }
}

fn config(full_quiesce: bool) -> SystemConfig {
    let mut c = SystemConfig {
        cores: CORES,
        checkpoint_interval: None, // measured checkpoints only
        ..SystemConfig::default()
    };
    c.kernel.nvm_frames = 16_384;
    c.kernel.dram_pages = 512;
    c.kernel.force_full_quiesce = full_quiesce;
    c
}

struct StageResult {
    pages: u64,
    pause: PauseStats,
    median_parked: Duration,
    median_stopped: usize,
    epoch_flips: u64,
    conflicts: u64,
    inline_logs: u64,
    inline_bytes: u64,
    concurrent_copy: Duration,
}

fn run_stage(pages: u64, full_quiesce: bool, rounds: usize) -> StageResult {
    let mut sys = System::boot(config(full_quiesce));
    sys.register_program("dirty", Arc::new(DirtyPages { pages }));
    for w in 0..WRITERS {
        let p = sys
            .spawn(
                &ProcessSpec::new(format!("writer{w}"))
                    .heap(pages)
                    .thread(ThreadSpec::new("dirty")),
            )
            .expect("spawn writer");
        // Pin writer w to core w: the same three cores write every
        // round, and core 3 stays clean.
        sys.kernel().sched.set_affinity(p.threads[0], Some(w as u32));
    }
    sys.start();

    // Warm-up: let each writer touch its whole heap, then settle the
    // fresh tree so measured rounds drain steady-state dirty sets.
    std::thread::sleep(Duration::from_millis(10));
    sys.checkpoint_now().expect("warmup checkpoint");
    sys.checkpoint_now().expect("settle checkpoint");

    let stw = Arc::clone(sys.manager().stw());
    let mut parked: Vec<u64> = Vec::with_capacity(rounds);
    let mut stopped: Vec<usize> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        // Let the writers re-dirty their heaps between rounds.
        std::thread::sleep(Duration::from_millis(2));
        stw.wait_all_resumed();
        stw.take_paused_ns(); // drop park time accumulated between rounds
        sys.checkpoint_now().expect("measured checkpoint");
        stw.wait_all_resumed();
        parked.push(stw.take_paused_ns());
        stopped.push(stw.stopped_cores());
    }
    let snap = sys.metrics_snapshot();
    if std::env::var_os("PAUSE_EPOCH_DEBUG").is_some() {
        let bd = sys.manager().breakdowns.lock().clone();
        let mut ipi: Vec<_> = bd.iter().map(|b| b.ipi).collect();
        let mut tot: Vec<_> = bd.iter().map(|b| b.total_pause).collect();
        let mut mark: Vec<_> = bd
            .iter()
            .map(|b| b.per_type.values().copied().sum::<Duration>())
            .collect();
        ipi.sort();
        tot.sort();
        mark.sort();
        eprintln!(
            "debug {pages}p full_q={full_quiesce}: ipi_med={:?} pertype_med={:?} total_med={:?} total_max={:?}",
            ipi[ipi.len() / 2],
            mark[mark.len() / 2],
            tot[tot.len() / 2],
            tot.last().unwrap()
        );
    }
    sys.stop();

    parked.sort_unstable();
    stopped.sort_unstable();
    StageResult {
        pages,
        pause: snap.pause,
        median_parked: Duration::from_nanos(parked[parked.len() / 2]),
        median_stopped: stopped[stopped.len() / 2],
        epoch_flips: snap.epoch_flips,
        conflicts: snap.epoch_conflicts,
        inline_logs: snap.inline_log_captures,
        inline_bytes: snap.inline_log_bytes,
        concurrent_copy: Duration::from_nanos(snap.concurrent_copy_ns),
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let args: Vec<String> = std::env::args().collect();
    let mut rounds: usize = if opts.full { 100 } else { 40 };
    let mut gate_pause_us: Option<f64> = None;
    let mut gate_parked: Option<f64> = None;
    for (i, a) in args.iter().enumerate() {
        match a.as_str() {
            "--rounds" => {
                if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    rounds = n;
                }
            }
            "--gate-pause-us" => {
                gate_pause_us = args.get(i + 1).and_then(|s| s.parse().ok());
            }
            "--gate-parked" => {
                gate_parked = args.get(i + 1).and_then(|s| s.parse().ok());
            }
            _ => {}
        }
    }

    let mut sink = Sink::new(
        "pause_epoch",
        "Epoch-concurrent checkpointing: O(1) flip pause across a 10x heap sweep",
        &opts,
    );
    // "≤" pause columns are log₂-bucket upper bounds straight from the
    // registry's exported histogram; ParkedMed is the exact per-round
    // aggregate core-parked time.
    let mut table = Table::new(&[
        "HeapPages", "Owners", "Rounds", "PauseP50<=", "PauseP99<=", "PauseMax", "ParkedMed",
        "StoppedMed", "Flips", "Conflicts", "InlineLogs", "InlineBytes", "ConcCopy",
    ]);
    let mut stages = Vec::new();
    for &pages in &SIZES {
        let r = run_stage(pages, false, rounds);
        table.row(vec![
            format!("{}x{WRITERS}", r.pages),
            format!("{}", WRITERS),
            format!("{rounds}"),
            format!("{:.2}", r.pause.p50_ns as f64 / 1e3),
            format!("{:.2}", r.pause.p99_ns as f64 / 1e3),
            format!("{:.2}", r.pause.max_ns as f64 / 1e3),
            format!("{:.2}", r.median_parked.as_nanos() as f64 / 1e3),
            format!("{}", r.median_stopped),
            format!("{}", r.epoch_flips),
            format!("{}", r.conflicts),
            format!("{}", r.inline_logs),
            format!("{}", r.inline_bytes),
            format!("{:.2}", r.concurrent_copy.as_nanos() as f64 / 1e3),
        ]);
        stages.push(r);
    }
    sink.table("pause_epoch", table);

    // Full-quiesce oracle at the largest size: every core parks for the
    // whole copy phase — the parked-time denominator.
    let full = run_stage(SIZES[SIZES.len() - 1], true, rounds);
    let mut base = Table::new(&["HeapPages", "ParkedMed", "StoppedMed", "PauseP50<="]);
    base.row(vec![
        format!("{}x{WRITERS}", full.pages),
        format!("{:.2}", full.median_parked.as_nanos() as f64 / 1e3),
        format!("{}", full.median_stopped),
        format!("{:.2}", full.pause.p50_ns as f64 / 1e3),
    ]);
    sink.table("full_quiesce_baseline", base);

    let worst_p50_us = stages
        .iter()
        .map(|s| s.pause.p50_ns as f64 / 1e3)
        .fold(0.0_f64, f64::max);
    let epoch_at_max = stages.last().expect("sizes non-empty");
    let parked_ratio = epoch_at_max.median_parked.as_secs_f64()
        / full.median_parked.as_secs_f64().max(1e-9);
    let pause_pass = gate_pause_us.is_none_or(|g| worst_p50_us <= g);
    let parked_pass = gate_parked.is_none_or(|g| parked_ratio <= g);
    let mut gate_table =
        Table::new(&["WorstP50us", "PauseGateUs", "ParkedRatio", "ParkedGate", "Pass"]);
    gate_table.row(vec![
        format!("{worst_p50_us:.2}"),
        gate_pause_us.map_or("n/a".to_string(), |g| format!("{g:.0}")),
        format!("{parked_ratio:.4}"),
        gate_parked.map_or("n/a".to_string(), |g| format!("{g:.3}")),
        format!("{}", pause_pass && parked_pass),
    ]);
    sink.table("gate", gate_table);
    sink.note(&format!(
        "({WRITERS} writers live through the copy phase: the flip pause stays \
         flat across the {}x heap sweep while conflict captures and in-line \
         log records absorb the racing writes)",
        SIZES[SIZES.len() - 1] / SIZES[0]
    ));
    sink.finish();

    if !pause_pass {
        eprintln!(
            "pause-epoch gate FAILED: worst median pause {worst_p50_us:.2} us > {:.0} us",
            gate_pause_us.expect("pause_pass=false implies gate set")
        );
        std::process::exit(1);
    }
    if !parked_pass {
        eprintln!(
            "pause-epoch parked gate FAILED: epoch/full parked ratio {parked_ratio:.4} > {:.3}",
            gate_parked.expect("parked_pass=false implies gate set")
        );
        std::process::exit(1);
    }
}
