//! Every table and figure of the paper's evaluation (§7) in one run, plus
//! the two checkpoint-pause regression gates.
//!
//! `paperfigs [--full] [--optane] [--cores N]` prints each table, writes
//! every printed cell with the host and options to
//! `results/PAPERFIGS.json` (relative to the working directory), and exits
//! 1 if a gate fails or 2 on a bad flag.
//!
//! - Tables 2–4 and Figs. 9a/9b: each workload runs once for one window
//!   (1 s, 3 s with `--full`) and all five are read from that run
//!   ([`treesls_bench::figs`]).
//! - Fig. 10: three configurations per workload, each timed to completion.
//! - Figs. 11–14: ring-served stores driven by host client threads, and
//!   the host-process baselines (Linux WAL, Aurora).
//! - Gates: a total-object sweep at a fixed dirty set (the pause must not
//!   grow with the tree) and a heap sweep under three live writers (the
//!   epoch flip's pause must stay small, and it must park no core).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls::{
    MetricsSnapshot, ProcessSpec, Program, StepOutcome, System, SystemConfig, ThreadSpec, UserCtx,
};
use treesls_apps::client::run_parallel_clients;
use treesls_apps::hashkv::HashKv;
use treesls_apps::hist::Histogram;
use treesls_apps::lsm::{Lsm, LsmConfig};
use treesls_apps::server::xorshift64;
use treesls_apps::wire::{numeric_key, KvOp};
use treesls_apps::workload::{PrefixDist, YcsbGen, YcsbMix};
use treesls_baselines::{AuroraConfig, AuroraSls, LinuxHost};
use treesls_bench::figs::{self, Gate, GATE_ROUNDS, TABLE4};
use treesls_bench::harness::{build, BenchOpts};
use treesls_bench::ringsetup::{deploy_kv, deploy_lsm, ShardGeometry};
use treesls_bench::table::{ns_as_us, Table};
use treesls_bench::WorkloadKind;
use treesls_checkpoint::CheckpointManager;
use treesls_kernel::cores::StwController;
use treesls_kernel::{Kernel, KernelConfig};
use treesls_nvm::LatencyModel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOpts::parse(&args).unwrap_or_else(|e| {
        eprintln!("paperfigs: {e}\n{}", BenchOpts::USAGE);
        std::process::exit(2)
    });
    let t0 = Instant::now();
    let mut r = Report::new(&opts);

    let window = Duration::from_millis(if opts.full { 3000 } else { 1000 });
    let mut kinds = WorkloadKind::TABLE2.to_vec();
    kinds.push(WorkloadKind::Pca);
    let runs: Vec<_> = kinds.into_iter().map(|k| figs::run_workload(k, &opts, window)).collect();
    for e in runs.iter().filter_map(|run| run.restore.as_ref().err()) {
        eprintln!("{e}");
    }
    r.section(
        "table2",
        "Table 2: workload object composition and size (this reproduction)",
        vec![("composition", figs::table2(&runs))],
        &[],
    );
    r.section(
        "table3",
        "Table 3: checkpoint/restore time of a single object (µs)",
        vec![("per_object_times", figs::table3(&runs))],
        &[],
    );
    r.section(
        "table4",
        "Table 4: effect of hybrid memory checkpoint (per-interval means)",
        vec![("hybrid_effect", figs::table4(&runs))],
        &[],
    );
    let [bars, pauses] = figs::fig9a(&runs, opts.cores);
    r.section(
        "fig9a",
        "Figure 9a: STW checkpoint time breakdown (µs, mean over rounds)",
        vec![("breakdown", bars), ("pause_histogram_us", pauses)],
        &["(MainTotal = left bar; HybridCopy = right bar, busy/cores approximation)"],
    );
    r.section(
        "fig9b",
        "Figure 9b: capability-tree checkpoint time by object type (µs/round)",
        vec![("per_type", figs::fig9b(&runs))],
        &[],
    );
    drop(runs);
    r.section(
        "fig10",
        "Figure 10: runtime overhead breakdown (normalized run time)",
        vec![("normalized_runtime", fig10(&opts))],
        &[],
    );
    r.section(
        "fig11",
        "Figure 11: Memcached SET/GET latency vs checkpoint interval (µs)",
        vec![("latency", fig11(&opts))],
        &[],
    );
    let (title, t) = fig12(&opts);
    r.section("fig12", &title, vec![("throughput_latency", t)], &[]);
    r.section(
        "fig13",
        "Figure 13: YCSB on Redis — throughput (Kops/s)",
        vec![("throughput", fig13(&opts))],
        &[
            "(Linux runs the same store code without a kernel boundary; compare",
            " ratios within a column family, as the paper does.)",
        ],
    );
    r.section(
        "fig14",
        "Figure 14: RocksDB with Facebook Prefix_dist",
        vec![("throughput_latency", fig14(&opts))],
        &[
            "(Aurora runs the same LSM code as a host process — compare within",
            " column families: ckpt overhead vs base, API/WAL vs transparent.)",
        ],
    );
    let (scaling, scaling_gate) = scaling();
    r.section(
        "scaling",
        "Pause scaling: total objects sweep at a fixed dirty working set",
        scaling,
        &[&format!(
            "(dirty-queue walk: pause tracks the {DIRTY_SET}-object working set, \
             not the 10x total-object growth)"
        )],
    );
    let (epoch, [flip_gate, parked_gate]) = pause_epoch();
    r.section(
        "pause_epoch",
        "Epoch-concurrent checkpointing: O(1) flip pause across a 10x heap sweep",
        epoch,
        &[&format!(
            "({WRITERS} writers live through the copy phase: the flip pause stays flat \
             across the 10x heap sweep while conflict captures and in-line log records \
             absorb the racing writes)"
        )],
    );

    r.write(t0.elapsed());
    let mut failed = false;
    for (name, gate) in [
        ("pause-scaling median ratio", scaling_gate),
        ("epoch-flip worst median pause (us)", flip_gate),
        ("epoch/full-quiesce parked ratio", parked_gate),
    ] {
        if !gate.pass() {
            eprintln!("gate FAILED: {name} {:.4} > {}", gate.value, gate.bound);
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}

/// Prints each section as it completes and keeps it, as JSON, for
/// `results/PAPERFIGS.json`.
struct Report {
    /// The document's `host` and `opts` members.
    head: String,
    sections: Vec<String>,
}

impl Report {
    /// Prints the host fingerprint: available cores, CPU model and
    /// `git describe` of the working tree.
    fn new(opts: &BenchOpts) -> Self {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cpu: String = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    Some(l.strip_prefix("model name")?.split_once(':')?.1.trim().into())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        let commit: String = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().into());
        println!(
            "TreeSLS paper figures (this reproduction): {nproc} CPUs ({cpu}), commit {commit}, \
             {} simulated cores",
            opts.cores
        );
        let head = format!(
            "\"host\": {{\"nproc\": {nproc}, \"cpu\": {}, \"commit\": {}}},\n  \
             \"opts\": {{\"cores\": {}, \"full\": {}, \"optane\": {}}}",
            quote(&cpu),
            quote(&commit),
            opts.cores,
            opts.full,
            opts.optane
        );
        Self { head, sections: Vec::new() }
    }

    fn section(&mut self, name: &str, title: &str, tables: Vec<(&str, Table)>, notes: &[&str]) {
        println!("\n{title}\n");
        let mut json = Vec::new();
        for (i, (label, t)) in tables.iter().enumerate() {
            if i > 0 {
                println!();
            }
            t.print();
            let rows: Vec<_> =
                t.rows().iter().map(|r| format!("\n        {}", strings(r))).collect();
            json.push(format!(
                "\n      {{\"label\": {}, \"columns\": {}, \"rows\": [{}]}}",
                quote(label),
                strings(t.header()),
                rows.join(",")
            ));
        }
        if !notes.is_empty() {
            println!();
        }
        for n in notes {
            println!("{n}");
        }
        self.sections.push(format!(
            "\n    {{\"name\": {}, \"title\": {}, \"notes\": {}, \"tables\": [{}]}}",
            quote(name),
            quote(title),
            strings(notes),
            json.join(",")
        ));
    }

    fn write(&self, wall: Duration) {
        let body = format!(
            "{{\n  {},\n  \"wall_s\": {:.1},\n  \"sections\": [{}\n  ]\n}}\n",
            self.head,
            wall.as_secs_f64(),
            self.sections.join(",")
        );
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write("results/PAPERFIGS.json", body).expect("write results/PAPERFIGS.json");
        println!("\nwrote results/PAPERFIGS.json ({:.1} s)", wall.as_secs_f64());
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of strings.
fn strings<S: AsRef<str>>(items: &[S]) -> String {
    let items: Vec<_> = items.iter().map(|s| quote(s.as_ref())).collect();
    format!("[{}]", items.join(", "))
}

/// The ring-served figures' system: `opts`' machine with checkpoints
/// every `interval_ms` (0 = no checkpointing).
fn ring_config(opts: &BenchOpts, interval_ms: u64) -> SystemConfig {
    let interval = (interval_ms > 0).then(|| Duration::from_millis(interval_ms));
    SystemConfig { checkpoint_interval: interval, ..opts.system_config() }
}

/// Fig. 10: run time under base (no checkpoint), CoW (1 ms rounds; a
/// write to a committed page takes a CoW fault) and CoW+hybrid (hot pages
/// migrate to DRAM and are stop-and-copied instead), normalized to base.
/// The last two columns split the CoW run's overhead into the kernel's
/// disjoint fault-handling and page-copy time, as shares of the base run
/// time; they are core time, so on several cores they may add up to more
/// than the wall-clock overhead.
fn fig10(opts: &BenchOpts) -> Table {
    let deadline = Duration::from_secs(if opts.full { 600 } else { 120 });
    let mut t = Table::new(&["Workload", "base", "CoW", "CoW+hybrid", "CoW fault", "CoW memcpy"]);
    let ckpt = Some(Duration::from_millis(1));
    for kind in TABLE4 {
        let [(base, _), (cow, split), (hybrid, _)] = [(None, false), (ckpt, false), (ckpt, true)]
            .map(|(interval, hybrid)| {
                let mut bench = build(kind, &BenchOpts { interval, hybrid, ..opts.clone() });
                let before = bench.sys.kernel().stats.snapshot();
                let ns = bench.run(deadline).as_nanos() as f64;
                (ns, bench.sys.kernel().stats.snapshot().since(&before))
            });
        t.row(vec![
            kind.label().to_string(),
            format!("1.00 ({:.0}ms)", base / 1e6),
            format!("{:.2}", cow / base),
            format!("{:.2}", hybrid / base),
            format!("{:.2}", split.fault_ns as f64 / base),
            format!("{:.2}", split.memcpy_ns as f64 / base),
        ]);
    }
    t
}

/// Fig. 11: SET then GET latency of an 8-shard ring-served KV under 8
/// client threads, per checkpoint interval. Keys double as flow ids, so a
/// key always reaches the same shard.
fn fig11(opts: &BenchOpts) -> Table {
    let ops = 8 * if opts.full { 50_000 } else { 3_000 };
    let mut t = Table::new(&["Interval", "SET P50", "SET P95", "GET P50", "GET P95"]);
    for (label, ms) in [("baseline", 0), ("1ms", 1), ("5ms", 5), ("10ms", 10), ("50ms", 50)] {
        let mut sys = System::boot(ring_config(opts, ms));
        let dep = deploy_kv(&sys, 8, 8192, 128, false, ShardGeometry::default());
        sys.start();
        let mut row = vec![label.to_string()];
        for (seed, stride, set) in [(0x5151u64, 7919u64, true), (0x6161, 104_729, false)] {
            let budget = Arc::new(AtomicU64::new(ops));
            let make_ops = |t: usize| {
                let (budget, mut rng) = (Arc::clone(&budget), seed + t as u64 * stride);
                Box::new(move || {
                    budget.fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1)).ok()?;
                    rng = xorshift64(rng);
                    let id = (rng >> 8) % 10_000;
                    let key = numeric_key(id);
                    Some((
                        id,
                        if set {
                            KvOp::Set { key, value: vec![7; 100] }
                        } else {
                            KvOp::Get { key }
                        },
                    ))
                }) as Box<dyn FnMut() -> Option<(u64, KvOp)> + Send>
            };
            let lat = run_parallel_clients(&dep.nic, 8, make_ops, Duration::from_secs(5)).latency;
            row.extend([lat.p50(), lat.p95()].map(ns_as_us));
        }
        sys.stop();
        t.row(row);
    }
    t
}

/// Requests a Fig. 12 client pipelines before waiting for the replies.
const BATCH: usize = 32;

/// Fig. 12: clients pipeline batches of 1024 B SETs against a
/// single-shard ring server, with no checkpointing, with checkpoints
/// (replies released at once) and with external synchrony (replies held
/// until the covering checkpoint commits).
fn fig12(opts: &BenchOpts) -> (String, Table) {
    let (clients, batches) = if opts.full { (50, 200) } else { (8, 40) };
    let mut t = Table::new(&[
        "Config",
        "Interval",
        "Throughput(Kops/s)",
        "P50 batch lat(ms)",
        "P95 batch lat(ms)",
    ]);
    let configs = std::iter::once(("Baseline", 0, false)).chain(
        [1, 5, 10]
            .into_iter()
            .flat_map(|ms| [("TreeSLS", ms, false), ("TreeSLS-ExtSync", ms, true)]),
    );
    for (name, ms, ext_sync) in configs {
        let mut sys = System::boot(ring_config(opts, ms));
        let geom = ShardGeometry { nslots: 1024, slot_size: 1280, data_stride: 48 << 20 };
        let dep = deploy_kv(&sys, 1, 8192, 1024, ext_sync, geom);
        sys.start();
        let nic = &dep.nic;
        let merged = parking_lot::Mutex::new(Histogram::new());
        let total = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let (merged, total) = (&merged, &total);
                s.spawn(move || {
                    let mut hist = Histogram::new();
                    let mut rng = 0xF00D + c as u64 * 31;
                    for _ in 0..batches {
                        let bt0 = Instant::now();
                        let mut pending = Vec::with_capacity(BATCH);
                        for _ in 0..BATCH {
                            rng = xorshift64(rng);
                            let id = (rng >> 8) % 10_000;
                            let op = KvOp::Set { key: numeric_key(id), value: vec![3; 1024] };
                            match nic.send_request(id, &op.encode()) {
                                Ok(seq) => pending.push(seq),
                                Err(_) => {
                                    // Shed (ring full): drain before continuing.
                                    nic.pump();
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                            }
                        }
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while !pending.is_empty() && Instant::now() < deadline {
                            nic.pump();
                            pending.retain(|&s| nic.try_take(s).is_none());
                            if !pending.is_empty() {
                                std::thread::sleep(Duration::from_micros(20));
                            }
                        }
                        total.fetch_add((BATCH - pending.len()) as u64, Relaxed);
                        // Return the credits of anything that timed out.
                        for s in pending {
                            nic.abandon(s);
                        }
                        hist.record(bt0.elapsed().as_nanos() as u64);
                    }
                    merged.lock().merge(&hist);
                });
            }
        });
        let thr = total.load(Relaxed) as f64 / t0.elapsed().as_secs_f64();
        sys.stop();
        let hist = merged.into_inner();
        t.row(vec![
            name.into(),
            if ms == 0 { "-".into() } else { format!("{ms}ms") },
            format!("{:.1}", thr / 1e3),
            format!("{:.2}", hist.p50() as f64 / 1e6),
            format!("{:.2}", hist.p95() as f64 / 1e6),
        ]);
    }
    let title =
        format!("Figure 12: Redis SET with external synchrony ({clients} clients, batch {BATCH})");
    (title, t)
}

/// Value size of the Fig. 13 and Fig. 14 stores.
const VALUE_LEN: usize = 100;

/// Fig. 13: YCSB throughput of Redis without persistence on TreeSLS and
/// Linux, transparently persisted by 1 ms checkpoints, and persisted by a
/// write-ahead log on Ext4-DAX. The paper: TreeSLS-1ms loses 18–27 % on
/// write-heavy mixes where Linux-WAL loses 64–78 %.
fn fig13(opts: &BenchOpts) -> Table {
    let ops = if opts.full { 200_000 } else { 3_000 };
    let loaded = if opts.full { 10_000 } else { 2_000 };
    let mut t = Table::new(&["Workload", "TreeSLS-base", "TreeSLS-1ms", "Linux-base", "Linux-WAL"]);
    for mix in YcsbMix::ALL {
        let treesls = |ms| {
            let mut sys = System::boot(ring_config(opts, ms));
            let dep = deploy_kv(&sys, 1, 16_384, VALUE_LEN as u64, false, ShardGeometry::default());
            sys.start();
            let mut gen = YcsbGen::new(mix, loaded, VALUE_LEN, 42);
            for (i, op) in gen.load_ops().into_iter().enumerate() {
                let _ = dep.nic.call(i as u64, &op.encode(), Duration::from_secs(5));
            }
            let t0 = Instant::now();
            let done = (0..ops)
                .filter(|&i| {
                    let op = gen.next_op().encode();
                    dep.nic
                        .call(i, &op, Duration::from_secs(5))
                        .ok()
                        .and_then(|o| o.reply())
                        .is_some()
                })
                .count();
            let thr = done as f64 / t0.elapsed().as_secs_f64();
            sys.stop();
            thr
        };
        let linux = |wal: bool| {
            // Even without --optane the WAL pays its fsync, else it would
            // be free; the paper's WAL cost is the synchronous write.
            let latency = LatencyModel::optane();
            latency.set_enabled(opts.optane || wal);
            let host = LinuxHost::new(64 << 20, wal, Arc::new(latency));
            let table = HashKv::format(&host, 0, 16_384, VALUE_LEN as u64).expect("format");
            let mut gen = YcsbGen::new(mix, loaded, VALUE_LEN, 42);
            for op in gen.load_ops() {
                if let KvOp::Set { key, value } = op {
                    table.set(&host, &key, &value).expect("load");
                }
            }
            let t0 = Instant::now();
            for _ in 0..ops * 4 {
                let op = gen.next_op();
                if op.is_write() {
                    host.log_write(&op.encode());
                }
                let _ = match op {
                    KvOp::Get { key } => table.get(&host, &key).map(drop),
                    KvOp::Set { key, value } => table.set(&host, &key, &value).map(drop),
                    KvOp::Del { key } => table.del(&host, &key).map(drop),
                };
            }
            (ops * 4) as f64 / t0.elapsed().as_secs_f64()
        };
        let mut row = vec![mix.label().to_string()];
        row.extend(
            [treesls(0), treesls(1), linux(false), linux(true)].map(|x| format!("{:.1}", x / 1e3)),
        );
        t.row(row);
    }
    t
}

/// How Fig. 14's Aurora baseline persists.
#[derive(Clone, Copy, PartialEq)]
enum Aurora {
    Base,
    Ckpt5ms,
    Api,
    Wal,
}

/// Fig. 14: throughput and write latency of the LSM store (the RocksDB
/// stand-in) under Prefix_dist, on TreeSLS without persistence and with
/// 5 ms and 1 ms checkpoints, and on Aurora without persistence, with its
/// 5 ms checkpoint floor, its journaling API per write, and the store's
/// own WAL.
fn fig14(opts: &BenchOpts) -> Table {
    let ops = if opts.full { 500_000 } else { 20_000 };
    let mut t = Table::new(&["Config", "Throughput(Kops/s)", "P50 write(µs)", "P99 write(µs)"]);
    let treesls = |ms| {
        let mut sys = System::boot(ring_config(opts, ms));
        let dep = deploy_lsm(&sys, false, VALUE_LEN as u64, false, ShardGeometry::default());
        sys.start();
        let (mut gen, mut hist, mut done) = (PrefixDist::new(7), Histogram::new(), 0u64);
        let t0 = Instant::now();
        for _ in 0..ops {
            let (key, is_get) = gen.next_op();
            let mut kb = [0u8; 16];
            kb[..8].copy_from_slice(&key.to_le_bytes());
            let op = if is_get {
                KvOp::Get { key: kb }
            } else {
                KvOp::Set { key: kb, value: vec![9; VALUE_LEN] }
            };
            let ot0 = Instant::now();
            let call = dep.nic.call(key, &op.encode(), Duration::from_secs(10));
            if call.ok().and_then(|o| o.reply()).is_some() {
                done += 1;
                if !is_get {
                    hist.record(ot0.elapsed().as_nanos() as u64);
                }
            }
        }
        let thr = done as f64 / t0.elapsed().as_secs_f64();
        sys.stop();
        (thr, hist)
    };
    let aurora = |mode: Aurora| {
        let cfg = AuroraConfig { mem_len: 96 << 20, ..AuroraConfig::default() };
        let aurora = AuroraSls::new(cfg, Arc::new(LatencyModel::optane()));
        let lsm_cfg = LsmConfig {
            memtable_base: 0,
            memtable_cap: 128,
            storage_base: 8 << 20,
            storage_len: 80 << 20,
            wal_base: (mode == Aurora::Wal).then_some(90 << 20),
            wal_len: 4 << 20,
            val_cap: VALUE_LEN as u64,
        };
        let tree = Lsm::format(&*aurora, lsm_cfg).expect("format");
        if mode == Aurora::Ckpt5ms {
            aurora.start_checkpointing();
        }
        let (mut gen, mut hist) = (PrefixDist::new(7), Histogram::new());
        let t0 = Instant::now();
        for _ in 0..ops * 4 {
            let (key, is_get) = gen.next_op();
            let ot0 = Instant::now();
            if is_get {
                let _ = tree.get(&*aurora, key);
                continue;
            }
            if mode == Aurora::Api {
                let mut rec = key.to_le_bytes().to_vec();
                rec.extend_from_slice(&[9; VALUE_LEN]);
                aurora.journal(&rec);
            }
            tree.put(&*aurora, key, &[9; VALUE_LEN]).expect("put");
            hist.record(ot0.elapsed().as_nanos() as u64);
        }
        let thr = (ops * 4) as f64 / t0.elapsed().as_secs_f64();
        if mode == Aurora::Ckpt5ms {
            aurora.stop_checkpointing();
        }
        (thr, hist)
    };
    for (label, (thr, hist)) in [
        ("TreeSLS-base", treesls(0)),
        ("TreeSLS-5ms", treesls(5)),
        ("TreeSLS-1ms", treesls(1)),
        ("Aurora-base", aurora(Aurora::Base)),
        ("Aurora-5ms", aurora(Aurora::Ckpt5ms)),
        ("Aurora-API", aurora(Aurora::Api)),
        ("Aurora-base-WAL", aurora(Aurora::Wal)),
    ] {
        t.row(vec![
            label.into(),
            format!("{:.1}", thr / 1e3),
            format!("{:.2}", hist.p50() as f64 / 1e3),
            format!("{:.2}", hist.p99() as f64 / 1e3),
        ]);
    }
    t
}

/// Objects the scaling sweep mutates per round, at every tree size.
const DIRTY_SET: usize = 64;

/// Scaling gate: sweeps the total object count 10× at a fixed dirty set.
/// The dirty-queue walk's pause must track the dirty set, not the tree.
/// The gate divides exact medians of the measured rounds' pauses; the
/// tail columns come from the registry's pause histogram (log₂-bucket
/// upper bounds; the max is exact).
fn scaling() -> (Vec<(&'static str, Table)>, Gate) {
    let mut t = Table::new(&[
        "Objects",
        "Dirty/round",
        "Rounds",
        "P50",
        "P95<=",
        "Max",
        "Drained/round",
        "FullWalks",
    ]);
    let sizes = [250, 500, 1000, 2500];
    let mut p50s = Vec::new();
    for objects in sizes {
        let kernel = Kernel::boot(KernelConfig {
            nvm_frames: 16_384,
            dram_pages: 256,
            // Measure the dirty walk alone: no periodic full-walk rounds.
            full_walk_interval: 0,
            ..KernelConfig::default()
        });
        let mgr = CheckpointManager::new(Arc::clone(&kernel), Arc::new(StwController::new()));
        let g = kernel.create_cap_group("scale").expect("cap group");
        let notifs: Vec<_> =
            (0..objects).map(|_| kernel.create_notification(g).expect("notification")).collect();
        // The first round persists the fresh tree, the second settles any
        // deferred work, so measured rounds start from a clean queue.
        mgr.checkpoint().expect("initial checkpoint");
        mgr.checkpoint().expect("settle checkpoint");
        let base = kernel.metrics.snapshot();
        let mut pauses = Vec::with_capacity(GATE_ROUNDS);
        for r in 0..GATE_ROUNDS {
            // A fixed-size working set, spread over the tree.
            for d in 0..DIRTY_SET {
                kernel.signal_object(notifs[(r * 17 + d * 31) % objects]).expect("signal");
            }
            pauses.push(mgr.checkpoint().expect("measured checkpoint").total_pause);
        }
        let snap = kernel.metrics.snapshot().since(&base);
        let p = snap.pause;
        let p50 = figs::median(&pauses);
        t.row(vec![
            objects.to_string(),
            DIRTY_SET.to_string(),
            GATE_ROUNDS.to_string(),
            ns_as_us(p50.as_nanos() as u64),
            ns_as_us(p.p95_ns),
            ns_as_us(p.max_ns),
            (snap.tree_dirty_drained / GATE_ROUNDS as u64).to_string(),
            snap.tree_full_walks.to_string(),
        ]);
        p50s.push(p50);
    }
    let gate = figs::scaling_gate(p50s[0], p50s[p50s.len() - 1]);
    let mut g = Table::new(&["ObjectGrowth", "MedianPauseRatio", "Threshold", "Pass"]);
    g.row(vec![
        format!("{:.1}x", sizes[sizes.len() - 1] as f64 / sizes[0] as f64),
        format!("{:.3}", gate.value),
        format!("{:.2}", gate.bound),
        gate.pass().to_string(),
    ]);
    (vec![("scaling", t), ("gate", g)], gate)
}

/// Pinned writers in the epoch-flip sweep, on a 4-core machine.
const WRITERS: usize = 3;

/// Writes one `u64` per step, round-robin over the writer's heap pages:
/// 8-byte deltas, so a first write racing the concurrent copy takes the
/// in-line undo-log path rather than a whole-page CoW.
struct DirtyPages {
    pages: u64,
}

impl Program for DirtyPages {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        let done = ctx.reg(2);
        let (page, word) = (done % self.pages, (done / self.pages) % 64);
        if ctx.write_u64(page * 4096 + word * 8, 0xE60C_0000 + done).is_err() {
            return StepOutcome::Exited;
        }
        ctx.set_reg(2, done + 1);
        StepOutcome::Ready
    }
}

/// One epoch-flip sweep stage: `WRITERS` pinned writers re-dirty
/// `pages`-page heaps between measured rounds. Returns the run's metrics
/// and the median per-round parked-core time and stopped-core count.
fn flip_stage(pages: u64, full_quiesce: bool) -> (MetricsSnapshot, Duration, usize) {
    let mut config = SystemConfig { cores: 4, checkpoint_interval: None, ..Default::default() };
    config.kernel.nvm_frames = 16_384;
    config.kernel.dram_pages = 512;
    config.kernel.force_full_quiesce = full_quiesce;
    let mut sys = System::boot(config);
    sys.register_program("dirty", Arc::new(DirtyPages { pages }));
    for w in 0..WRITERS {
        let spec =
            ProcessSpec::new(format!("writer{w}")).heap(pages).thread(ThreadSpec::new("dirty"));
        let p = sys.spawn(&spec).expect("spawn writer");
        // The same three cores write every round; core 3 stays clean.
        sys.kernel().sched.set_affinity(p.threads[0], Some(w as u32));
    }
    sys.start();
    // Let each writer touch its whole heap, then settle the fresh tree.
    std::thread::sleep(Duration::from_millis(10));
    sys.checkpoint_now().expect("warmup checkpoint");
    sys.checkpoint_now().expect("settle checkpoint");
    let stw = Arc::clone(sys.manager().stw());
    let (mut parked, mut stopped) = (Vec::new(), Vec::new());
    for _ in 0..GATE_ROUNDS {
        std::thread::sleep(Duration::from_millis(2));
        stw.wait_all_resumed();
        stw.take_paused_ns(); // drop park time accumulated between rounds
        sys.checkpoint_now().expect("measured checkpoint");
        stw.wait_all_resumed();
        parked.push(stw.take_paused_ns());
        stopped.push(stw.stopped_cores());
    }
    let snap = sys.metrics_snapshot();
    sys.stop();
    parked.sort_unstable();
    stopped.sort_unstable();
    (snap, Duration::from_nanos(parked[GATE_ROUNDS / 2]), stopped[GATE_ROUNDS / 2])
}

/// Epoch-flip gates: across a 10× heap sweep under live writers the
/// flip's median pause stays under [`figs::FLIP_MAX_P50_US`], and at the
/// largest heap the cores park for a small share of the full-quiesce
/// oracle's time (every core parks for its whole copy phase).
fn pause_epoch() -> (Vec<(&'static str, Table)>, [Gate; 2]) {
    let mut t = Table::new(&[
        "HeapPages",
        "Owners",
        "Rounds",
        "PauseP50<=",
        "PauseP99<=",
        "PauseMax",
        "ParkedMed",
        "StoppedMed",
        "Flips",
        "Conflicts",
        "InlineLogs",
        "InlineBytes",
        "ConcCopy",
    ]);
    let us = |ns: u64| format!("{:.2}", ns as f64 / 1e3);
    let (mut p50s, mut epoch_parked) = (Vec::new(), Duration::ZERO);
    for pages in [8, 24, 80] {
        let (s, parked, stopped) = flip_stage(pages, false);
        t.row(vec![
            format!("{pages}x{WRITERS}"),
            WRITERS.to_string(),
            GATE_ROUNDS.to_string(),
            us(s.pause.p50_ns),
            us(s.pause.p99_ns),
            us(s.pause.max_ns),
            us(parked.as_nanos() as u64),
            stopped.to_string(),
            s.epoch_flips.to_string(),
            s.epoch_conflicts.to_string(),
            s.inline_log_captures.to_string(),
            s.inline_log_bytes.to_string(),
            us(s.concurrent_copy_ns),
        ]);
        p50s.push(Duration::from_nanos(s.pause.p50_ns));
        epoch_parked = parked;
    }
    let (full, full_parked, full_stopped) = flip_stage(80, true);
    let mut base = Table::new(&["HeapPages", "ParkedMed", "StoppedMed", "PauseP50<="]);
    base.row(vec![
        format!("80x{WRITERS}"),
        us(full_parked.as_nanos() as u64),
        full_stopped.to_string(),
        us(full.pause.p50_ns),
    ]);
    let flip = figs::flip_pause_gate(&p50s);
    let parked = figs::parked_gate(epoch_parked, full_parked);
    let mut g = Table::new(&["WorstP50us", "PauseGateUs", "ParkedRatio", "ParkedGate", "Pass"]);
    g.row(vec![
        format!("{:.2}", flip.value),
        format!("{:.0}", flip.bound),
        format!("{:.4}", parked.value),
        format!("{:.3}", parked.bound),
        (flip.pass() && parked.pass()).to_string(),
    ]);
    (vec![("pause_epoch", t), ("full_quiesce_baseline", base), ("gate", g)], [flip, parked])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_json_specials() {
        assert_eq!(quote(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(quote("tab\tnl\n"), r#""tab\u0009nl\u000a""#);
        assert_eq!(quote("µs ≤ 1"), "\"µs ≤ 1\"");
        assert_eq!(strings(&["x", "y"]), r#"["x", "y"]"#);
        assert_eq!(strings::<&str>(&[]), "[]");
    }
}
