//! The five workloads and the sequence every run follows:
//! set-ups (2 s of them) → measured phase → crash drills (3 s of them) →
//! full read-back → probes (traced pass only) → metrics.

use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use treesls_txn::{check_index_consistency, TxnStore};

use crate::gen::{Gen, KvGen, KvMix, TxnGen};
use crate::lockstep::{Client, Drill, Failures, Measured, Shape};
use crate::openloop::PERIOD_NS;
use crate::probes::{self, Probes};
use crate::rig::{App, Rig, RigSpec};
use crate::stats::{ascending, per_op, percentile};
use crate::trace::Tracer;

/// Set-ups and crash drills go on for this long, and for at least this
/// many of each: `setup_s` and `recover_ms` are their quiet deciles (see
/// `stats`). One recovery of the small images takes 6–25 ms, so 3 s is a
/// hundred drills and more.
const SETUP_SECONDS: f64 = 2.0;
const MIN_SETUPS: usize = 3;
const DRILL_SECONDS: f64 = 3.0;
const MIN_DRILLS: usize = 5;

/// The quiet decile of a repeated timing.
fn quiet(times: impl Iterator<Item = f64>) -> f64 {
    percentile(&ascending(times.collect()), 10.0)
}

#[derive(Debug, Clone, Copy)]
pub enum Mix {
    Kv(KvMix),
    Txn { records: u32, value_len: usize },
}

impl Mix {
    fn keys(&self) -> u32 {
        match self {
            Mix::Kv(m) => m.keys,
            Mix::Txn { records, .. } => *records,
        }
    }

    /// Live user bytes: keys × (key + value).
    fn user_bytes(&self) -> u64 {
        let value_len = match self {
            Mix::Kv(m) => m.value_len,
            Mix::Txn { value_len, .. } => *value_len,
        };
        self.keys() as u64 * (16 + value_len as u64)
    }

    fn gen(&self, seed: u64) -> Gen {
        match *self {
            Mix::Kv(m) => Gen::Kv(KvGen::new(seed, m)),
            Mix::Txn { records, value_len } => Gen::Txn(TxnGen::new(seed, records, value_len)),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub spec: RigSpec,
    pub mix: Mix,
    pub shape: Shape,
    /// Windows of the measured phase that the per-op counters cover
    /// (lockstep; the open loop counts over its whole phase).
    pub count_windows: u64,
}

const fn kv(nbuckets: u64, val_cap: u64, nslots: u64, slot_size: u64, nvm_frames: u32) -> RigSpec {
    RigSpec {
        app: App::Kv { nbuckets, val_cap },
        queues: 2,
        nslots,
        slot_size,
        nvm_frames,
        threaded: false,
    }
}

const WINDOW: Shape = Shape {
    rounds: 4,
    per_round: 32,
};

/// The workloads, in the order BENCHMARK.json lists them. Why each one
/// exists is argued in the README.
pub const WORKLOADS: [Workload; 5] = [
    // Read path: NIC, rings, barrier and hash lookup do the work; the
    // checkpoint has almost nothing to copy.
    Workload {
        name: "kv-read",
        spec: kv(32_768, 64, 512, 128, 16_384),
        mix: Mix::Kv(KvMix {
            keys: 20_000,
            value_len: 64,
            set_permille: 50,
            hot_keys: 0,
            hot_permille: 0,
        }),
        shape: WINDOW,
        count_windows: 2048,
    },
    // Cold-page writes: a 71 MB table against an 8 MiB DRAM cache, so
    // every SET takes a CoW fault and the checkpoint copies the tree.
    Workload {
        name: "kv-write-wide",
        spec: kv(65_536, 512, 512, 640, 65_536),
        mix: Mix::Kv(KvMix {
            keys: 40_000,
            value_len: 512,
            set_permille: 1000,
            hot_keys: 0,
            hot_permille: 0,
        }),
        shape: WINDOW,
        count_windows: 512,
    },
    // Hot-page writes: 90 % of SETs hit 256 keys, whose pages migrate to
    // DRAM and are stop-and-copied each round instead of faulting.
    Workload {
        name: "kv-write-hot",
        spec: kv(32_768, 32, 512, 128, 16_384),
        mix: Mix::Kv(KvMix {
            keys: 20_000,
            value_len: 32,
            set_permille: 1000,
            hot_keys: 256,
            hot_permille: 900,
        }),
        shape: WINDOW,
        count_windows: 2048,
    },
    // Transactions: YCSB-A over the OCC B-tree with one secondary index.
    Workload {
        name: "txn-ycsb-a",
        spec: RigSpec {
            app: App::Txn { node_cap: 2048 },
            queues: 1,
            nslots: 256,
            slot_size: 128,
            nvm_frames: 16_384,
            threaded: false,
        },
        mix: Mix::Txn {
            records: 4096,
            value_len: 32,
        },
        shape: Shape {
            rounds: 2,
            per_round: 32,
        },
        count_windows: 2048,
    },
    // The real thing: timer, core thread, replica, quorum gate.
    Workload {
        name: "kv-openloop-repl",
        spec: RigSpec {
            app: App::Kv {
                nbuckets: 32_768,
                val_cap: 64,
            },
            queues: 2,
            nslots: 2048,
            slot_size: 128,
            nvm_frames: 16_384,
            threaded: true,
        },
        mix: Mix::Kv(KvMix {
            keys: 20_000,
            value_len: 64,
            set_permille: 100,
            hot_keys: 0,
            hot_permille: 0,
        }),
        shape: WINDOW,
        count_windows: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub end_to_end: Vec<Metric>,
    /// Empty unless `traced`.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub fail: Failures,
    /// Failed ÷ attempted.
    pub fail_ratio: f64,
    pub correct: bool,
    pub acked: u64,
    pub counted_ops: u64,
    pub counted_full: bool,
    pub request_stream_hash: u64,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    // Set-up, several times over; the last machine is the one measured.
    let mut setups = Vec::new();
    let mut boots = Vec::new();
    let mut kept = None;
    let begun = Instant::now();
    while setups.len() < MIN_SETUPS || begun.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(kept.take());
        let mut client = Client::new(w.mix.gen(seed), w.mix.keys(), w.shape);
        let t0 = Instant::now();
        let (mut rig, boot) = Rig::boot(w.spec);
        client.preload(&rig);
        if w.spec.threaded {
            rig.sys.start();
        }
        setups.push(t0.elapsed().as_secs_f64());
        boots.push(boot.as_secs_f64() * 1e3);
        kept = Some((rig, client));
    }
    let (mut rig, mut client) = kept.expect("at least one set-up");

    // Measured phase: the same requests, traced or not.
    let mut tracer = Tracer::new(traced);
    let phase = if w.spec.threaded {
        let r = client.measure_open(&rig, &mut tracer, seconds);
        rig.sys.stop();
        r
    } else {
        client.measure(&rig, &mut tracer, seconds, w.count_windows)
    };

    // Crash drills, then read back every key ever written.
    let mut drills: Vec<Drill> = Vec::new();
    let t0 = Instant::now();
    while drills.len() < MIN_DRILLS || t0.elapsed().as_secs_f64() < DRILL_SECONDS {
        let (recovered, drill) = client.drill(rig, &mut tracer, drills.len() as u64 + 1);
        rig = recovered;
        drills.push(drill);
    }
    client.verify_all(&rig);
    if let App::Txn { .. } = w.spec.app {
        let io = rig.host_io();
        let consistent = TxnStore::attach(&io, 0)
            .ok()
            .flatten()
            .and_then(|store| check_index_consistency(&store, &io).ok())
            .is_some_and(|primaries| primaries == w.mix.keys() as usize);
        if !consistent {
            client.fail.index_violations += 1;
        }
    }

    let probes = if traced {
        probes::run(&rig)
    } else {
        Probes::default()
    };
    if traced {
        std::fs::create_dir_all(out_dir).expect("create output directory");
        let path = out_dir.join(format!("trace-{}.jsonl", w.name));
        let file = std::fs::File::create(&path).expect("create trace file");
        tracer
            .write_jsonl(BufWriter::new(file))
            .expect("write trace file");
    }

    // Metrics.
    let frames_bytes = phase.counted.frames_used * 4096;
    let end_to_end = vec![
        m("setup_s", quiet(setups.into_iter()), "s"),
        m(
            "goodput_ops_s",
            percentile(&phase.slice_goodput, 90.0),
            "ops/s",
        ),
        m(
            "ack_p50_us",
            percentile(&phase.slice_ack_p50, 10.0) as f64 / 1e3,
            "us",
        ),
        m(
            "recover_ms",
            quiet(drills.iter().map(|d| d.recover_ms)),
            "ms",
        ),
        m(
            "nvm_write_bytes_per_op",
            per_op(phase.counted.m.nvm_bytes_written, phase.counted_ops),
            "B/op",
        ),
        m(
            "nvm_space_amp",
            frames_bytes as f64 / w.mix.user_bytes() as f64,
            "ratio",
        ),
    ];

    let per_layer = if traced {
        layer_metrics(w, &tracer, &phase, &drills, &probes, &boots)
    } else {
        Vec::new()
    };

    let fail = client.fail;
    let fail_ratio = fail.total() as f64 / client.attempted.max(1) as f64;
    let hard = fail.lost_acks + fail.sync_violations + fail.wrong + fail.index_violations;
    let correct = if w.spec.threaded {
        hard == 0 && fail_ratio <= 0.002
    } else {
        fail.total() == 0
    };
    Outcome {
        workload: w.name,
        traced,
        end_to_end,
        per_layer,
        attempted: client.attempted,
        fail,
        fail_ratio,
        correct: correct && phase.acked() > 0,
        acked: phase.acked(),
        counted_ops: phase.counted_ops,
        counted_full: phase.counted_full,
        request_stream_hash: phase.counted_hash,
    }
}

fn layer_metrics(
    w: &Workload,
    tracer: &Tracer,
    p: &Measured,
    drills: &[Drill],
    probes: &Probes,
    boots: &[f64],
) -> Vec<Metric> {
    let span_per_op = |name: &str| {
        let (ns, ops) = tracer.total(name);
        per_op(ns, ops)
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let (c, k, whole) = (&p.counted.m, &p.counted.k, &p.whole.m);
    let counted = |v: u64| per_op(v, p.counted_ops);
    let per_round = |v: u64| per_op(v, whole.checkpoints);
    let per_stw = |ns: u64| per_op(ns, p.stw.rounds) / 1e3;

    let serve = span_per_op("kernel.serve");
    let fault_copy = per_op(p.whole.k.fault_ns + p.whole.k.memcpy_ns, p.acked());
    let serve_self = if serve > 0.0 { serve - fault_copy } else { 0.0 };
    let is_txn = matches!(w.spec.app, App::Txn { .. });
    let rounds = tracer.durations("checkpoint.round");
    // Counts from the first drill (the image the measured phase left),
    // time over all of them.
    let restore = &drills[0].report;
    let restore_ms = quiet(drills.iter().map(|d| d.report.duration.as_secs_f64() * 1e3));
    let late = p.late_ns.iter().filter(|&&l| l > PERIOD_NS).count();
    // Lockstep: the share of the phase's wall-clock that no span covers,
    // i.e. how far the per-op spans are from summing to 1/goodput.
    let spans_ns: u64 = [
        "net.send",
        "kernel.serve",
        "checkpoint.round",
        "net.harvest",
        "client.work",
    ]
    .iter()
    .map(|n| tracer.total(n).0)
    .sum();
    let residual = if w.spec.threaded {
        0.0
    } else {
        1.0 - spans_ns as f64 / (p.seconds * 1e9)
    };
    let commits = whole.txn_commits + whole.txn_aborts;

    vec![
        m("net.send_ns_per_op", span_per_op("net.send"), "ns/op"),
        m("net.harvest_ns_per_op", span_per_op("net.harvest"), "ns/op"),
        m(
            "net.tx_batch_mean",
            per_op(whole.net_tx_batched_responses, whole.net_tx_batches),
            "count",
        ),
        m(
            "net.rx_occupancy_hwm",
            whole.net_rx_occupancy_hwm as f64,
            "count",
        ),
        m(
            "net.shed_ratio",
            per_op(whole.net_sheds, whole.net_requests + whole.net_sheds),
            "ratio",
        ),
        m("kernel.serve_ns_per_op", serve, "ns/op"),
        m(
            "kernel.write_faults_per_op",
            counted(k.write_faults),
            "1/op",
        ),
        m("kernel.cow_copies_per_op", counted(k.cow_copies), "1/op"),
        m("kernel.fault_ns_per_op", counted(k.fault_ns), "ns/op"),
        m("kernel.memcpy_ns_per_op", counted(k.memcpy_ns), "ns/op"),
        m("kernel.vm_write_64B_ns", probes.vm_write_64b_ns, "ns"),
        m("kernel.vm_read_64B_ns", probes.vm_read_64b_ns, "ns"),
        m("kernel.cow_fault_ns", probes.cow_fault_ns, "ns"),
        m(
            "apps.serve_self_ns_per_op",
            if is_txn { 0.0 } else { serve_self },
            "ns/op",
        ),
        m(
            "txn.serve_self_ns_per_op",
            if is_txn { serve_self } else { 0.0 },
            "ns/op",
        ),
        m(
            "checkpoint.round_p50_us",
            us(percentile(&rounds, 50.0)),
            "us",
        ),
        m(
            "checkpoint.round_p99_us",
            us(percentile(&rounds, 99.0)),
            "us",
        ),
        m(
            "checkpoint.round_ns_per_op",
            span_per_op("checkpoint.round"),
            "ns/op",
        ),
        m("checkpoint.ipi_us_per_round", per_stw(p.stw.ipi_ns), "us"),
        m(
            "checkpoint.cap_tree_us_per_round",
            per_stw(p.stw.cap_tree_ns),
            "us",
        ),
        m(
            "checkpoint.hybrid_wait_us_per_round",
            per_stw(p.stw.hybrid_wait_ns),
            "us",
        ),
        m(
            "checkpoint.others_us_per_round",
            per_stw(p.stw.others_ns),
            "us",
        ),
        m(
            "checkpoint.objects_copied_per_round",
            per_op(p.stw.objects_copied, p.stw.rounds),
            "count",
        ),
        m(
            "checkpoint.hybrid_sac_copies_per_round",
            per_op(c.hybrid_sac_copies, c.checkpoints),
            "count",
        ),
        m(
            "checkpoint.hybrid_migrated_in",
            c.hybrid_migrated_in as f64,
            "count",
        ),
        m("checkpoint.pause_p50_us", us(whole.pause.p50_ns), "us"),
        m("checkpoint.pause_p99_us", us(whole.pause.p99_ns), "us"),
        m(
            "checkpoint.rounds_per_s",
            whole.checkpoints as f64 / p.seconds,
            "1/s",
        ),
        m(
            "checkpoint.epoch_conflicts_per_round",
            per_round(whole.epoch_conflicts),
            "count",
        ),
        m(
            "checkpoint.inline_log_captures_per_round",
            per_round(whole.inline_log_captures),
            "count",
        ),
        m(
            "checkpoint.concurrent_copy_us_per_round",
            us(whole.concurrent_copy_ns),
            "us",
        ),
        m("checkpoint.restore_ms", restore_ms, "ms"),
        m(
            "checkpoint.restore_us_per_page",
            restore_ms * 1e3 / restore.pages.max(1) as f64,
            "us",
        ),
        m("checkpoint.restore_pages", restore.pages as f64, "count"),
        m(
            "checkpoint.restore_objects",
            restore.objects as f64,
            "count",
        ),
        m("extsync.ring_push_pop_ns", probes.ring_push_pop_ns, "ns"),
        m(
            "extsync.visible_lag_max",
            whole.net_visible_lag_max as f64,
            "count",
        ),
        m(
            "pmem-alloc.page_alloc_free_ns",
            probes.page_alloc_free_ns,
            "ns",
        ),
        m(
            "pmem-alloc.slab_alloc_free_128B_ns",
            probes.slab_alloc_free_128b_ns,
            "ns",
        ),
        m(
            "pmem-alloc.journal_high_water",
            whole.journal_high_water as f64,
            "count",
        ),
        m(
            "pmem-alloc.frames_used",
            p.counted.frames_used as f64,
            "count",
        ),
        m("nvm.page_copy_ns", probes.page_copy_ns, "ns"),
        m("nvm.page_copies_per_op", counted(c.nvm_page_copies), "1/op"),
        m(
            "repl.bytes_shipped_per_round",
            per_op(whole.repl_bytes_shipped, whole.repl_rounds_shipped),
            "B",
        ),
        m(
            "repl.pages_shipped_per_round",
            per_op(whole.repl_pages_shipped, whole.repl_rounds_shipped),
            "count",
        ),
        m("repl.lag_rounds", whole.repl_lag as f64, "count"),
        m(
            "repl.degraded_entries",
            whole.repl_degraded_entries as f64,
            "count",
        ),
        m(
            "txn.commits_per_s",
            whole.txn_commits as f64 / p.seconds,
            "1/s",
        ),
        m(
            "txn.abort_ratio",
            per_op(whole.txn_aborts, commits),
            "ratio",
        ),
        m(
            "txn.conflict_retries",
            whole.txn_conflict_retries as f64,
            "count",
        ),
        m("txn.durable_lag_seq", p.txn_lag as f64, "count"),
        m("core.boot_ms", quiet(boots.iter().copied()), "ms"),
        m(
            "core.crash_ms",
            quiet(drills.iter().map(|d| d.crash_ms)),
            "ms",
        ),
        m("client.ack_p99_us", us(percentile(&p.ack_ns, 99.0)), "us"),
        m(
            "client.ack_max_us",
            us(p.ack_ns.last().copied().unwrap_or(0)),
            "us",
        ),
        m("client.samples", p.ack_ns.len() as f64, "count"),
        m(
            "client.late_send_ratio",
            late as f64 / p.late_ns.len().max(1) as f64,
            "ratio",
        ),
        m(
            "client.late_send_p99_us",
            us(percentile(&p.late_ns, 99.0)),
            "us",
        ),
        m(
            "client.traced_goodput_ops_s",
            percentile(&p.slice_goodput, 90.0),
            "ops/s",
        ),
        m("client.work_ns_per_op", span_per_op("client.work"), "ns/op"),
        m("client.budget_residual_ratio", residual, "ratio"),
    ]
}
