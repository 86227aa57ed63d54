//! Workload assembly for the evaluation benchmarks.
//!
//! Builds the Table 2 workloads on a TreeSLS instance: the *default*
//! system-services-only configuration, the single-threaded SQLite and
//! LevelDB stand-ins, the 8-threaded Phoenix kernels (WordCount, KMeans,
//! PCA) and the in-system Redis/Memcached client/server pairs ("clients
//! were also checkpointed", §7.3).
//!
//! Scales are reduced from the paper's (100 MiB datasets, 10 M keys) so a
//! full table regenerates in seconds; pass `--full` to `paperfigs` for
//! paper-scale runs. Shapes, not absolute sizes, are the target.

use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls::{
    CapRights, KernelConfig, LatencyProfile, ObjId, ProcessSpec, System,
    SystemConfig, ThreadSpec, Vpn,
};
use treesls_apps::phoenix::{KMeans, Pca, WordCount};
use treesls_apps::server::{regs, BtreeWorker, IpcKvClient, IpcKvServer, KvService, LsmFillBatch};
use treesls_apps::lsm::LsmConfig;
use treesls_kernel::object::ObjectBody;
use treesls_kernel::program::{Program, StepOutcome, UserCtx};
use treesls_kernel::types::CapSlot;

/// The workloads of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// System services only.
    Default,
    /// Single-threaded B+-tree mixed benchmark.
    Sqlite,
    /// Single-threaded LSM fillbatch.
    Leveldb,
    /// 8-threaded text aggregation.
    WordCount,
    /// 8-threaded clustering.
    KMeans,
    /// 8-threaded covariance (Figure 10 only).
    Pca,
    /// Single-threaded KV server + 8 in-system clients, SET-heavy.
    Redis,
    /// 4-threaded sharded KV server + 8 in-system clients.
    Memcached,
}

impl WorkloadKind {
    /// Table 2 row order.
    pub const TABLE2: [WorkloadKind; 7] = [
        WorkloadKind::Default,
        WorkloadKind::Sqlite,
        WorkloadKind::Leveldb,
        WorkloadKind::WordCount,
        WorkloadKind::KMeans,
        WorkloadKind::Redis,
        WorkloadKind::Memcached,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Default => "Default",
            WorkloadKind::Sqlite => "SQLite",
            WorkloadKind::Leveldb => "LevelDB",
            WorkloadKind::WordCount => "WordCount",
            WorkloadKind::KMeans => "KMeans",
            WorkloadKind::Pca => "PCA",
            WorkloadKind::Redis => "Redis",
            WorkloadKind::Memcached => "Memcached",
        }
    }
}

/// Benchmark-wide options.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Simulated cores.
    pub cores: usize,
    /// Checkpoint interval (`None` = no checkpointing).
    pub interval: Option<Duration>,
    /// Hybrid copy enabled.
    pub hybrid: bool,
    /// Paper-scale workloads.
    pub full: bool,
    /// Calibrated NVM latency injection.
    pub optane: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            // The default suits small hosts; the experiments' *shapes* do
            // not depend on real parallelism (pass --cores N to scale up).
            cores: 2,
            interval: Some(Duration::from_millis(1)),
            hybrid: true,
            full: false,
            optane: false,
        }
    }
}

impl BenchOpts {
    /// The flags [`parse`](Self::parse) accepts.
    pub const USAGE: &'static str = "usage: [--full] [--optane] [--cores N]";

    /// Parses the command-line flags (program name excluded). An unknown
    /// flag or a missing or non-numeric `--cores` value is an error, so a
    /// stale command line cannot run at settings it did not ask for.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Self::default();
        let mut args = args.iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => o.full = true,
                "--optane" => o.optane = true,
                "--cores" => {
                    let n = args.next().ok_or("--cores needs a value")?;
                    o.cores = n
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!("--cores {n}: not a core count"))?;
                }
                _ => return Err(format!("unknown flag {a}")),
            }
        }
        Ok(o)
    }

    /// The system these options describe.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            kernel: KernelConfig {
                nvm_frames: if self.full { 262_144 } else { 65_536 }, // 1 GiB / 256 MiB
                dram_pages: if self.full { 16_384 } else { 4_096 },
                hot_threshold: 3,
                idle_evict_rounds: 8,
                hybrid_copy: self.hybrid,
                force_full_walk: false,
                full_walk_interval: 64,
                force_full_quiesce: false,
                latency: if self.optane { LatencyProfile::Optane } else { LatencyProfile::Uniform },
            },
            cores: self.cores,
            quantum: 32,
            checkpoint_interval: self.interval,
        }
    }
}

/// A blocked-forever service program: waits on a notification that is
/// never signalled, so service threads contribute kernel objects (Table 2
/// composition) without consuming CPU.
#[derive(Debug)]
pub struct ServiceIdle {
    /// Capability slot of the service's park notification.
    pub notif_slot: CapSlot,
}

impl Program for ServiceIdle {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        match ctx.notif_wait(self.notif_slot) {
            Ok(true) => StepOutcome::Yielded,
            Ok(false) => StepOutcome::Blocked,
            Err(_) => StepOutcome::Exited,
        }
    }
}

/// A built workload on a booted (not yet started) system.
pub struct BenchSystem {
    /// The machine.
    pub sys: System,
    /// Threads that run to completion (empty for open-ended workloads).
    pub workers: Vec<ObjId>,
    /// VM space of the primary application process.
    pub app_vmspace: Option<ObjId>,
}

/// Finds the capability slot of `obj` in `group`.
pub fn find_cap_slot(sys: &System, group: ObjId, obj: ObjId) -> CapSlot {
    let g = sys.kernel().object(group).expect("group");
    let body = g.body.read();
    let ObjectBody::CapGroup(cg) = &*body else { panic!("not a cap group") };
    let slot = cg.iter().find(|(_, c)| c.obj == obj).map(|(s, _)| s).expect("cap installed");
    drop(body);
    slot
}

/// Spawns the system services that make up the *default* workload.
fn spawn_services(sys: &System) {
    for (name, threads, heap_pages) in
        [("procmgr", 4u64, 16u64), ("fsmgr", 8, 32), ("netdrv", 6, 16), ("shell", 4, 8), ("logd", 4, 8)]
    {
        let g = sys.kernel().create_cap_group(name).expect("service group");
        let vs = sys.kernel().create_vmspace(g).expect("service vmspace");
        let pmo = sys
            .kernel()
            .create_pmo(g, heap_pages, treesls::PmoKind::Data)
            .expect("service heap");
        sys.kernel().map_region(vs, Vpn(0), heap_pages, pmo, 0, CapRights::ALL).expect("map");
        let notif = sys.kernel().create_notification(g).expect("park notif");
        let slot = find_cap_slot(sys, g, notif);
        let prog = format!("svc-idle-{name}");
        sys.register_program(&prog, Arc::new(ServiceIdle { notif_slot: slot }));
        for _ in 0..threads {
            sys.kernel()
                .create_thread(g, vs, &prog, treesls::ThreadContext::new())
                .expect("service thread");
        }
        // Touch a few heap pages so services own memory (Table 2 PMO
        // composition).
        for p in 0..heap_pages.min(4) {
            sys.write_mem(vs, p * 4096, &[0x5A; 64]).expect("touch");
        }
    }
    // Service interconnects: IPC between procmgr-ish groups (composition
    // only; idle).
    let root = sys.kernel().root();
    let _ = sys.kernel().create_ipc_conn(root, root);
}

/// Builds `kind` on a fresh system. The system is *not* started.
pub fn build(kind: WorkloadKind, opts: &BenchOpts) -> BenchSystem {
    let sys = System::boot(opts.system_config());
    spawn_services(&sys);
    let scale = if opts.full { 1.0 } else { 0.05 };
    let mut workers = Vec::new();
    let mut app_vmspace = None;
    match kind {
        WorkloadKind::Default => {}
        WorkloadKind::Sqlite => {
            let ops = (4_000_000.0 * scale) as u64;
            let node_cap = if opts.full { 8192 } else { 1024 };
            let heap_pages = (treesls_txn::store::region_len(node_cap) / 4096) + 2;
            sys.register_program(
                "sqlite",
                Arc::new(BtreeWorker { table_base: 0, node_cap, key_space: 10_000, batch: 16 }),
            );
            let p = sys
                .spawn(
                    &ProcessSpec::new("sqlite")
                        .heap(heap_pages)
                        .thread(ThreadSpec::new("sqlite").reg(regs::TARGET, ops)),
                )
                .expect("sqlite process");
            workers.extend(&p.threads);
            app_vmspace = Some(p.vmspace);
        }
        WorkloadKind::Leveldb => {
            let ops = (2_000_000.0 * scale) as u64;
            let lsm = LsmConfig {
                memtable_base: 0,
                memtable_cap: 128,
                storage_base: 1 << 20,
                storage_len: 48 << 20,
                wal_base: None,
                wal_len: 0,
                val_cap: 100,
            };
            sys.register_program(
                "leveldb",
                Arc::new(LsmFillBatch { lsm, val_len: 100, batch: 8 }),
            );
            let p = sys
                .spawn(
                    &ProcessSpec::new("leveldb")
                        .heap((50 << 20) / 4096)
                        .thread(ThreadSpec::new("leveldb").reg(regs::TARGET, ops)),
                )
                .expect("leveldb process");
            workers.extend(&p.threads);
            app_vmspace = Some(p.vmspace);
        }
        WorkloadKind::WordCount => {
            let input_len = (100u64 << 20).min(((100u64 << 20) as f64 * scale) as u64).max(1 << 20);
            let tables_base = 128u64 << 20;
            let table_stride = 1u64 << 20;
            let wc = WordCount {
                input_base: 0,
                input_len,
                workers: 8,
                tables_base,
                table_stride,
                nbuckets: 4096,
                chunk: 2048,
            };
            sys.register_program("wordcount", Arc::new(wc));
            let total_pages = (tables_base + 8 * table_stride) / 4096 + 16;
            let mut spec = ProcessSpec::new("wordcount").heap(total_pages);
            for w in 0..8u64 {
                spec = spec.thread(ThreadSpec::new("wordcount").reg(0, w));
            }
            let p = sys.spawn(&spec).expect("wordcount process");
            // Fill the input with words.
            let vocab: [&[u8]; 8] = [
                b"tree", b"sls", b"nvm", b"ckpt", b"cap", b"page", b"fault", b"copy",
            ];
            let mut buf = Vec::with_capacity(64 * 1024);
            let mut x = 0x9E37_79B9u64;
            while (buf.len() as u64) < 64 * 1024 {
                x = treesls_apps::server::xorshift64(x);
                buf.extend_from_slice(vocab[(x % 8) as usize]);
                buf.push(b' ');
            }
            let mut off = 0u64;
            while off < input_len {
                let n = (buf.len() as u64).min(input_len - off) as usize;
                sys.write_mem(p.vmspace, off, &buf[..n]).expect("fill input");
                off += n as u64;
            }
            workers.extend(&p.threads);
            app_vmspace = Some(p.vmspace);
        }
        WorkloadKind::KMeans => {
            let npoints = 10_000u64;
            let dims = 2u64;
            let k = 16u64;
            let iters = if opts.full { 30 } else { 8 };
            let centroids_base = 8u64 << 20;
            let accum_base = 9u64 << 20;
            let km = KMeans {
                points_base: 0,
                npoints,
                dims,
                centroids_base,
                k,
                accum_base,
                accum_stride: 64 * 1024,
                workers: 8,
                chunk: 64,
                iters,
            };
            sys.register_program("kmeans", Arc::new(km));
            let total_pages = (accum_base + 8 * 64 * 1024) / 4096 + 16;
            let mut spec = ProcessSpec::new("kmeans").heap(total_pages);
            for w in 0..8u64 {
                spec = spec.thread(ThreadSpec::new("kmeans").reg(0, w));
            }
            let p = sys.spawn(&spec).expect("kmeans process");
            // Points and initial centroids.
            let mut x = 7u64;
            let mut pt = Vec::with_capacity((npoints * dims * 4) as usize);
            for _ in 0..npoints * dims {
                x = treesls_apps::server::xorshift64(x);
                pt.extend_from_slice(&((x % 1000) as f32).to_le_bytes());
            }
            sys.write_mem(p.vmspace, 0, &pt).expect("points");
            let mut cent = Vec::new();
            for i in 0..k * dims {
                cent.extend_from_slice(&((i * 37 % 1000) as f32).to_le_bytes());
            }
            sys.write_mem(p.vmspace, centroids_base, &cent).expect("centroids");
            workers.extend(&p.threads);
            app_vmspace = Some(p.vmspace);
        }
        WorkloadKind::Pca => {
            let n = if opts.full { 512u64 } else { 128 };
            let means_base = 32u64 << 20;
            let cov_base = 33u64 << 20;
            let pca = Pca {
                matrix_base: 0,
                n,
                means_base,
                cov_base,
                workers: 8,
                chunk: 2,
            };
            sys.register_program("pca", Arc::new(pca));
            let total_pages = (cov_base + n * n * 4) / 4096 + 16;
            let mut spec = ProcessSpec::new("pca").heap(total_pages);
            for w in 0..8u64 {
                spec = spec.thread(ThreadSpec::new("pca").reg(0, w));
            }
            let p = sys.spawn(&spec).expect("pca process");
            let mut x = 13u64;
            let mut m = Vec::with_capacity((n * n * 4) as usize);
            for _ in 0..n * n {
                x = treesls_apps::server::xorshift64(x);
                m.extend_from_slice(&((x % 100) as f32).to_le_bytes());
            }
            sys.write_mem(p.vmspace, 0, &m).expect("matrix");
            workers.extend(&p.threads);
            app_vmspace = Some(p.vmspace);
        }
        WorkloadKind::Redis | WorkloadKind::Memcached => {
            let shards: u64 = if kind == WorkloadKind::Memcached { 4 } else { 1 };
            let ops_per_client = (400_000.0 * scale) as u64;
            let (val_len, write_pct, nbuckets) = if kind == WorkloadKind::Memcached {
                (100usize, 100u64, 16_384u64)
            } else {
                (1024usize, 100u64, 16_384u64)
            };
            let sg = sys.kernel().create_cap_group("kv-server").expect("server group");
            let svs = sys.kernel().create_vmspace(sg).expect("server vmspace");
            let table_stride = 32u64 << 20;
            let heap_pages = shards * table_stride / 4096 + 16;
            let pmo = sys
                .kernel()
                .create_pmo(sg, heap_pages, treesls::PmoKind::Data)
                .expect("server heap");
            sys.kernel().map_region(svs, Vpn(0), heap_pages, pmo, 0, CapRights::ALL).expect("map");
            let cg = sys.kernel().create_cap_group("kv-clients").expect("client group");
            let cvs = sys.kernel().create_vmspace(cg).expect("client vmspace");
            let mut client_slots = Vec::new();
            for s in 0..shards {
                let (_conn, sslot, cslot) =
                    sys.kernel().create_ipc_conn(sg, cg).expect("shard conn");
                client_slots.push(cslot);
                let prog = format!("kv-shard-{s}");
                sys.register_program(
                    &prog,
                    Arc::new(IpcKvServer {
                        conn_slot: sslot,
                        kv: KvService {
                            table_base: s * table_stride,
                            nbuckets,
                            val_cap: val_len as u64,
                        },
                    }),
                );
                sys.kernel()
                    .create_thread(sg, svs, &prog, treesls::ThreadContext::new())
                    .expect("server thread");
            }
            sys.register_program(
                "kv-client",
                Arc::new(IpcKvClient {
                    shard_slots: client_slots,
                    key_space: 10_000,
                    val_len,
                    write_ratio_percent: write_pct,
                }),
            );
            for c in 0..8u64 {
                let mut ctx = treesls::ThreadContext::new();
                ctx.regs[regs::TARGET] = ops_per_client;
                ctx.regs[regs::RNG] = 0x1234_5678 + c * 977;
                let tid = sys
                    .kernel()
                    .create_thread(cg, cvs, "kv-client", ctx)
                    .expect("client thread");
                workers.push(tid);
            }
            app_vmspace = Some(svs);
        }
    }
    BenchSystem { sys, workers, app_vmspace }
}

impl BenchSystem {
    /// Starts the system, waits for the workers to finish (or `deadline`
    /// for open-ended workloads), stops, and returns the wall time.
    pub fn run(&mut self, deadline: Duration) -> Duration {
        let t0 = Instant::now();
        self.sys.start();
        if self.workers.is_empty() {
            std::thread::sleep(deadline);
        } else if !self.sys.join_threads(&self.workers, deadline) {
            eprintln!("warning: workload did not finish within {deadline:?}");
        }
        let elapsed = t0.elapsed();
        self.sys.stop();
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchOpts, String> {
        BenchOpts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_accepts_the_three_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.cores, o.full, o.optane), (2, false, false));
        let o = parse(&["--full", "--cores", "4", "--optane"]).unwrap();
        assert_eq!((o.cores, o.full, o.optane), (4, true, true));
    }

    #[test]
    fn parse_rejects_an_unknown_flag() {
        assert!(parse(&["--json"]).unwrap_err().contains("--json"));
        assert!(parse(&["--full", "--gate", "2.0"]).unwrap_err().contains("--gate"));
    }

    #[test]
    fn parse_rejects_a_bad_core_count() {
        for bad in [&["--cores"][..], &["--cores", "two"], &["--cores", "0"], &["--cores", "-1"]] {
            assert!(parse(bad).unwrap_err().contains("--cores"), "{bad:?}");
        }
    }
}
