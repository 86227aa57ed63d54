//! Application-level integration: the paper's real-world app stand-ins
//! running transparently persisted inside TreeSLS, with crash/recover
//! verification of their data structures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls::{ObjType, Program, System, SystemConfig};
use treesls_apps::btree::{BTree, VAL_LEN};
use treesls_apps::hashkv::HashKv;
use treesls_apps::lsm::{Lsm, LsmConfig};
use treesls_apps::wire::{make_key, KvOp, KvResp};
use treesls_bench::harness::{build, BenchOpts, WorkloadKind};
use treesls_bench::ringsetup::{deploy_kv, ShardGeometry};
use treesls_extsync::{HostIo, MemIo};
use treesls_kernel::object::ObjectBody;

fn opts() -> BenchOpts {
    BenchOpts { cores: 2, interval: Some(Duration::from_millis(1)), ..BenchOpts::default() }
}

/// Runs a Table 2 workload under 1 ms checkpointing until `rounds`
/// checkpoints have committed. A liveness check with a 30 s cap: rates
/// are measured by `sysbench`, not asserted against a debug build's clock.
fn commits_rounds(kind: WorkloadKind, rounds: u64) {
    let mut bench = build(kind, &opts());
    let kernel = Arc::clone(bench.sys.kernel());
    bench.sys.start();
    let t0 = Instant::now();
    while kernel.pers.global_version() < rounds && t0.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    bench.sys.stop();
    let version = kernel.pers.global_version();
    assert!(version >= rounds, "{}: {version} of {rounds} checkpoints", kind.label());
}

#[test]
fn sqlite_workload_checkpoints_at_speed() {
    commits_rounds(WorkloadKind::Sqlite, 50);
}

#[test]
fn leveldb_workload_checkpoints_at_speed() {
    // LSM flushes make some pauses long; just require sustained progress.
    commits_rounds(WorkloadKind::Leveldb, 10);
}

#[test]
fn phoenix_workloads_complete_under_checkpointing() {
    for kind in [WorkloadKind::KMeans, WorkloadKind::Pca] {
        let mut bench = build(kind, &opts());
        let done = {
            bench.sys.start();
            let ok = bench.sys.join_threads(&bench.workers, Duration::from_secs(120));
            bench.sys.stop();
            ok
        };
        assert!(done, "{} did not finish", kind.label());
        assert!(bench.sys.kernel().pers.global_version() >= 10);
    }
}

#[test]
fn wordcount_counts_match_input() {
    let o = BenchOpts { cores: 4, ..opts() };
    let mut bench = build(WorkloadKind::WordCount, &o);
    bench.sys.start();
    assert!(bench.sys.join_threads(&bench.workers, Duration::from_secs(120)));
    bench.sys.stop();
    // Sum per-worker counts of one word and sanity-check totals: every
    // vocabulary word has 4 or 5 letters + 1 space separator.
    let vs = bench.app_vmspace.unwrap();
    let io = HostIo::new(Arc::clone(bench.sys.kernel()), vs);
    let mut total = 0u64;
    for w in 0..8u64 {
        let table = HashKv::attach(&io, 128 << 20 | (w << 20)).ok();
        let table = match table {
            Some(t) => t,
            None => HashKv::attach(&io, (128u64 << 20) + w * (1 << 20)).unwrap(),
        };
        for word in ["tree", "sls", "nvm", "ckpt", "cap", "page", "fault", "copy"] {
            if let Some(v) = table.get(&io, &make_key(word.as_bytes())).unwrap() {
                total += u64::from_le_bytes(v.try_into().unwrap());
            }
        }
    }
    assert!(total > 100_000, "only {total} words counted");
}

#[test]
fn kv_store_contents_survive_crash_recover() {
    let mut sys = System::boot(SystemConfig {
        kernel: treesls::KernelConfig {
            nvm_frames: 65_536,
            dram_pages: 1024,
            ..Default::default()
        },
        cores: 2,
        quantum: 32,
        checkpoint_interval: Some(Duration::from_millis(1)),
    });
    let dep = deploy_kv(&sys, 2, 1024, 128, false, ShardGeometry::default());
    sys.start();
    // Populate both shards; the key doubles as the flow id, so the RSS
    // hash decides which shard owns each key.
    for i in 0..100u64 {
        let op = KvOp::Set {
            key: make_key(format!("key{i}").as_bytes()),
            value: format!("value{i}").into_bytes(),
        };
        let resp = dep
            .nic
            .call(i, &op.encode(), Duration::from_secs(5))
            .unwrap()
            .reply()
            .expect("SET acked");
        assert!(matches!(KvResp::decode(&resp), Some(KvResp::Ok(None))));
    }
    std::thread::sleep(Duration::from_millis(10)); // cover with checkpoints
    sys.stop();
    let programs: Vec<(String, Arc<dyn Program>)> = sys
        .programs()
        .names()
        .into_iter()
        .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
        .collect();
    let cfg = SystemConfig {
        kernel: treesls::KernelConfig {
            nvm_frames: 65_536,
            dram_pages: 1024,
            ..Default::default()
        },
        cores: 2,
        quantum: 32,
        checkpoint_interval: None,
    };
    let image = sys.crash();
    let (sys2, _) = System::recover(image, cfg, move |r| {
        for (n, p) in programs {
            r.register(&n, p);
        }
    })
    .unwrap();
    // Verify the tables directly in restored memory.
    let vs2 = {
        let kernel = sys2.kernel();
        let objects = kernel.objects.read();
        let found = objects
            .iter()
            .filter(|(_, o)| o.otype == ObjType::VmSpace)
            .map(|(id, _)| id)
            .find(|&id| {
                let o = kernel.object(id).unwrap();
                let body = o.body.read();
                let yes =
                    matches!(&*body, ObjectBody::VmSpace(v) if v.regions.len() >= 2);
                drop(body);
                yes
            })
            .expect("server vmspace");
        found
    };
    let io = HostIo::new(Arc::clone(sys2.kernel()), vs2);
    let stride = ShardGeometry::default().data_stride;
    for shard in 0..2u64 {
        let table = HashKv::attach(&io, shard * stride).expect("restored table");
        for i in 0..100u64 {
            if treesls::net::queue_for(i, 2) != shard as usize {
                continue;
            }
            let got = table.get(&io, &make_key(format!("key{i}").as_bytes())).unwrap();
            assert_eq!(
                got,
                Some(format!("value{i}").into_bytes()),
                "key{i} lost in crash"
            );
        }
    }
}

#[test]
fn data_structures_work_through_host_io() {
    // The same structures accessible via DMA-style HostIo — a sanity check
    // that MemIo genericity holds across backends.
    let sys = System::boot(SystemConfig::small());
    let kernel = sys.kernel();
    let g = kernel.create_cap_group("direct").unwrap();
    let vs = kernel.create_vmspace(g).unwrap();
    let pmo = kernel.create_pmo(g, 2048, treesls::PmoKind::Data).unwrap();
    kernel
        .map_region(vs, treesls::Vpn(0), 2048, pmo, 0, treesls::CapRights::ALL)
        .unwrap();
    let io = HostIo::new(Arc::clone(kernel), vs);

    let bt = BTree::format(&io, 0, 64).unwrap();
    let mut v = [0u8; VAL_LEN];
    v[0] = 42;
    bt.insert(&io, 7, &v).unwrap();
    assert_eq!(bt.get(&io, 7).unwrap().unwrap()[0], 42);

    let lsm_cfg = LsmConfig {
        memtable_base: 1 << 20,
        memtable_cap: 16,
        storage_base: 2 << 20,
        storage_len: 4 << 20,
        wal_base: None,
        wal_len: 0,
        val_cap: 32,
    };
    let lsm = Lsm::format(&io, lsm_cfg).unwrap();
    for k in 0..50u64 {
        lsm.put(&io, k, &k.to_le_bytes()).unwrap();
    }
    for k in 0..50u64 {
        assert_eq!(lsm.get(&io, k).unwrap(), Some(k.to_le_bytes().to_vec()));
    }
    // Memory ops went through the kernel path: pages were materialized.
    assert!(io.mem_read_u64(lsm_cfg.memtable_base).is_ok());
}
