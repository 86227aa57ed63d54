//! NIC-backed server setup shared by the external-client experiments
//! (Figures 11, 12, 13 and 14).
//!
//! Thin wrappers over `treesls_net::deploy`: they pick the data layout
//! (per-queue table shards, RX cursors in the last page of each shard's
//! stride) and plug the `treesls-apps` protocol services into the
//! poll-mode runtime.

use std::sync::Arc;

use treesls::extsync::HostIo;
use treesls::net::{deploy::DeploySpec, NicConfig, Service};
use treesls::System;
use treesls_apps::lsm::LsmConfig;
use treesls_apps::server::{KvService, LsmService};
use treesls_txn::{store::region_len, TxnGate, TxnService};

pub use treesls::net::deploy::NicDeployment as RingDeployment;

/// Geometry of one queue's rings and table shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardGeometry {
    /// Ring slots per direction.
    pub nslots: u64,
    /// Slot size in bytes (payload + 24-byte header).
    pub slot_size: u64,
    /// Table/stride bytes reserved per queue in the data heap.
    pub data_stride: u64,
}

impl Default for ShardGeometry {
    fn default() -> Self {
        Self { nslots: 256, slot_size: 1280, data_stride: 32 << 20 }
    }
}

/// Builds the [`NicConfig`] the KV/LSM deployments use for `queues`
/// queues over `geom`. Credits equal the ring depth, so admission control
/// sheds exactly where the ring would have rejected the push anyway.
pub fn nic_config(queues: usize, ext_sync: bool, geom: &ShardGeometry) -> NicConfig {
    NicConfig {
        queues,
        nslots: geom.nslots,
        slot_size: geom.slot_size,
        credits: geom.nslots,
        ext_sync,
        fault: Default::default(),
    }
}

/// Spawns a sharded KV server behind a virtual NIC (queue `q` owns the
/// table shard at `q * data_stride`).
pub fn deploy_kv(
    sys: &System,
    queues: u64,
    nbuckets: u64,
    val_cap: u64,
    ext_sync: bool,
    geom: ShardGeometry,
) -> RingDeployment {
    deploy_kv_cfg(sys, nbuckets, val_cap, nic_config(queues as usize, ext_sync, &geom), geom)
}

/// [`deploy_kv`] with full control over the NIC behaviour (credits,
/// faults).
pub fn deploy_kv_cfg(
    sys: &System,
    nbuckets: u64,
    val_cap: u64,
    cfg: NicConfig,
    geom: ShardGeometry,
) -> RingDeployment {
    let spec = DeploySpec {
        name: "ring-kv".into(),
        heap_pages: cfg.queues as u64 * geom.data_stride / 4096 + 1,
        // RX cursor lives in the last page of each queue's data stride.
        cursor_base: geom.data_stride - 4096,
        cursor_stride: geom.data_stride,
        cfg,
        batch: 16,
        pin_cores: None,
    };
    treesls::net::deploy(sys.kernel(), sys.manager(), &spec, |q| {
        Arc::new(KvService {
            table_base: q as u64 * geom.data_stride,
            nbuckets,
            val_cap,
        }) as Arc<dyn Service>
    })
    .expect("deploy kv")
}

/// Spawns a single-queue LSM server (the RocksDB stand-in) behind a
/// virtual NIC.
pub fn deploy_lsm(
    sys: &System,
    wal: bool,
    val_cap: u64,
    ext_sync: bool,
    geom: ShardGeometry,
) -> RingDeployment {
    let lsm = LsmConfig {
        memtable_base: 0,
        memtable_cap: 128,
        storage_base: 8 << 20,
        storage_len: 80 << 20,
        wal_base: wal.then_some(90 << 20),
        wal_len: 4 << 20,
        val_cap,
    };
    let spec = DeploySpec {
        name: "ring-lsm".into(),
        heap_pages: (96u64 << 20) / 4096,
        cursor_base: (92u64 << 20) + 8,
        cursor_stride: 4096,
        cfg: nic_config(1, ext_sync, &geom),
        batch: 16,
        pin_cores: None,
    };
    treesls::net::deploy(sys.kernel(), sys.manager(), &spec, |_| {
        Arc::new(LsmService { lsm }) as Arc<dyn Service>
    })
    .expect("deploy lsm")
}

/// A running transactional deployment: the NIC process plus the shared
/// service handle and the durability gate registered with the checkpoint
/// manager.
pub struct TxnDeployment {
    /// The underlying NIC deployment (vmspace, server threads, NIC).
    pub dep: RingDeployment,
    /// The OCC service all queues dispatch into.
    pub service: Arc<TxnService>,
    /// Checkpoint-gated durability tracking for the store.
    pub gate: Arc<TxnGate>,
}

/// Spawns the transactional B-tree server behind a virtual NIC. The store
/// region sits at heap address 0 sized for `node_cap` tree nodes; the RX
/// cursor lives in the one page after it. Transactions are single-shard,
/// so the config must be single-queue.
pub fn deploy_txn(sys: &System, node_cap: u64, cfg: NicConfig) -> TxnDeployment {
    assert_eq!(cfg.queues, 1, "transactions are single-shard (one queue)");
    let store_len = region_len(node_cap);
    let spec = DeploySpec {
        name: "ring-txn".into(),
        heap_pages: store_len / 4096 + 1,
        cursor_base: store_len,
        cursor_stride: 4096,
        cfg,
        batch: 16,
        pin_cores: None,
    };
    let service = Arc::new(TxnService::new(0, node_cap));
    let svc = Arc::clone(&service);
    let dep = treesls::net::deploy(sys.kernel(), sys.manager(), &spec, move |_| {
        Arc::clone(&svc) as Arc<dyn Service>
    })
    .expect("deploy txn");
    let io = HostIo::new(Arc::clone(sys.kernel()), dep.vmspace);
    let gate = Arc::new(TxnGate::new(io, 0, Arc::clone(&service)));
    sys.manager().register_callback(Arc::clone(&gate) as _);
    TxnDeployment { dep, service, gate }
}
