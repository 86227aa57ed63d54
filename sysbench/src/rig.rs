//! The system under test: boot, deploy, serve, checkpoint, crash and
//! recover — every call into the crates goes through here or through the
//! drivers' timed sections, always by a public item (listed in the
//! README so a later PR knows what the benchmark pins).

use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls::extsync::HostIo;
use treesls::net::{self, DeploySpec, NicConfig, NicLayout, Service, VirtualNic};
use treesls::{
    KernelConfig, ObjId, ObjType, Program, RestoreReport, StwBreakdown, System, SystemConfig,
};
use treesls_apps::hashkv::HashKv;
use treesls_apps::server::KvService;
use treesls_kernel::cores::run_slice;
use treesls_kernel::object::ObjectBody;
use treesls_repl::{Cluster, ClusterConfig, ShipConfig};
use treesls_txn::store::region_len;
use treesls_txn::{TxnGate, TxnService};

/// Cap-group (and program-name prefix) of the deployed service.
const SERVICE: &str = "sysbench";
/// Program steps per scheduling slice, lockstep and threaded alike.
const QUANTUM: usize = 32;
/// Requests a server loop serves per step (one batched TX publish).
const BATCH: usize = 32;
/// DRAM hot-page cache of every machine, in pages (8 MiB).
const DRAM_PAGES: usize = 2048;
/// Scratch pages at the top of the data heap for the traced pass's
/// probes; untouched (and so unallocated) in every other phase.
pub const PROBE_PAGES: u64 = 2112;

/// Which service runs behind the NIC.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// One `KvService` hash-table shard per queue.
    Kv { nbuckets: u64, val_cap: u64 },
    /// One `TxnService` (OCC over the CoW B-tree) on a single queue.
    Txn { node_cap: u64 },
}

/// Everything that sizes one machine.
#[derive(Debug, Clone, Copy)]
pub struct RigSpec {
    pub app: App,
    pub queues: usize,
    /// Ring slots per direction per queue (also the admission credits, so
    /// admission sheds only what the ring itself would reject).
    pub nslots: u64,
    pub slot_size: u64,
    pub nvm_frames: u32,
    /// `true`: 1 ms checkpoint timer, one core thread and one replica
    /// with quorum 2 (the caller starts them with `sys.start()`) under
    /// the open-loop driver; `false`: lockstep — no timer, no thread, the
    /// caller is the only core.
    pub threaded: bool,
}

impl RigSpec {
    fn system_config(&self) -> SystemConfig {
        SystemConfig {
            kernel: KernelConfig {
                nvm_frames: self.nvm_frames,
                dram_pages: DRAM_PAGES,
                ..Default::default()
            },
            cores: 1,
            quantum: QUANTUM,
            checkpoint_interval: self.threaded.then_some(Duration::from_millis(1)),
        }
    }

    fn nic_config(&self) -> NicConfig {
        NicConfig {
            queues: self.queues,
            nslots: self.nslots,
            slot_size: self.slot_size,
            credits: self.nslots,
            ..Default::default()
        }
    }

    /// Bytes of heap each queue's shard owns (its last page holds the RX
    /// cursor), or the whole store region for the transactional service.
    fn data_stride(&self) -> u64 {
        match self.app {
            App::Kv { nbuckets, val_cap } => {
                HashKv::region_len(nbuckets, val_cap).div_ceil(4096) * 4096 + 4096
            }
            App::Txn { node_cap } => region_len(node_cap) + 4096,
        }
    }

    /// First byte of the probe scratch region.
    pub fn probe_base(&self) -> u64 {
        self.queues as u64 * self.data_stride()
    }

    fn deploy_spec(&self) -> DeploySpec {
        let stride = self.data_stride();
        DeploySpec {
            name: SERVICE.into(),
            heap_pages: self.probe_base() / 4096 + PROBE_PAGES,
            cursor_base: stride - 4096,
            cursor_stride: stride,
            cfg: self.nic_config(),
            batch: BATCH,
            pin_cores: None,
        }
    }
}

/// One booted (or recovered) machine with its NIC attached.
pub struct Rig {
    pub spec: RigSpec,
    pub sys: System,
    pub nic: Arc<VirtualNic>,
    pub vmspace: ObjId,
    /// Transaction durability frontier (`App::Txn` only).
    pub gate: Option<Arc<TxnGate>>,
    txn: Option<Arc<TxnService>>,
    cluster: Option<Cluster>,
}

/// Timings of one crash → recover → re-attach.
pub struct Recovery {
    /// `System::crash` duration.
    pub crash: Duration,
    /// Instant `System::recover` was entered (the `recover_ms` origin).
    pub entered: Instant,
    pub report: RestoreReport,
}

impl Rig {
    /// Boots a machine, deploys the service and formats its tables.
    /// Returns the rig and the `System::boot` duration.
    pub fn boot(spec: RigSpec) -> (Rig, Duration) {
        assert!(
            matches!(spec.app, App::Kv { .. }) || spec.queues == 1,
            "txn is single-shard"
        );
        let t0 = Instant::now();
        let sys = System::boot(spec.system_config());
        let boot = t0.elapsed();

        let stride = spec.data_stride();
        let txn = match spec.app {
            App::Txn { node_cap } => Some(Arc::new(TxnService::new(0, node_cap))),
            App::Kv { .. } => None,
        };
        let dep = net::deploy(
            sys.kernel(),
            sys.manager(),
            &spec.deploy_spec(),
            |q| match spec.app {
                App::Kv { nbuckets, val_cap } => Arc::new(KvService {
                    table_base: q as u64 * stride,
                    nbuckets,
                    val_cap,
                }) as Arc<dyn Service>,
                App::Txn { .. } => {
                    Arc::clone(txn.as_ref().expect("txn service")) as Arc<dyn Service>
                }
            },
        )
        .expect("deploy service");
        let cluster = spec.threaded.then(|| {
            let cfg = ClusterConfig {
                replicas: 1,
                // A host stall must queue the round, not degrade the
                // cluster into shedding writes: wait 2 s for the quorum,
                // and as long for room in the delta ring (1024 retries at
                // the 2 ms back-off cap; the default 6 give the replica's
                // thread 3 ms to drain a ring that a preload round fills).
                ship: ShipConfig {
                    quorum: 2,
                    ack_timeout: Duration::from_secs(2),
                    max_retries: 1024,
                    ..Default::default()
                },
                // A PMO's record carries its whole page manifest (20 B per
                // live page), so a slot must hold the data heap's: 64 KiB
                // covers 3 000 pages.
                nslots: 512,
                slot_size: 65_536,
                ..Default::default()
            };
            let cluster = Cluster::deploy(&sys, &cfg);
            cluster.attach_gate(&dep.nic);
            cluster.start();
            cluster
        });
        let mut rig = Rig {
            spec,
            sys,
            nic: dep.nic,
            vmspace: dep.vmspace,
            gate: None,
            txn,
            cluster,
        };
        rig.register_txn_gate();
        // First steps format each shard; the servers then park on their
        // doorbells.
        rig.serve();
        (rig, boot)
    }

    fn register_txn_gate(&mut self) {
        if let Some(service) = &self.txn {
            let gate = Arc::new(TxnGate::new(self.host_io(), 0, Arc::clone(service)));
            self.sys.manager().register_callback(Arc::clone(&gate) as _);
            self.gate = Some(gate);
        }
    }

    /// Lockstep serving: the caller is the only core and runs every
    /// runnable thread until all of them block on their doorbells.
    pub fn serve(&self) {
        let kernel = self.sys.kernel();
        while let Some(tid) = kernel.sched.next() {
            run_slice(kernel, tid, QUANTUM, self.sys.manager().stw());
        }
    }

    pub fn checkpoint(&self) -> StwBreakdown {
        self.sys.checkpoint_now().expect("checkpoint")
    }

    /// A DMA view into the service's address space.
    pub fn host_io(&self) -> HostIo {
        HostIo::new(Arc::clone(self.sys.kernel()), self.vmspace)
    }

    /// Pulls the plug, recovers from what the NVM holds, re-attaches the
    /// NIC (and the transaction gate) and fires the restore callbacks.
    /// `generation` must grow with every crash of the same machine: it
    /// keeps post-crash sequence numbers clear of pre-crash ones.
    pub fn crash_and_recover(self, generation: u64) -> (Rig, Recovery) {
        let Rig {
            spec,
            sys,
            nic,
            txn,
            cluster,
            ..
        } = self;
        let programs: Vec<(String, Arc<dyn Program>)> = sys
            .programs()
            .names()
            .into_iter()
            .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
            .collect();
        let layout: NicLayout = nic.layout();
        drop(nic);

        let t0 = Instant::now();
        let image = sys.crash();
        let crash = t0.elapsed();
        // The replica set dies with its primary: the drill is a power
        // failure of this machine, recovered locally.
        drop(cluster);

        let entered = Instant::now();
        let (sys, report) = System::recover(image, spec.system_config(), move |reg| {
            for (name, prog) in programs {
                reg.register(name, prog);
            }
        })
        .expect("recover");
        let (vmspace, doorbells) = restored_service(&sys);
        let nic = VirtualNic::attach(
            Arc::clone(sys.kernel()),
            vmspace,
            layout,
            &spec.nic_config(),
            generation << 40,
        );
        assert_eq!(
            doorbells.len(),
            spec.queues,
            "every queue's doorbell restored"
        );
        for (q, bell) in doorbells.into_iter().enumerate() {
            nic.set_doorbell(q, bell);
        }
        sys.manager().register_callback(Arc::clone(&nic) as _);
        let mut rig = Rig {
            spec,
            sys,
            nic,
            vmspace,
            gate: None,
            txn,
            cluster: None,
        };
        rig.register_txn_gate();
        rig.sys.manager().fire_restore_callbacks(report.version);
        (
            rig,
            Recovery {
                crash,
                entered,
                report,
            },
        )
    }
}

/// Resolves the restored service through its capability group: the VM
/// space plus the per-queue doorbells in slot (= queue) order.
fn restored_service(sys: &System) -> (ObjId, Vec<ObjId>) {
    let kernel = sys.kernel();
    let group = kernel
        .objects
        .read()
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == SERVICE)
        })
        .expect("service cap group restored");
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else {
        unreachable!("filtered on CapGroup")
    };
    let mut vmspace = None;
    let mut doorbells = Vec::new();
    for (_, cap) in g.iter() {
        match kernel.object(cap.obj).map(|o| o.otype) {
            Ok(ObjType::VmSpace) => vmspace = vmspace.or(Some(cap.obj)),
            Ok(ObjType::Notification) => doorbells.push(cap.obj),
            _ => {}
        }
    }
    (vmspace.expect("service vmspace restored"), doorbells)
}
