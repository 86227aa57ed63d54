//! Shared crash-scenario definitions used by both the clean-crash
//! enumeration (`crash_schedule.rs`) and the torn-write / media-fault
//! enumeration (`torn_write.rs`).
//!
//! Each integration-test binary compiles its own copy of this module and
//! uses a different subset of it, hence the blanket `dead_code` allow.
#![allow(dead_code)]

use std::sync::Arc;

use parking_lot::Mutex;

use treesls::extsync::{check_ext_sync_invariants, HostIo, RingError};
use treesls::net::{NetError, NetFaultConfig, VirtualNic};
use treesls::{
    CrashScenario, ObjId, Program, ProgramRegistry, RestoreReport, StepOutcome, System,
    SystemConfig, UserCtx,
};
use treesls_apps::wire::{make_key, KvOp, KvResp};
use treesls_bench::ringsetup::{deploy_kv_cfg, nic_config, ShardGeometry};
use treesls_kernel::cores::run_slice;
use treesls_kernel::object::{ObjType, ObjectBody};

/// CI knob: enumerate every `CRASH_STRIDE`-th crash point (default 1 =
/// every single one).
pub fn stride() -> u64 {
    std::env::var("CRASH_STRIDE").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Steps `tid` synchronously on the calling thread (no cores running).
pub fn step(sys: &System, tid: ObjId, steps: usize) {
    run_slice(sys.kernel(), tid, steps, sys.manager().stw());
}

/// Finds the cap group named `name` and returns its (vmspace, threads,
/// notifications) in capability-slot order — the post-restore handles of
/// a process. Slot order matches creation order, so multi-queue NIC
/// deployments get their per-queue threads and doorbells back aligned.
pub fn find_process_all(sys: &System, name: &str) -> (ObjId, Vec<ObjId>, Vec<ObjId>) {
    let found = find_caps(sys, name);
    assert!(!found.1.is_empty(), "thread restored");
    found
}

/// The vmspace of the cap group named `name`, for a heap-only process
/// that owns no thread.
pub fn find_vmspace(sys: &System, name: &str) -> ObjId {
    find_caps(sys, name).0
}

/// [`find_process_all`] without the "thread restored" check.
fn find_caps(sys: &System, name: &str) -> (ObjId, Vec<ObjId>, Vec<ObjId>) {
    let kernel = sys.kernel();
    let objects = kernel.objects.read();
    let group = objects
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == name)
        })
        .unwrap_or_else(|| panic!("cap group {name:?} not restored"));
    drop(objects);
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else { unreachable!() };
    let mut vmspace = None;
    let mut threads = Vec::new();
    let mut notifs = Vec::new();
    for (_, c) in g.iter() {
        match kernel.object(c.obj).map(|o| o.otype) {
            Ok(ObjType::VmSpace) => vmspace = vmspace.or(Some(c.obj)),
            Ok(ObjType::Thread) => threads.push(c.obj),
            Ok(ObjType::Notification) => notifs.push(c.obj),
            _ => {}
        }
    }
    (vmspace.expect("vmspace restored"), threads, notifs)
}

/// [`find_process_all`] narrowed to the single-threaded shape most
/// scenarios use: (vmspace, first thread, first notification).
pub fn find_process(sys: &System, name: &str) -> (ObjId, ObjId, Option<ObjId>) {
    let (vmspace, threads, notifs) = find_process_all(sys, name);
    (vmspace, threads[0], notifs.first().copied())
}

/// Plays the epoch-flip leader for the round after the last commit, the
/// way `CheckpointManager::pre_commit` does when no core is running: arm
/// the fence, mark the write set read-only, seal. Host writes from here
/// on race the round's copy phase until `fence.disarm()` aborts it.
pub fn open_window(sys: &System) {
    let kernel = sys.kernel();
    kernel.fence.arm(kernel.pers.global_version() + 1);
    treesls_checkpoint::hybrid::mark_readonly(kernel);
    kernel.fence.seal();
}

/// Reads the whole data heap of `vmspace` (`pages` 4 KiB pages).
pub fn read_heap(sys: &System, vmspace: ObjId, pages: u64) -> Vec<u8> {
    let mut buf = vec![0u8; (pages * 4096) as usize];
    sys.read_mem(vmspace, 0, &mut buf).expect("heap readable");
    buf
}

/// Memory snapshots keyed by committed version, with a staging slot for
/// the commit that may be in flight when the crash fires: the snapshot is
/// staged *before* `checkpoint_now` (the heap cannot change between
/// staging and the commit point — the workload is single-threaded), so a
/// crash after the commit but before bookkeeping still has the image the
/// restored version must reproduce.
#[derive(Default)]
pub struct Snapshots {
    pub committed: Vec<(u64, Vec<u8>)>,
    pub staged: Option<(u64, Vec<u8>)>,
}

impl Snapshots {
    pub fn checkpoint(&mut self, sys: &System, vmspace: ObjId, pages: u64) {
        self.staged =
            Some((sys.kernel().pers.global_version() + 1, read_heap(sys, vmspace, pages)));
        sys.checkpoint_now().expect("checkpoint");
        self.committed.push(self.staged.take().expect("staged snapshot"));
    }

    pub fn expect_at(&self, version: u64) -> Option<&Vec<u8>> {
        self.committed
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, m)| m)
            .or(self.staged.as_ref().filter(|(v, _)| *v == version).map(|(_, m)| m))
    }

    pub fn verify(
        &self,
        sys: &System,
        vmspace: ObjId,
        pages: u64,
        version: u64,
    ) -> Result<(), String> {
        let expected = self
            .expect_at(version)
            .ok_or_else(|| format!("no snapshot recorded for restored version {version}"))?;
        let actual = read_heap(sys, vmspace, pages);
        if &actual != expected {
            let diff = actual
                .iter()
                .zip(expected.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(actual.len());
            return Err(format!(
                "restored heap diverges from the v{version} commit at byte {diff}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The hashkv workload behind a virtual NIC, with external synchrony.
// `ops` SETs are steered by flow hash across the queues, the per-queue
// servers are stepped deterministically, and each iteration commits one
// checkpoint.
// ---------------------------------------------------------------------------

pub const KV_GEOM: ShardGeometry =
    ShardGeometry { nslots: 8, slot_size: 84, data_stride: 16 * 4096 };
pub const KV_HEAP_PAGES: u64 = 17; // data_stride / 4096 + 1 (deploy_kv layout)

pub struct KvRingScenario {
    pub ops: usize,
    /// NIC queues (each owns a table shard).
    pub queues: usize,
    /// Requests pushed per checkpoint round; > 1 lets a reorder-window
    /// wire actually permute packets within a round.
    pub burst: usize,
    /// Wire perturbations composed with the crash schedule. Keep
    /// `drop_1_in == 0` — a deterministic one-shot workload cannot
    /// retransmit, and a shed burst would stall the credit ledger.
    pub fault: NetFaultConfig,
    /// Programs captured at deployment, re-registered after "reboot".
    pub programs: Mutex<Vec<(String, Arc<dyn Program>)>>,
}

impl KvRingScenario {
    pub fn new(ops: usize) -> Self {
        Self {
            ops,
            queues: 1,
            burst: 1,
            fault: NetFaultConfig::default(),
            programs: Mutex::new(Vec::new()),
        }
    }

    /// Multi-queue variant over a misbehaving wire (duplicates and a
    /// reorder window, no drops).
    pub fn faulty(ops: usize, queues: usize, fault: NetFaultConfig) -> Self {
        assert_eq!(fault.drop_1_in, 0, "crash scenarios cannot absorb drops");
        Self { ops, queues, burst: 2, fault, programs: Mutex::new(Vec::new()) }
    }

    pub fn kv_config() -> SystemConfig {
        let mut c = SystemConfig::small();
        c.kernel.nvm_frames = 2048;
        c.kernel.dram_pages = 64;
        c.checkpoint_interval = None;
        c
    }

    fn nic_config(&self) -> treesls::net::NicConfig {
        let mut cfg = nic_config(self.queues, true, &KV_GEOM);
        cfg.fault = self.fault;
        cfg
    }

    pub fn heap_pages(&self) -> u64 {
        self.queues as u64 * (KV_GEOM.data_stride / 4096) + 1
    }
}

pub struct KvState {
    pub vmspace: ObjId,
    /// One poll-mode server thread per queue, in queue order.
    pub servers: Vec<ObjId>,
    pub nic: Arc<VirtualNic>,
    pub snapshots: Snapshots,
    /// `(flow, key, value)` of every SET whose acknowledgement became
    /// externally visible before the crash.
    pub acked: Vec<(u64, Vec<u8>, Vec<u8>)>,
}

impl KvState {
    fn drive(&self, sys: &System, steps: usize) {
        for &srv in &self.servers {
            step(sys, srv, steps);
        }
    }
}

impl CrashScenario for KvRingScenario {
    type State = KvState;

    fn config(&self) -> SystemConfig {
        Self::kv_config()
    }

    fn setup(&self, sys: &mut System) -> KvState {
        let dep = deploy_kv_cfg(sys, 16, 40, self.nic_config(), KV_GEOM);
        let mut st = KvState {
            vmspace: dep.vmspace,
            servers: dep.server_threads.clone(),
            nic: Arc::clone(&dep.nic),
            snapshots: Snapshots::default(),
            acked: Vec::new(),
        };
        // First steps format each shard; the servers then park on their
        // doorbells.
        st.drive(sys, 4);
        st.snapshots.checkpoint(sys, st.vmspace, self.heap_pages());
        *self.programs.lock() = sys
            .programs()
            .names()
            .into_iter()
            .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
            .collect();
        st
    }

    fn workload(&self, sys: &mut System, st: &mut KvState) {
        let mut i = 0;
        while i < self.ops {
            let burst = self.burst.min(self.ops - i);
            let mut sent = Vec::with_capacity(burst);
            for b in 0..burst {
                let idx = i + b;
                let key = make_key(format!("key-{idx}").as_bytes());
                let value = format!("value-{idx}").into_bytes();
                let op = KvOp::Set { key, value: value.clone() };
                let flow = idx as u64;
                let seq = st.nic.send_request(flow, &op.encode()).expect("rx push");
                sent.push((seq, flow, key, value));
            }
            // Deliver anything the reorder window is still holding.
            st.nic.flush_wire();
            st.drive(sys, 8 * burst);
            st.snapshots.checkpoint(sys, st.vmspace, self.heap_pages());
            st.nic.pump();
            for (seq, flow, key, value) in sent {
                if st.nic.try_take(seq).is_some() {
                    // The ack left the system: this SET must survive any
                    // later crash.
                    st.acked.push((flow, key.to_vec(), value));
                }
            }
            i += burst;
        }
    }

    fn programs(&self, reg: &ProgramRegistry) {
        for (name, prog) in self.programs.lock().iter() {
            reg.register(name, Arc::clone(prog));
        }
    }

    fn reattach(&self, sys: &mut System, st: &mut KvState) {
        let (vmspace, servers, notifs) = find_process_all(sys, "ring-kv");
        st.vmspace = vmspace;
        st.servers = servers;
        let layout = st.nic.layout();
        let nic = VirtualNic::attach(
            Arc::clone(sys.kernel()),
            vmspace,
            layout,
            &self.nic_config(),
            1_000_000,
        );
        assert_eq!(notifs.len(), self.queues, "doorbells restored");
        for (q, notif) in notifs.into_iter().enumerate() {
            nic.set_doorbell(q, notif);
        }
        sys.manager().register_callback(Arc::clone(&nic) as _);
        st.nic = nic;
    }

    fn verify(
        &self,
        sys: &mut System,
        st: &mut KvState,
        report: &RestoreReport,
    ) -> Result<(), String> {
        // Byte-exact memory oracle against the snapshot of the restored
        // commit.
        st.snapshots.verify(sys, st.vmspace, self.heap_pages(), report.version)?;
        // TX ring invariants: nothing tagged with a rolled-back version
        // may still be published. (The RX ring is exempt by design —
        // requests survive the crash so the server can re-process them.)
        let io = HostIo::new(Arc::clone(sys.kernel()), st.vmspace);
        for q in 0..st.nic.queues() {
            check_ext_sync_invariants(&io, &st.nic.port(q).tx, report.version)
                .map_err(|e| format!("tx ring q{q}: {e}"))?;
        }
        // External-visibility oracle: every acknowledged SET is still
        // readable after recovery, on the same flow (and thus the same
        // table shard) it was written through.
        for (flow, key, value) in &st.acked {
            let mut k = [0u8; 16];
            k.copy_from_slice(key);
            let get = KvOp::Get { key: k };
            // The restored RX ring may still hold every pre-crash request
            // (acks lag by design), so a fresh request can briefly shed
            // or see `Full`; drive the servers and the ack pipeline and
            // retry, like a NIC driver backing off on a full ring.
            let mut attempts = 0;
            let seq = loop {
                match st.nic.send_request(*flow, &get.encode()) {
                    Ok(s) => break s,
                    Err(NetError::Busy | NetError::Ring(RingError::Full)) if attempts < 8 => {
                        attempts += 1;
                        st.nic.flush_wire();
                        st.drive(sys, 16);
                        sys.checkpoint_now().map_err(|e| format!("{e:?}"))?;
                        st.nic.pump();
                    }
                    Err(e) => return Err(format!("GET push failed: {e:?}")),
                }
            };
            st.nic.flush_wire();
            st.drive(sys, 16);
            sys.checkpoint_now().map_err(|e| format!("{e:?}"))?;
            st.nic.pump();
            let resp = st
                .nic
                .try_take(seq)
                .ok_or_else(|| format!("GET for acked key {key:?} got no reply"))?;
            match KvResp::decode(&resp) {
                Some(KvResp::Ok(Some(v))) if &v == value => {}
                other => {
                    return Err(format!(
                        "externally visible SET of {key:?} lost after restore: {other:?}"
                    ))
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The transactional B-tree store behind a virtual NIC: multi-frame OCC
// transactions with secondary-index maintenance, one checkpoint per
// transaction round, and a serial-replay differential oracle.
// ---------------------------------------------------------------------------

/// Tree-node capacity of the scenario's store (small enough that one
/// enumeration run stays fast, big enough for CoW churn and splits).
pub const TXN_NODE_CAP: u64 = 64;

/// 16-byte primary key `i`.
pub fn tkey(i: u64) -> [u8; treesls_txn::KEY_LEN] {
    let mut k = [0u8; treesls_txn::KEY_LEN];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}

/// Index tag `i` (`ttag(0)` is the all-zero "unindexed" tag).
pub fn ttag(i: u64) -> [u8; treesls_txn::KEY_LEN] {
    tkey(i)
}

/// One planned transaction: the client id it runs under and its write
/// set in buffer order. The plan is a pure function of the transaction's
/// ordinal (and the scenario seed), so the serial-replay oracle can
/// reconstruct exactly what commit sequence `s` did to the store.
#[derive(Clone)]
pub struct PlannedTxn {
    pub txn_id: u64,
    pub writes: Vec<treesls_txn::WriteOp>,
}

/// Deterministic write set of transaction `i` under `seed`:
///
/// * two fresh keys, one tagged (alternating between two tags) and one
///   untagged;
/// * a rewrite of the shared hot key with the *other* tag, so every
///   transaction after the first deletes a stale index entry;
/// * from `i >= 1`, a delete of the previous transaction's untagged key.
///
/// `seed` perturbs values and swaps which tag family is used, giving the
/// differential oracle distinct histories per seed without changing the
/// shape (index churn + deletes) the crash sites need.
pub fn planned_txn(seed: u64, i: u64) -> PlannedTxn {
    let tag_a = ttag(1 + 2 * (seed % 8));
    let tag_b = ttag(2 + 2 * (seed % 8));
    let pick = |j: u64| if (i + j + seed).is_multiple_of(2) { tag_a } else { tag_b };
    let val = |name: &str| format!("{name}{i}s{seed}").into_bytes();
    let mut writes = vec![
        treesls_txn::WriteOp { key: tkey(100 + 2 * i), tag: pick(0), val: Some(val("a")) },
        treesls_txn::WriteOp { key: tkey(101 + 2 * i), tag: ttag(0), val: Some(val("b")) },
        treesls_txn::WriteOp { key: tkey(7), tag: pick(1), val: Some(val("h")) },
    ];
    if i >= 1 {
        writes.push(treesls_txn::WriteOp {
            key: tkey(101 + 2 * (i - 1)),
            tag: ttag(0),
            val: None,
        });
    }
    PlannedTxn { txn_id: 0x1000 + i, writes }
}

/// Serially replays planned transactions `1..=seq` into a model map and
/// returns the expected primary state `key -> (tag, value)`.
pub fn replay_model(
    seed: u64,
    seq: u64,
) -> std::collections::BTreeMap<[u8; 16], ([u8; 16], Vec<u8>)> {
    let mut model = std::collections::BTreeMap::new();
    for s in 1..=seq {
        // Commit sequence `s` is planned transaction `s - 1` (the store
        // seq starts at 0 and each transaction bumps it by one).
        for w in planned_txn(seed, s - 1).writes {
            // Last-write-wins per key, like the engine's collapse.
            match w.val {
                Some(v) => {
                    model.insert(w.key, (w.tag, v));
                }
                None => {
                    model.remove(&w.key);
                }
            }
        }
    }
    model
}

pub struct TxnRingScenario {
    /// Transactions committed by the workload (one checkpoint round each).
    pub txns: u64,
    /// Perturbs the planned write sets (differential-oracle seeds).
    pub seed: u64,
    /// Programs captured at deployment, re-registered after "reboot".
    pub programs: Mutex<Vec<(String, Arc<dyn Program>)>>,
}

impl TxnRingScenario {
    pub fn new(txns: u64) -> Self {
        Self::seeded(txns, 0)
    }

    pub fn seeded(txns: u64, seed: u64) -> Self {
        Self { txns, seed, programs: Mutex::new(Vec::new()) }
    }

    pub fn txn_config() -> SystemConfig {
        let mut c = SystemConfig::small();
        c.kernel.nvm_frames = 4096;
        c.kernel.dram_pages = 64;
        c.checkpoint_interval = None;
        c
    }

    pub fn nic_config(&self) -> treesls::net::NicConfig {
        treesls::net::NicConfig {
            queues: 1,
            nslots: 16,
            slot_size: 160,
            credits: 16,
            ext_sync: true,
            fault: Default::default(),
            call_timeout: std::time::Duration::from_secs(5),
        }
    }

    pub fn heap_pages(&self) -> u64 {
        treesls_txn::store::region_len(TXN_NODE_CAP) / 4096 + 1
    }

    /// The wire frames of planned transaction `i`, in send order.
    pub fn frames(&self, i: u64) -> Vec<treesls_txn::TxnOp> {
        let plan = planned_txn(self.seed, i);
        let mut frames = vec![treesls_txn::TxnOp::Begin { txn: plan.txn_id, flags: 0 }];
        for w in plan.writes {
            frames.push(treesls_txn::TxnOp::Write {
                txn: plan.txn_id,
                key: w.key,
                tag: w.tag,
                val: w.val,
            });
        }
        frames.push(treesls_txn::TxnOp::Commit { txn: plan.txn_id });
        frames
    }
}

pub struct TxnRingState {
    pub vmspace: ObjId,
    pub servers: Vec<ObjId>,
    pub nic: Arc<VirtualNic>,
    pub service: Arc<treesls_txn::TxnService>,
    pub gate: Arc<treesls_txn::TxnGate>,
    pub snapshots: Snapshots,
    /// `(ordinal, commit seq)` of every transaction whose commit
    /// acknowledgement became externally visible before the crash.
    pub acked: Vec<(u64, u64)>,
}

impl TxnRingState {
    pub fn drive(&self, sys: &System, steps: usize) {
        for &srv in &self.servers {
            step(sys, srv, steps);
        }
    }
}

impl CrashScenario for TxnRingScenario {
    type State = TxnRingState;

    fn config(&self) -> SystemConfig {
        Self::txn_config()
    }

    fn setup(&self, sys: &mut System) -> TxnRingState {
        let txd = treesls_bench::ringsetup::deploy_txn(sys, TXN_NODE_CAP, self.nic_config());
        let mut st = TxnRingState {
            vmspace: txd.dep.vmspace,
            servers: txd.dep.server_threads.clone(),
            nic: Arc::clone(&txd.dep.nic),
            service: txd.service,
            gate: txd.gate,
            snapshots: Snapshots::default(),
            acked: Vec::new(),
        };
        // First steps format the store; the server then parks on its
        // doorbell.
        st.drive(sys, 4);
        st.snapshots.checkpoint(sys, st.vmspace, self.heap_pages());
        *self.programs.lock() = sys
            .programs()
            .names()
            .into_iter()
            .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
            .collect();
        st
    }

    fn workload(&self, sys: &mut System, st: &mut TxnRingState) {
        for i in 0..self.txns {
            let frames = self.frames(i);
            let mut commit_seq_wire = 0;
            for (j, f) in frames.iter().enumerate() {
                let seq = st.nic.send_request(i, &f.encode()).expect("rx push");
                if j == frames.len() - 1 {
                    commit_seq_wire = seq;
                }
            }
            st.nic.flush_wire();
            st.drive(sys, 8 * frames.len());
            st.snapshots.checkpoint(sys, st.vmspace, self.heap_pages());
            st.nic.pump();
            if let Some(resp) = st.nic.try_take(commit_seq_wire) {
                match treesls_txn::TxnResp::decode(&resp) {
                    Some(treesls_txn::TxnResp::Ok { seq }) => st.acked.push((i, seq)),
                    other => panic!("txn {i} commit rejected: {other:?}"),
                }
            }
        }
    }

    fn programs(&self, reg: &ProgramRegistry) {
        for (name, prog) in self.programs.lock().iter() {
            reg.register(name, Arc::clone(prog));
        }
    }

    fn reattach(&self, sys: &mut System, st: &mut TxnRingState) {
        let (vmspace, servers, notifs) = find_process_all(sys, "ring-txn");
        st.vmspace = vmspace;
        st.servers = servers;
        let layout = st.nic.layout();
        let nic = VirtualNic::attach(
            Arc::clone(sys.kernel()),
            vmspace,
            layout,
            &self.nic_config(),
            1_000_000,
        );
        assert_eq!(notifs.len(), 1, "doorbell restored");
        nic.set_doorbell(0, notifs[0]);
        sys.manager().register_callback(Arc::clone(&nic) as _);
        st.nic = nic;
        // The restored PollServer still dispatches into the service
        // instance captured with the programs, so the new gate must wrap
        // that same instance: its on_restore drops the pre-crash working
        // sets, which is how "uncommitted transactions die with the
        // crash" is enforced on a host whose process memory survived.
        let io = HostIo::new(Arc::clone(sys.kernel()), vmspace);
        let gate =
            Arc::new(treesls_txn::TxnGate::new(io, 0, Arc::clone(&st.service)));
        sys.manager().register_callback(Arc::clone(&gate) as _);
        st.gate = gate;
    }

    fn verify(
        &self,
        sys: &mut System,
        st: &mut TxnRingState,
        report: &RestoreReport,
    ) -> Result<(), String> {
        // Byte-exact memory oracle (covers the whole store region).
        st.snapshots.verify(sys, st.vmspace, self.heap_pages(), report.version)?;
        // TX ring invariants: no slot tagged with a rolled-back version.
        let io = HostIo::new(Arc::clone(sys.kernel()), st.vmspace);
        check_ext_sync_invariants(&io, &st.nic.port(0).tx, report.version)
            .map_err(|e| format!("tx ring: {e}"))?;

        let Some(store) = treesls_txn::TxnStore::attach(&io, 0)
            .map_err(|e| format!("attach: {e:?}"))?
        else {
            // Crash before the store was even formatted: nothing can have
            // been acknowledged.
            if st.acked.is_empty() {
                return Ok(());
            }
            return Err("acked commits but the restored store is unformatted".into());
        };
        let meta = store.meta(&io).map_err(|e| format!("meta: {e:?}"))?;

        // §5 for transactions: no committed-then-lost. Every commit whose
        // acknowledgement left the system must be on the restored root.
        for (i, seq) in &st.acked {
            if *seq > meta.seq {
                return Err(format!(
                    "acked txn {i} (commit seq {seq}) lost: restored store seq {}",
                    meta.seq
                ));
            }
        }

        // No visible-partial-transaction, exact to the record: the
        // restored primary space must equal a *serial replay* of planned
        // transactions 1..=seq, and the secondary index must match it.
        let model = replay_model(self.seed, meta.seq);
        let (plo, phi) = treesls_txn::store::space_range(treesls_txn::store::SPACE_PRIMARY);
        let primaries =
            store.scan(&io, &plo, &phi, usize::MAX).map_err(|e| format!("scan: {e:?}"))?;
        if primaries.len() != model.len() {
            return Err(format!(
                "restored store holds {} primary records, serial replay of seq {} expects {}",
                primaries.len(),
                meta.seq,
                model.len()
            ));
        }
        for r in &primaries {
            let mut key = [0u8; 16];
            key.copy_from_slice(&r.ckey[1..17]);
            match model.get(&key) {
                Some((tag, val)) if *tag == r.tag && *val == r.val => {}
                Some((tag, val)) => {
                    return Err(format!(
                        "key {:?} diverges from serial replay: got (tag {:?}, {:?}), \
                         expected (tag {:?}, {:?})",
                        &key[..8],
                        &r.tag[..4],
                        r.val,
                        &tag[..4],
                        val
                    ))
                }
                None => return Err(format!("key {:?} not in serial replay", &key[..8])),
            }
        }
        treesls_txn::check_index_consistency(&store, &io)
            .map_err(|e| format!("index inconsistent after restore: {e}"))?;

        // The restored server must keep serving: an uncommitted pre-crash
        // transaction is unknown, and a fresh auto-commit write lands.
        let dead_commit = treesls_txn::TxnOp::Commit { txn: 0xDEAD_0001 };
        let probe_key = tkey(9_000_000 + self.seed);
        let probe = treesls_txn::TxnOp::WriteCommit {
            txn: 0,
            key: probe_key,
            tag: ttag(0),
            val: Some(b"post-restore".to_vec()),
        };
        let read_back = treesls_txn::TxnOp::Read { txn: 0, key: probe_key };
        let mut seqs = Vec::new();
        for f in [&dead_commit, &probe, &read_back] {
            // The restored RX ring may still hold pre-crash requests;
            // drive and retry like a NIC driver backing off.
            let mut attempts = 0;
            let seq = loop {
                match st.nic.send_request(0, &f.encode()) {
                    Ok(s) => break s,
                    Err(NetError::Busy | NetError::Ring(RingError::Full)) if attempts < 8 => {
                        attempts += 1;
                        st.nic.flush_wire();
                        st.drive(sys, 16);
                        sys.checkpoint_now().map_err(|e| format!("{e:?}"))?;
                        st.nic.pump();
                    }
                    Err(e) => return Err(format!("post-restore push failed: {e:?}")),
                }
            };
            seqs.push(seq);
        }
        st.nic.flush_wire();
        st.drive(sys, 32);
        sys.checkpoint_now().map_err(|e| format!("{e:?}"))?;
        st.nic.pump();
        let take = |seq| {
            st.nic
                .try_take(seq)
                .and_then(|r| treesls_txn::TxnResp::decode(&r))
                .ok_or_else(|| format!("no reply for post-restore seq {seq}"))
        };
        match take(seqs[0])? {
            treesls_txn::TxnResp::UnknownTxn => {}
            other => {
                return Err(format!(
                    "pre-crash working set survived the crash: commit said {other:?}"
                ))
            }
        }
        match take(seqs[1])? {
            treesls_txn::TxnResp::Ok { .. } => {}
            other => return Err(format!("post-restore auto-commit failed: {other:?}")),
        }
        match take(seqs[2])? {
            treesls_txn::TxnResp::Value { val } if val == b"post-restore" => {}
            other => return Err(format!("post-restore read diverges: {other:?}")),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// A hybrid-copy round with hot-page migration, speculative stop-and-copy,
// and idle eviction.
// ---------------------------------------------------------------------------

/// Writes two `u64`s per step — one in each half of a page, the second
/// across a fresh line boundary every round — round-robin over `pages`
/// heap pages, so a preserved image differs from its destination in two
/// separate runs of cache lines, one of them two lines long, and the
/// enumerations cut a changed-line page copy both *between* its stores
/// and *inside* one.
pub struct DirtyPages {
    pub pages: u64,
}

impl Program for DirtyPages {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        let done = ctx.reg(2);
        let page = done % self.pages;
        let word = (done / self.pages) % 64;
        for off in [word * 8, 2048 + 60 + (word % 31) * 64] {
            if ctx.write_u64(page * 4096 + off, 0xD00D_0000 + done).is_err() {
                return StepOutcome::Exited;
            }
        }
        ctx.set_reg(2, done + 1);
        StepOutcome::Ready
    }
}

/// Whether a traced store is one run of a changed-line page copy: a
/// line-aligned page store shorter than a page (applications store words,
/// never whole lines, so nothing else traces like this).
pub fn is_copy_run(w: &treesls_nvm::WriteRec) -> bool {
    let line = treesls_nvm::CACHE_LINE;
    w.kind == treesls_nvm::WriteKind::Page && (w.off | w.len) & (line - 1) == 0 && w.len < 4096
}

/// Whether a write trace holds a page copy stored as two or more runs
/// (consecutive runs, the second strictly behind the first).
pub fn has_multi_run_copy(trace: &[treesls_nvm::WriteRec]) -> bool {
    trace
        .windows(2)
        .any(|w| is_copy_run(&w[0]) && is_copy_run(&w[1]) && w[1].off > w[0].off + w[0].len)
}

pub const HYBRID_PAGES: u64 = 3;
pub const HYBRID_HEAP: u64 = 4;

pub struct HybridScenario;

pub struct HybridState {
    pub vmspace: ObjId,
    pub writer: ObjId,
    pub snapshots: Snapshots,
}

impl CrashScenario for HybridScenario {
    type State = HybridState;

    fn config(&self) -> SystemConfig {
        let mut c = SystemConfig::small();
        c.kernel.nvm_frames = 2048;
        c.kernel.dram_pages = 32;
        c.kernel.hybrid_copy = true;
        c.kernel.hot_threshold = 2;
        c.kernel.idle_evict_rounds = 2;
        c.checkpoint_interval = None;
        c
    }

    fn setup(&self, sys: &mut System) -> HybridState {
        sys.register_program("dirty", Arc::new(DirtyPages { pages: HYBRID_PAGES }));
        let p = sys
            .spawn(
                &treesls::ProcessSpec::new("hybrid")
                    .heap(HYBRID_HEAP)
                    .thread(treesls::ThreadSpec::new("dirty")),
            )
            .expect("spawn");
        let mut st = HybridState {
            vmspace: p.vmspace,
            writer: p.threads[0],
            snapshots: Snapshots::default(),
        };
        st.snapshots.checkpoint(sys, st.vmspace, HYBRID_HEAP);
        st
    }

    fn workload(&self, sys: &mut System, st: &mut HybridState) {
        // Two write+checkpoint rounds push every page past the hotness
        // threshold; the second round's checkpoint migrates them to DRAM.
        for _ in 0..2 {
            step(sys, st.writer, HYBRID_PAGES as usize);
            st.snapshots.checkpoint(sys, st.vmspace, HYBRID_HEAP);
        }
        // Dirty the migrated pages: the next checkpoint stop-and-copies
        // them from DRAM.
        step(sys, st.writer, HYBRID_PAGES as usize);
        st.snapshots.checkpoint(sys, st.vmspace, HYBRID_HEAP);
        // Idle rounds: the pages stop changing and get evicted back to
        // NVM.
        for _ in 0..3 {
            st.snapshots.checkpoint(sys, st.vmspace, HYBRID_HEAP);
        }
    }

    fn programs(&self, reg: &ProgramRegistry) {
        reg.register("dirty", Arc::new(DirtyPages { pages: HYBRID_PAGES }));
    }

    fn reattach(&self, sys: &mut System, st: &mut HybridState) {
        let (vmspace, writer, _) = find_process(sys, "hybrid");
        st.vmspace = vmspace;
        st.writer = writer;
    }

    fn verify(
        &self,
        sys: &mut System,
        st: &mut HybridState,
        report: &RestoreReport,
    ) -> Result<(), String> {
        st.snapshots.verify(sys, st.vmspace, HYBRID_HEAP, report.version)?;
        // A power failure alone — wherever it cuts a page copy — must never
        // leave restore picking an image that fails its checksum.
        let rec = &report.recovery;
        if rec.pages_fell_back != 0 || !rec.quarantined.is_empty() {
            return Err(format!(
                "picked page image failed its CRC: {} fell back, {} quarantined",
                rec.pages_fell_back,
                rec.quarantined.len()
            ));
        }
        // The restored program must be able to keep running and commit.
        step(sys, st.writer, HYBRID_PAGES as usize);
        sys.checkpoint_now().map_err(|e| format!("post-restore checkpoint: {e:?}"))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// An aborted epoch window: captures and in-line logs of a round that never
// commits, folded down to the committed image before the re-run commits.
// ---------------------------------------------------------------------------

pub const WINDOW_HEAP: u64 = 4;

/// One round: commit (setup), interval writes to pages 0 and 1 (CoW, so
/// their committed image moves to a backup), flip, window writes — small
/// (undo record) to pages 0 and 2, big (whole-page capture) to page 1,
/// small then big (log escalated to a capture) to page 3 — abort, fold,
/// commit. The fold keeps page 0's and 1's CoW backups, materializes page
/// 2's runtime ⊖ log and anchors page 3's capture, so the enumerations cut
/// every one of its stores, and the claim that a new image is durable
/// before a log dies, in every order a crash can see them.
pub struct AbortedWindowScenario;

pub struct WindowState {
    pub vmspace: ObjId,
    pub snapshots: Snapshots,
}

impl CrashScenario for AbortedWindowScenario {
    type State = WindowState;

    fn config(&self) -> SystemConfig {
        let mut c = SystemConfig::small();
        c.kernel.nvm_frames = 1024;
        c.kernel.hybrid_copy = false;
        c.checkpoint_interval = None;
        c
    }

    fn setup(&self, sys: &mut System) -> WindowState {
        let p = sys.spawn(&treesls::ProcessSpec::new("window").heap(WINDOW_HEAP)).expect("spawn");
        for page in 0..WINDOW_HEAP {
            let fill = vec![0xA0 + page as u8; 4096];
            sys.write_mem(p.vmspace, page * 4096, &fill).expect("fill");
        }
        let mut st = WindowState { vmspace: p.vmspace, snapshots: Snapshots::default() };
        st.snapshots.checkpoint(sys, st.vmspace, WINDOW_HEAP);
        st
    }

    fn workload(&self, sys: &mut System, st: &mut WindowState) {
        let write = |page: u64, off: u64, byte: u8, len: usize| {
            sys.write_mem(st.vmspace, page * 4096 + off, &vec![byte; len]).expect("write");
        };
        write(0, 512, 0xB0, 256);
        write(1, 512, 0xB1, 256);
        open_window(sys);
        write(0, 64, 0xC0, 8);
        write(1, 64, 0xC1, 128);
        write(2, 64, 0xC2, 8);
        write(3, 64, 0xC3, 8);
        write(3, 1024, 0xD3, 128);
        sys.kernel().fence.disarm();
        sys.kernel().fold_epoch_captures().expect("fold the aborted window");
        st.snapshots.checkpoint(sys, st.vmspace, WINDOW_HEAP);
    }

    fn programs(&self, _reg: &ProgramRegistry) {}

    fn reattach(&self, sys: &mut System, st: &mut WindowState) {
        st.vmspace = find_vmspace(sys, "window");
    }

    fn verify(
        &self,
        sys: &mut System,
        st: &mut WindowState,
        report: &RestoreReport,
    ) -> Result<(), String> {
        st.snapshots.verify(sys, st.vmspace, WINDOW_HEAP, report.version)?;
        let rec = &report.recovery;
        if rec.pages_fell_back != 0 || !rec.quarantined.is_empty() {
            return Err(format!(
                "picked page image failed its CRC: {} fell back, {} quarantined",
                rec.pages_fell_back,
                rec.quarantined.len()
            ));
        }
        // The restored heap must keep taking writes and commit.
        sys.write_mem(st.vmspace, 0, &[0xEE; 8]).map_err(|e| format!("{e:?}"))?;
        sys.checkpoint_now().map_err(|e| format!("post-restore checkpoint: {e:?}"))?;
        Ok(())
    }
}
