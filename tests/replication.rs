//! Checkpoint-shipping replication: the cluster-level fault drills.
//!
//! A primary runs the sharded KV workload behind the external-synchrony
//! NIC while a [`Cluster`] ships every checkpoint round's delta to two
//! replicas. The drills here are deterministic (replicas are polled
//! explicitly unless a test needs real quorum waits): replica crash
//! mid-delta with resync, partition during commit with degraded-mode
//! shedding, wire corruption with quarantine, epoch fencing of a deposed
//! primary, and the headline failover — primary killed, replica promoted,
//! and the §5 oracle (every externally acknowledged write survives)
//! asserted against the promoted machine.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use common::{find_process_all, step, KvRingScenario, KV_GEOM};
use treesls::extsync::RingError;
use treesls::net::{NetError, NetFaultConfig, VirtualNic};
use treesls::{ObjId, Program, System, SystemConfig};
use treesls_apps::wire::{make_key, KvOp, KvResp};
use treesls_bench::ringsetup::{deploy_kv_cfg, nic_config, RingDeployment};
use treesls_repl::{
    promote, Cluster, ClusterConfig, PageImage, PromoteError, ReplicaStore, WireRecord,
};

fn kv_config() -> SystemConfig {
    KvRingScenario::kv_config()
}

/// Boots a primary with the single-queue KV service deployed and its
/// shards formatted (servers parked on their doorbells).
fn boot_primary(sys: &System) -> RingDeployment {
    let dep = deploy_kv_cfg(sys, 16, 40, nic_config(1, true, &KV_GEOM), KV_GEOM);
    drive(sys, &dep.server_threads, 4);
    dep
}

fn drive(sys: &System, servers: &[ObjId], steps: usize) {
    for &srv in servers {
        step(sys, srv, steps);
    }
}

/// Captures the deployed programs so a promoted machine can re-register
/// them (reloading binaries after failover).
fn capture_programs(sys: &System) -> Vec<(String, Arc<dyn Program>)> {
    sys.programs()
        .names()
        .into_iter()
        .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
        .collect()
}

/// Pushes one SET, steps the server, and commits a checkpoint round.
/// Returns `(seq, flow, key, value)`; the caller polls replicas and then
/// pumps/takes the acknowledgement.
fn commit_set(
    sys: &System,
    dep: &RingDeployment,
    i: usize,
) -> (u64, u64, [u8; 16], Vec<u8>) {
    let key = make_key(format!("repl-key-{i}").as_bytes());
    let value = format!("repl-value-{i}").into_bytes();
    let flow = i as u64;
    let op = KvOp::Set { key, value: value.clone() };
    let seq = dep.nic.send_request(flow, &op.encode()).expect("rx push");
    dep.nic.flush_wire();
    drive(sys, &dep.server_threads, 8);
    sys.checkpoint_now().expect("checkpoint");
    (seq, flow, key, value)
}

/// Issues a GET and returns the decoded reply, driving the server and the
/// ack pipeline (with backoff on a full restored RX ring, like a real
/// driver).
fn kv_get(
    sys: &System,
    servers: &[ObjId],
    nic: &VirtualNic,
    flow: u64,
    key: &[u8; 16],
) -> Option<KvResp> {
    let get = KvOp::Get { key: *key };
    let mut attempts = 0;
    let seq = loop {
        match nic.send_request(flow, &get.encode()) {
            Ok(s) => break s,
            Err(NetError::Busy | NetError::Ring(RingError::Full)) if attempts < 8 => {
                attempts += 1;
                nic.flush_wire();
                drive(sys, servers, 16);
                sys.checkpoint_now().expect("checkpoint");
                nic.pump();
            }
            Err(e) => panic!("GET push failed: {e:?}"),
        }
    };
    nic.flush_wire();
    drive(sys, servers, 16);
    sys.checkpoint_now().expect("checkpoint");
    nic.pump();
    nic.try_take(seq).and_then(|r| KvResp::decode(&r))
}

/// The acceptance drill, end to end: under a live KV workload, (a) a
/// replica crashes mid-delta and resyncs, (b) a partition is injected
/// during commit and healed, (c) the primary is killed and the surviving
/// in-sync replica is promoted — with the §5 oracle (every externally
/// acknowledged SET readable on the promoted machine) holding throughout.
///
/// Replica 0 is the failover target: it is polled to the head of the
/// stream before any acknowledgement is released, so the promoted image
/// must cover everything a client ever saw. Replica 1 absorbs the faults.
#[test]
fn cluster_fault_drill_failover_preserves_acked_writes() {
    let sys = System::boot(kv_config());
    let dep = boot_primary(&sys);
    let cluster = Cluster::deploy(&sys, &ClusterConfig::default());
    cluster.attach_gate(&dep.nic);
    let programs = capture_programs(&sys);
    let layout = dep.nic.layout();

    let mut acked: Vec<(u64, [u8; 16], Vec<u8>)> = Vec::new();
    let round = |acked: &mut Vec<(u64, [u8; 16], Vec<u8>)>, i: usize| {
        let (seq, flow, key, value) = commit_set(&sys, &dep, i);
        cluster.replicas[0].poll();
        cluster.replicas[1].poll();
        dep.nic.pump();
        if dep.nic.try_take(seq).is_some() {
            acked.push((flow, key, value));
        }
    };

    // Baseline rounds: both replicas track the delta stream.
    round(&mut acked, 0);
    round(&mut acked, 1);
    assert_eq!(cluster.replicas[0].applied_round(), sys.kernel().pers.global_version());
    assert_eq!(cluster.replicas[1].applied_round(), sys.kernel().pers.global_version());

    // (a) Replica 1 crashes mid-delta: it stages part of the round, dies
    // (staging is volatile and lost), reboots, and requests a resync.
    let (seq, flow, key, value) = commit_set(&sys, &dep, 2);
    cluster.replicas[0].poll();
    cluster.replicas[1].poll_limit(2); // DeltaBegin + one frame, then...
    cluster.kill(1);
    cluster.revive(1);
    assert!(cluster.replicas[1].is_awaiting_snapshot(), "reboot requests resync");
    dep.nic.pump();
    if dep.nic.try_take(seq).is_some() {
        acked.push((flow, key, value));
    }
    round(&mut acked, 3); // primary sees the resync request, ships a snapshot
    assert_eq!(cluster.replicas[1].applied_round(), sys.kernel().pers.global_version());
    assert!(!cluster.replicas[1].is_awaiting_snapshot());
    assert!(cluster.replicas[1].metrics.snapshot().repl_resyncs >= 1);

    // (b) Partition injected during commit: replica 1 misses a whole
    // round, detects the gap after the heal, and resyncs.
    cluster.set_partitioned(1, true);
    round(&mut acked, 4); // r1 sees nothing (link down)
    cluster.set_partitioned(1, false);
    let behind = cluster.replicas[1].applied_round();
    round(&mut acked, 5); // r1 gap-detects, quarantines, requests resync
    assert_eq!(cluster.replicas[1].applied_round(), behind, "gap round must not apply");
    assert!(cluster.replicas[1].is_awaiting_snapshot());
    round(&mut acked, 6); // snapshot lands
    assert_eq!(cluster.replicas[1].applied_round(), sys.kernel().pers.global_version());

    // (c) Primary killed; promote replica 0 and assert the §5 oracle
    // across the failover.
    let final_version = sys.kernel().pers.global_version();
    assert_eq!(cluster.replicas[0].applied_round(), final_version);
    assert!(acked.len() >= 5, "drill must have externally visible writes to protect");
    dep.nic.close();
    drop(dep);
    drop(sys);

    let (sys2, report) = cluster
        .promote(0, kv_config(), |reg| {
            for (name, prog) in &programs {
                reg.register(name, Arc::clone(prog));
            }
        })
        .expect("promotion");
    assert_eq!(report.version, final_version, "promoted at the replicated round");
    sys2.manager().verify_checkpoint().expect("promoted tree verifies");

    // Reattach a NIC to the promoted machine, exactly as after a reboot.
    let (vmspace, servers, notifs) = find_process_all(&sys2, "ring-kv");
    let nic2 = VirtualNic::attach(
        Arc::clone(sys2.kernel()),
        vmspace,
        layout,
        &nic_config(1, true, &KV_GEOM),
        1_000_000,
    );
    for (q, notif) in notifs.into_iter().enumerate() {
        nic2.set_doorbell(q, notif);
    }
    sys2.manager().register_callback(Arc::clone(&nic2) as _);
    sys2.manager().fire_restore_callbacks(report.version);

    let mut violations = 0;
    for (flow, key, value) in &acked {
        match kv_get(&sys2, &servers, &nic2, *flow, key) {
            Some(KvResp::Ok(Some(v))) if &v == value => {}
            other => {
                violations += 1;
                eprintln!("acked SET {key:?} lost across failover: {other:?}");
            }
        }
    }
    assert_eq!(violations, 0, "§5 across failover: every acked SET must survive promotion");
}

/// `quorum = 2`: a response may not become visible until its round is
/// durable on the primary plus one replica. Partitioning both replicas
/// flips the cluster to degraded mode — the response stays held, new
/// writes are shed with `Busy`, reads stay admitted — and healing the
/// partition recovers quorum and releases the held response.
#[test]
fn quorum_gate_holds_responses_until_cluster_durable() {
    let sys = System::boot(kv_config());
    let dep = boot_primary(&sys);
    let mut ccfg = ClusterConfig::default();
    ccfg.ship.quorum = 2;
    ccfg.ship.ack_timeout = Duration::from_millis(800);
    let cluster = Cluster::deploy(&sys, &ccfg);
    cluster.attach_gate(&dep.nic);
    cluster.shipper.health.set_write_classifier(Arc::new(|payload: &[u8]| {
        KvOp::decode(payload).map(|op| matches!(op, KvOp::Set { .. })).unwrap_or(true)
    }));
    cluster.start();

    // Baseline: the replicas ack within the wait and the response flows.
    let (seq, ..) = commit_set(&sys, &dep, 0);
    dep.nic.pump();
    assert!(dep.nic.try_take(seq).is_some(), "quorum met: response released");
    assert!(!cluster.shipper.health.is_degraded());

    // Partition both replicas: the next round cannot reach quorum.
    cluster.set_partitioned(0, true);
    cluster.set_partitioned(1, true);
    let (held_seq, ..) = commit_set(&sys, &dep, 1);
    assert!(cluster.shipper.health.is_degraded(), "quorum lost");
    dep.nic.pump();
    assert!(
        dep.nic.try_take(held_seq).is_none(),
        "response must stay held below quorum"
    );
    // Degraded admission: writes shed, reads still admitted.
    let write = KvOp::Set { key: make_key(b"shed"), value: b"x".to_vec() };
    assert!(
        matches!(dep.nic.send_request(7, &write.encode()), Err(NetError::Busy)),
        "writes shed while degraded"
    );
    let read = KvOp::Get { key: make_key(b"repl-key-0") };
    assert!(dep.nic.send_request(0, &read.encode()).is_ok(), "reads admitted while degraded");

    // Heal. The replicas gap-detect and resync; within a couple of rounds
    // quorum recovers, degraded mode exits, and the held response ships.
    cluster.set_partitioned(0, false);
    cluster.set_partitioned(1, false);
    let mut healed = false;
    for _ in 0..4 {
        drive(&sys, &dep.server_threads, 8);
        sys.checkpoint_now().expect("checkpoint");
        if !cluster.shipper.health.is_degraded() {
            healed = true;
            break;
        }
    }
    assert!(healed, "quorum must recover after the partition heals");
    dep.nic.pump();
    let resp = dep.nic.try_take(held_seq).expect("held response released after heal");
    assert!(KvResp::decode(&resp).is_some());
    assert_eq!(cluster.shipper.health.durable_round(), sys.kernel().pers.global_version());
    assert!(sys.kernel().metrics.snapshot().repl_degraded_entries >= 1);
    cluster.stop();
}

/// Differential oracle over a misbehaving wire (duplicates; no drops):
/// a replica fed the incremental delta stream must converge to the same
/// mirror as a replica rebuilt from a full snapshot at the same round.
#[test]
fn faulty_wire_delta_stream_matches_snapshot_resync() {
    let sys = System::boot(kv_config());
    let dep = boot_primary(&sys);
    let ccfg = ClusterConfig {
        fault: NetFaultConfig { seed: 7, drop_1_in: 0, dup_1_in: 4, reorder_window: 0 },
        ..Default::default()
    };
    let cluster = Cluster::deploy(&sys, &ccfg);

    for i in 0..6 {
        commit_set(&sys, &dep, i);
        cluster.replicas[0].poll();
        cluster.replicas[1].poll();
        dep.nic.pump();
    }
    let version = sys.kernel().pers.global_version();
    assert_eq!(cluster.replicas[0].applied_round(), version, "deltas absorbed dup frames");
    assert_eq!(cluster.replicas[1].applied_round(), version);
    // Duplicates alone must be absorbed idempotently, not via resync.
    assert_eq!(cluster.replicas[0].metrics.snapshot().repl_quarantined, 0);

    // Force replica 1 onto the snapshot path and land both replicas on
    // the same round.
    cluster.kill(1);
    cluster.revive(1);
    commit_set(&sys, &dep, 6);
    cluster.replicas[0].poll();
    cluster.replicas[1].poll();
    let version = sys.kernel().pers.global_version();
    assert_eq!(cluster.replicas[0].applied_round(), version);
    assert_eq!(cluster.replicas[1].applied_round(), version);

    assert_same_mirror(
        &cluster.replicas[0].store_snapshot(),
        &cluster.replicas[1].store_snapshot(),
        "after the drill",
    );
}

/// The delta-fed mirror and the snapshot-built mirror must agree: records
/// that encode to identical wire bytes (`WireRecord`'s equality, so page
/// manifests included), the same root, and every page the snapshot
/// carries present with identical bytes. (The delta-fed side may
/// additionally hold stale images of pages a later round freed —
/// cumulative by design — so the comparison is containment, not
/// equality.)
fn assert_same_mirror(delta: &ReplicaStore, snap: &ReplicaStore, at: &str) {
    assert_eq!(delta.root, snap.root, "{at}: root");
    assert_eq!(delta.applied_round, snap.applied_round, "{at}: applied round");
    assert_eq!(delta.records.len(), snap.records.len(), "{at}: record count");
    for (id, rec) in &snap.records {
        assert_eq!(
            delta.records.get(id),
            Some(rec),
            "{at}: record {id} diverges between delta stream and snapshot"
        );
    }
    for (key, img) in &snap.pages {
        let mine = delta
            .pages
            .get(key)
            .unwrap_or_else(|| panic!("{at}: page {key:?} missing from delta-fed mirror"));
        assert_eq!(mine.crc, img.crc, "{at}: page {key:?} CRC diverges");
        assert_eq!(mine.data, img.data, "{at}: page {key:?} bytes diverge");
    }
}

/// Data pages (not eternal) whose bytes differ between two snapshot-built
/// mirrors, counting pages new in `now`.
fn data_pages_changed(before: &ReplicaStore, now: &ReplicaStore) -> u64 {
    let eternal = |oroot: &u64| {
        matches!(now.records.get(oroot), Some(WireRecord::Pmo { eternal: true, .. }))
    };
    let changed = |key: &(u64, u64), img: &PageImage| {
        before.pages.get(key).is_none_or(|old| old.data != img.data)
    };
    now.pages.iter().filter(|&(key, img)| !eternal(&key.0) && changed(key, img)).count() as u64
}

/// Every round, not only at the end: a replica fed only deltas holds the
/// mirror a replica rebuilt from that round's snapshot holds. And a round
/// of one SET reads no more data pages to build its delta than the round
/// changed — the shipper reads only pages flagged since their last ship,
/// not every live page of every rewritten PMO.
#[test]
fn delta_mirror_matches_snapshot_every_round_and_reads_only_changed_pages() {
    let sys = System::boot(kv_config());
    // A table of ten pages, so a round that changes one of them is not a
    // round that changes them all.
    let dep = deploy_kv_cfg(&sys, 512, 40, nic_config(1, true, &KV_GEOM), KV_GEOM);
    drive(&sys, &dep.server_threads, 4);
    let cluster = Cluster::deploy(&sys, &ClusterConfig::default());
    let mut before: Option<ReplicaStore> = None;
    let mut compared = 0;
    for i in 0..20 {
        // Replica 1 reboots every round, so it is rebuilt from a snapshot.
        cluster.kill(1);
        cluster.revive(1);
        // Six rounds of six SETs spread the keys over the table's pages;
        // every later round carries one SET.
        let sets = if i < 6 { 6 } else { 1 };
        for j in 0..sets {
            let op = KvOp::Set { key: make_key(format!("k{i}-{j}").as_bytes()), value: vec![1; 8] };
            dep.nic.send_request(j as u64, &op.encode()).expect("rx push");
        }
        dep.nic.flush_wire();
        drive(&sys, &dep.server_threads, 8);
        sys.checkpoint_now().expect("checkpoint");
        cluster.replicas[0].poll();
        cluster.replicas[1].poll();
        dep.nic.pump();
        let version = sys.kernel().pers.global_version();
        let snap = cluster.replicas[1].store_snapshot();
        assert_eq!(snap.applied_round, version, "round {i}: snapshot applied");
        let stats = cluster.shipper.last_ship.lock().clone();
        assert_eq!(stats.snapshots, 1, "round {i}: replica 1 resynced");
        // Replica 0 resyncs once at the start, then lives on deltas.
        if cluster.replicas[0].applied_round() == version && i > 0 {
            assert_same_mirror(&cluster.replicas[0].store_snapshot(), &snap, &format!("round {i}"));
            compared += 1;
        }
        if let Some(before) = before.filter(|_| i >= 6) {
            let changed = data_pages_changed(&before, &snap);
            assert!(changed > 0, "round {i}: a SET changes a page");
            assert!(
                stats.read <= changed,
                "round {i}: the delta read {} data pages, the round changed {changed}",
                stats.read
            );
        }
        before = Some(snap);
    }
    assert!(compared >= 18, "the delta-fed mirror was compared {compared} times");
    cluster.stop();
}

/// A CRC-corrupt slot on the wire quarantines the in-flight round (never
/// panics), requests a resync, and the next round's snapshot converges
/// the replica.
#[test]
fn corrupt_delta_quarantines_and_resyncs_without_panic() {
    let sys = System::boot(kv_config());
    let dep = boot_primary(&sys);
    let cluster = Cluster::deploy(&sys, &ClusterConfig::default());

    commit_set(&sys, &dep, 0);
    cluster.replicas[0].poll();
    cluster.replicas[1].poll();
    let clean_round = cluster.replicas[1].applied_round();

    commit_set(&sys, &dep, 1);
    cluster.corrupt_next_delta(1);
    cluster.replicas[0].poll();
    cluster.replicas[1].poll();
    assert_eq!(
        cluster.replicas[1].applied_round(),
        clean_round,
        "a corrupt round must not apply"
    );
    assert!(cluster.replicas[1].is_awaiting_snapshot());
    assert!(cluster.replicas[1].metrics.snapshot().repl_quarantined >= 1);
    assert_eq!(cluster.replicas[0].applied_round(), sys.kernel().pers.global_version());

    commit_set(&sys, &dep, 2);
    cluster.replicas[0].poll();
    cluster.replicas[1].poll();
    assert_eq!(cluster.replicas[1].applied_round(), sys.kernel().pers.global_version());
    assert!(!cluster.replicas[1].is_awaiting_snapshot());
    assert!(cluster.replicas[1].metrics.snapshot().repl_resyncs >= 1);
    assert!(sys.kernel().metrics.snapshot().repl_resyncs >= 1, "primary counted the resync");
}

/// Failover bumps the epoch: after a replica is promoted, the surviving
/// replicas fence out frames the deposed primary keeps shipping, so a
/// zombie primary cannot fork the replicated history.
#[test]
fn promoted_epoch_fences_deposed_primary() {
    let sys = System::boot(kv_config());
    let dep = boot_primary(&sys);
    let cluster = Cluster::deploy(&sys, &ClusterConfig::default());
    let programs = capture_programs(&sys);

    for i in 0..2 {
        commit_set(&sys, &dep, i);
        cluster.replicas[0].poll();
        cluster.replicas[1].poll();
    }
    let version = sys.kernel().pers.global_version();

    // Promote replica 1 (e.g. the primary is *believed* dead). Replica 0
    // is fenced at the new epoch.
    let (sys2, report) = cluster
        .promote(1, kv_config(), |reg| {
            for (name, prog) in &programs {
                reg.register(name, Arc::clone(prog));
            }
        })
        .expect("promotion");
    assert_eq!(report.version, version);
    sys2.manager().verify_checkpoint().expect("promoted tree verifies");

    // The deposed primary is in fact still alive and ships another round;
    // the fenced replica must ignore it wholesale.
    let before = cluster.replicas[0].applied_round();
    commit_set(&sys, &dep, 2);
    cluster.replicas[0].poll();
    assert_eq!(
        cluster.replicas[0].applied_round(),
        before,
        "fenced replica must not apply deposed-primary rounds"
    );
    assert!(
        cluster.replicas[0].fenced_frames.load(Ordering::Relaxed) > 0,
        "stale-epoch frames counted"
    );
}

/// Promotion validates the mirror before booting it: a tampered page
/// image or a missing record is a typed error, not a bad kernel.
#[test]
fn promotion_rejects_damaged_mirrors() {
    let sys = System::boot(kv_config());
    let dep = boot_primary(&sys);
    let cluster = Cluster::deploy(&sys, &ClusterConfig::default());
    commit_set(&sys, &dep, 0);
    cluster.replicas[0].poll();

    // Tampered page image (stored CRC no longer matches the manifest).
    let mut store = cluster.replicas[0].store_snapshot();
    let key = *store.pages.keys().next().expect("mirror has pages");
    store.pages.get_mut(&key).expect("page").crc ^= 1;
    match promote(&store, kv_config(), |_| {}) {
        Err(PromoteError::PageMismatch { .. }) => {}
        other => panic!("tampered page must fail promotion, got {other:?}"),
    }

    // Missing record: the root (or something reachable from it) is gone.
    let mut store = cluster.replicas[0].store_snapshot();
    store.records.remove(&store.root);
    match promote(&store, kv_config(), |_| {}) {
        Err(PromoteError::MissingRoot | PromoteError::MissingRef { .. }) => {}
        other => panic!("truncated mirror must fail promotion, got {other:?}"),
    }
}
