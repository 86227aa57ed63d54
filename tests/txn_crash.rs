//! Crash consistency for multi-key transactions (the `treesls-txn`
//! subsystem).
//!
//! The transactional store lives in checkpointed process memory and is
//! updated in place, so its whole crash story reduces to one claim: a
//! checkpoint image is always transaction-consistent, because a service
//! step never straddles a round's cut — a round holds all of a commit or
//! none of it. These tests attack the claim from every angle the harness
//! has:
//!
//! * clean-crash enumeration at every NVM write of a transactional
//!   workload (begin / buffered writes / commit with secondary-index
//!   churn and deletes);
//! * named-site enumeration across the commit pipeline
//!   (`txn.index_update`, `txn.pre_publish`, `txn.commit_visible`);
//! * torn-write enumeration (64 B cut classes) over the same workload;
//! * a differential oracle: after every recovery the restored primary
//!   space must equal a *serial replay* of the committed prefix, and the
//!   secondary index must match it exactly — across five seeds;
//! * a mid-commit site crash drill asserting the healing full walk runs
//!   on the first post-restore checkpoint;
//! * a replica-promotion drill: the primary dies mid-ship, the survivor
//!   is promoted, and every externally acknowledged commit is readable
//!   (with a consistent index) on the promoted node.

mod common;

use std::sync::Arc;

use common::{step, stride, tkey, ttag, TxnRingScenario, TXN_NODE_CAP};
use treesls::extsync::HostIo;
use treesls::{
    enumerate_crashes, enumerate_site_crashes, enumerate_torn_crashes, CrashScenario, System,
};
use treesls_nvm::PersistMode;
use treesls_txn::{check_index_consistency, TxnOp, TxnResp, TxnStore};

#[test]
fn txn_ring_survives_crash_at_every_write() {
    let report = enumerate_crashes(&TxnRingScenario::new(3), stride());
    eprintln!(
        "txn: {} writes, {} runs ({} crashed), {} site hits",
        report.writes,
        report.runs,
        report.injected,
        report.sites.len()
    );
    assert!(report.writes > 0, "workload performed no NVM writes");
    assert!(report.injected > 0, "no crash ever fired");
    report.assert_clean();
}

#[test]
fn txn_commit_survives_crash_at_every_site() {
    let report = enumerate_site_crashes(&TxnRingScenario::new(2));
    eprintln!("txn sites: {} runs ({} crashed)", report.runs, report.injected);
    assert!(!report.sites.is_empty(), "workload hit no crash sites");
    let names: std::collections::HashSet<_> = report.sites.iter().map(|s| s.name).collect();
    // The commit pipeline's own cuts must be on the schedule: each index
    // mutation, the instant before the `seq` store, and the instant after
    // it makes the commit visible.
    assert!(names.contains("txn.index_update"), "sites: {names:?}");
    assert!(names.contains("txn.pre_publish"), "sites: {names:?}");
    assert!(names.contains("txn.commit_visible"), "sites: {names:?}");
    report.assert_clean();
}

#[test]
fn txn_ring_survives_torn_crash_at_every_write_and_cut() {
    let report =
        enumerate_torn_crashes(&TxnRingScenario::new(2), stride(), PersistMode::Eadr, &[0]);
    eprintln!(
        "txn torn: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.writes > 0, "workload performed no NVM writes");
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

/// Differential oracle across seeds: each seed runs a distinct planned
/// history, crashes at a seed-chosen write index, and recovery must
/// restore exactly the serial replay of the committed prefix (primary
/// records, tags, values, and the secondary index — checked inside
/// [`TxnRingScenario::verify`]).
#[test]
fn txn_serial_replay_oracle_holds_across_seeds() {
    for seed in 0..5u64 {
        let scenario = TxnRingScenario::seeded(3, seed);
        let (writes, _) = treesls::crashtest::measure(&scenario);
        assert!(writes > 0, "seed {seed}: no NVM writes");
        // A different cut point per seed, spread across the workload.
        let idx = writes * (seed + 1) / 6;
        let run = treesls::run_with_crash_schedule(
            &scenario,
            Some(treesls_nvm::CrashPoint::AnyWrite(idx)),
        )
        .unwrap_or_else(|e| panic!("seed {seed} (crash at write {idx}): {e}"));
        assert!(run.crashed, "seed {seed}: the scheduled crash never fired");
    }
}

/// Mid-commit site crashes must heal: crash the server inside the commit
/// pipeline, recover, and assert the first post-restore checkpoint runs
/// the healing full walk (the interrupted round's consumed dirty flags
/// force it), with the full transactional oracle green afterwards.
#[test]
fn txn_site_crash_heals_with_full_walk() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    for site in ["txn.index_update", "txn.pre_publish", "txn.commit_visible"] {
        let scenario = TxnRingScenario::new(1);
        let mut sys = System::boot(scenario.config());
        let mut st = scenario.setup(&mut sys);
        // One committed, acknowledged transaction as the baseline.
        scenario.workload(&mut sys, &mut st);
        assert_eq!(st.acked.len(), 1, "{site}: baseline commit not acknowledged");

        // Send the next transaction's frames and cut its commit at the
        // named site.
        for f in scenario.frames(1) {
            st.nic.send_request(1, &f.encode()).expect("rx push");
        }
        st.nic.flush_wire();
        let sched = Arc::clone(sys.kernel().pers.dev.crash_schedule());
        sched.arm(treesls_nvm::CrashPoint::Site { name: site.into(), skip: 0 });
        let unwound = catch_unwind(AssertUnwindSafe(|| st.drive(&sys, 64)));
        sched.disarm();
        let payload = unwound.expect_err(site);
        assert!(
            payload.downcast_ref::<treesls_nvm::InjectedCrash>().is_some(),
            "{site}: server panicked for a reason other than the injected crash"
        );

        // Power failure mid-commit. Recovery must roll back to the
        // baseline round: the commit's in-place stores landed after that
        // round's cut, so the restored image holds none of them.
        let image = sys.crash();
        let (mut sys2, report) =
            System::recover(image, scenario.config(), |r| scenario.programs(r))
                .unwrap_or_else(|e| panic!("{site}: recovery failed: {e:?}"));
        scenario.reattach(&mut sys2, &mut st);
        sys2.manager().fire_restore_callbacks(report.version);
        sys2.manager().verify_checkpoint().expect("checkpoint consistent after crash");
        let walks_before = sys2.kernel().metrics.snapshot().tree_full_walks;
        scenario
            .verify(&mut sys2, &mut st, &report)
            .unwrap_or_else(|e| panic!("{site}: oracle after crash: {e}"));
        let walks_after = sys2.kernel().metrics.snapshot().tree_full_walks;
        assert!(
            walks_after > walks_before,
            "{site}: first post-restore checkpoint did not run the healing full walk \
             ({walks_before} -> {walks_after})"
        );
    }
}

/// The durability gate tracks the checkpoint frontier: after a committed
/// round the gate's durable sequence equals the store sequence, and a
/// recovery resyncs it to the restored image (never ahead of it).
#[test]
fn txn_gate_tracks_the_durable_frontier() {
    let scenario = TxnRingScenario::new(2);
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    scenario.workload(&mut sys, &mut st);
    let committed = st.gate.committed_seq().expect("store formatted");
    assert_eq!(committed, 2, "two transactions committed");
    assert_eq!(
        st.gate.durable_seq(),
        committed,
        "checkpoint landed after the last commit, so the frontier covers it"
    );
    assert_eq!(sys.kernel().metrics.snapshot().txn_durable_seq, committed);

    // Crash and recover: the fresh gate resyncs from the restored image.
    let image = sys.crash();
    let (mut sys2, report) =
        System::recover(image, scenario.config(), |r| scenario.programs(r))
            .expect("recovery");
    scenario.reattach(&mut sys2, &mut st);
    sys2.manager().fire_restore_callbacks(report.version);
    let restored = st.gate.durable_seq();
    assert_eq!(restored, st.gate.committed_seq().expect("store restored"));
    assert!(
        st.acked.iter().all(|(_, seq)| *seq <= restored),
        "an acknowledged commit is above the restored durable frontier"
    );
    scenario.verify(&mut sys2, &mut st, &report).expect("oracle after restore");
}

/// Replica-promotion drill for transactions: the primary dies between a
/// shipped delta's data and its commit frame (`repl.mid_ship`), after the
/// local commit but before the NIC released anything for the cut round.
/// The survivor is promoted and must hold every externally acknowledged
/// transaction with an exactly consistent secondary index.
#[test]
fn txn_replica_promotion_preserves_acked_commits() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use common::find_process_all;
    use treesls::net::VirtualNic;
    use treesls_repl::{Cluster, ClusterConfig};

    let scenario = TxnRingScenario::new(0);
    let sys = System::boot(scenario.config());
    let txd = treesls_bench::ringsetup::deploy_txn(&sys, TXN_NODE_CAP, scenario.nic_config());
    for &srv in &txd.dep.server_threads {
        step(&sys, srv, 4);
    }
    let cluster = Cluster::deploy(&sys, &ClusterConfig::default());
    cluster.attach_gate(&txd.dep.nic);
    let programs: Vec<_> = sys
        .programs()
        .names()
        .into_iter()
        .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
        .collect();
    let layout = txd.dep.nic.layout();

    // Two committed, replicated, externally acknowledged transactions.
    let mut acked: Vec<(u64, u64)> = Vec::new();
    for i in 0..2u64 {
        let frames = scenario.frames(i);
        let mut commit_wire = 0;
        for (j, f) in frames.iter().enumerate() {
            let seq = txd.dep.nic.send_request(i, &f.encode()).expect("rx push");
            if j == frames.len() - 1 {
                commit_wire = seq;
            }
        }
        txd.dep.nic.flush_wire();
        for &srv in &txd.dep.server_threads {
            step(&sys, srv, 8 * frames.len());
        }
        sys.checkpoint_now().expect("checkpoint");
        cluster.replicas[0].poll();
        cluster.replicas[1].poll();
        txd.dep.nic.pump();
        if let Some(resp) = txd.dep.nic.try_take(commit_wire) {
            match TxnResp::decode(&resp) {
                Some(TxnResp::Ok { seq }) => acked.push((i, seq)),
                other => panic!("txn {i} commit rejected: {other:?}"),
            }
        }
    }
    assert!(!acked.is_empty(), "no externally acknowledged commit to protect");

    // One more transaction whose round is cut between the shipped delta's
    // data and its commit frame.
    for f in scenario.frames(2) {
        txd.dep.nic.send_request(9, &f.encode()).expect("rx push");
    }
    txd.dep.nic.flush_wire();
    for &srv in &txd.dep.server_threads {
        step(&sys, srv, 48);
    }
    let sched = Arc::clone(sys.kernel().pers.dev.crash_schedule());
    sched.arm(treesls_nvm::CrashPoint::Site { name: "repl.mid_ship".into(), skip: 0 });
    let unwound = catch_unwind(AssertUnwindSafe(|| sys.checkpoint_now()));
    sched.disarm();
    let payload = unwound.expect_err("repl.mid_ship never fired");
    assert!(
        payload.downcast_ref::<treesls_nvm::InjectedCrash>().is_some(),
        "checkpoint panicked for a reason other than the injected crash"
    );
    txd.dep.nic.pump();

    // The primary is lost; the failover manager drains the wire and
    // promotes the surviving replica.
    cluster.replicas[0].poll();
    let applied = cluster.replicas[0].applied_round();
    assert!(applied >= 2, "replica never applied the baseline rounds");
    txd.dep.nic.close();
    drop(txd);
    drop(sys);

    let (sys2, report) = cluster
        .promote(0, TxnRingScenario::txn_config(), |reg| {
            for (name, prog) in &programs {
                reg.register(name, Arc::clone(prog));
            }
        })
        .unwrap_or_else(|e| panic!("promotion failed: {e:?}"));
    assert_eq!(report.version, applied, "promoted at the mirrored round");
    sys2.manager().verify_checkpoint().expect("promoted tree verifies");

    let (vmspace, servers, notifs) = find_process_all(&sys2, "ring-txn");
    let nic2 = VirtualNic::attach(
        Arc::clone(sys2.kernel()),
        vmspace,
        layout,
        &scenario.nic_config(),
        1_000_000,
    );
    for (q, notif) in notifs.into_iter().enumerate() {
        nic2.set_doorbell(q, notif);
    }
    sys2.manager().register_callback(Arc::clone(&nic2) as _);
    sys2.manager().fire_restore_callbacks(report.version);

    // The promoted store is exactly index-consistent before serving.
    let io = HostIo::new(Arc::clone(sys2.kernel()), vmspace);
    let store = TxnStore::attach(&io, 0).expect("attach").expect("formatted");
    let meta = store.meta(&io).expect("meta");
    for (i, seq) in &acked {
        assert!(
            *seq <= meta.seq,
            "acked txn {i} (commit seq {seq}) lost across failover (promoted seq {})",
            meta.seq
        );
    }
    check_index_consistency(&store, &io)
        .unwrap_or_else(|e| panic!("promoted index inconsistent: {e}"));

    // §5 across failover: every acknowledged transaction's writes are
    // readable on the promoted node, through the NIC.
    for (i, _) in &acked {
        let key = tkey(100 + 2 * i);
        let read = TxnOp::Read { txn: 0, key };
        let seq = nic2.send_request(*i, &read.encode()).expect("rx push");
        nic2.flush_wire();
        for &srv in &servers {
            step(&sys2, srv, 16);
        }
        sys2.checkpoint_now().expect("post-failover checkpoint");
        nic2.pump();
        let resp = nic2.try_take(seq).and_then(|r| TxnResp::decode(&r));
        let expect = format!("a{i}s0").into_bytes();
        match resp {
            Some(TxnResp::Value { val }) if val == expect => {}
            other => panic!("acked txn {i} write lost across failover: {other:?}"),
        }
    }
    // And the promoted node keeps committing fresh transactions.
    let probe = TxnOp::WriteCommit {
        txn: 0,
        key: tkey(555_555),
        tag: ttag(0),
        val: Some(b"promoted".to_vec()),
    };
    let seq = nic2.send_request(3, &probe.encode()).expect("rx push");
    nic2.flush_wire();
    for &srv in &servers {
        step(&sys2, srv, 16);
    }
    sys2.checkpoint_now().expect("probe checkpoint");
    nic2.pump();
    match nic2.try_take(seq).and_then(|r| TxnResp::decode(&r)) {
        Some(TxnResp::Ok { .. }) => {}
        other => panic!("promoted node refused a fresh commit: {other:?}"),
    }
    sys2.manager().verify_checkpoint().expect("promoted tree verifies after new commits");
}
