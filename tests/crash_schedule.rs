//! Exhaustive crash-schedule enumeration (systematic §7.2 fault
//! injection).
//!
//! Each scenario (defined in `common/mod.rs`, shared with the torn-write
//! enumeration) is replayed once per NVM write index of its workload
//! phase, crashing at exactly that write, recovering, and checking:
//!
//! * the backup tree is internally consistent
//!   (`CheckpointManager::verify_checkpoint`, which includes the
//!   allocator's buddy/slab verification);
//! * process memory matches the byte-for-byte snapshot taken when the
//!   restored version originally committed;
//! * the external-visibility contract: every reply an external client
//!   observed before the crash is reproducible afterwards, and no slot
//!   tagged with a rolled-back version survives in a ring
//!   (`check_ext_sync_invariants`).
//!
//! `CRASH_STRIDE` (default 1 = every write) lets CI smoke jobs subsample
//! the index space; a failure report names the exact write index or crash
//! site, which reproduces deterministically with
//! `System::run_with_crash_schedule`.

mod common;

use common::{
    step, stride, AbortedWindowScenario, HybridScenario, KvRingScenario, HYBRID_HEAP, HYBRID_PAGES,
    WINDOW_HEAP,
};
use treesls::net::NetFaultConfig;
use treesls::{enumerate_crashes, enumerate_site_crashes, CrashImage, CrashScenario, System};
use treesls_nvm::ShardedStore;

#[test]
fn hybrid_round_actually_migrates_and_evicts() {
    // Guard that the hybrid scenario exercises what it claims: at least
    // one migration, one speculative copy, and one eviction in a clean
    // run — otherwise the enumeration below would be vacuous.
    let scenario = HybridScenario;
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    let sched = std::sync::Arc::clone(sys.kernel().pers.dev.crash_schedule());
    sched.start_write_trace();
    scenario.workload(&mut sys, &mut st);
    let trace = sched.take_write_trace();
    let rounds = sys.manager().hybrid_rounds.lock().clone();
    let migrated: u64 = rounds.iter().map(|r| r.migrated_in).sum();
    let copied: u64 = rounds.iter().map(|r| r.dirty_cached).sum();
    let evicted: u64 = rounds.iter().map(|r| r.evicted).sum();
    assert!(migrated > 0, "no page was migrated to DRAM");
    assert!(copied > 0, "no dirty page was stop-and-copied");
    assert!(evicted > 0, "no idle page was evicted");
    // ... and that its page copies are stored in several runs, one of
    // them longer than a line, so the write and tear enumerations land
    // between the stores of one copy and inside one.
    assert!(common::has_multi_run_copy(&trace), "no page copy was split into runs");
    assert!(
        trace.iter().any(|w| common::is_copy_run(w) && w.tear_cuts() > 0),
        "no run spans a line boundary for the torn enumeration to cut"
    );
}

#[test]
fn kv_checkpoint_survives_crash_at_every_write() {
    // 9 ops against an 8-slot ring: the slot indices wrap, so crash
    // points also land inside reused slots (the truncate/ack interplay).
    let report = enumerate_crashes(&KvRingScenario::new(9), stride());
    eprintln!(
        "kv: {} writes, {} runs ({} crashed), {} site hits",
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
fn hybrid_round_survives_crash_at_every_write() {
    let report = enumerate_crashes(&HybridScenario, stride());
    eprintln!(
        "hybrid: {} writes, {} runs ({} crashed), {} site hits",
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
fn aborted_window_round_logs_captures_and_folds() {
    // Guard that the aborted-window scenario exercises what it claims:
    // one conflict per heap page, undo records on pages 0, 2 and 3, and
    // one materialized runtime ⊖ log (page 2) next to the two interval
    // CoW copies — otherwise the enumerations below would be vacuous.
    let scenario = AbortedWindowScenario;
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    let (stats, metrics) = (sys.kernel().stats.snapshot(), sys.kernel().metrics.snapshot());
    scenario.workload(&mut sys, &mut st);
    let stats = sys.kernel().stats.snapshot().since(&stats);
    let logged = sys.kernel().metrics.snapshot().inline_log_captures - metrics.inline_log_captures;
    assert_eq!(stats.epoch_conflicts, WINDOW_HEAP, "{stats:?}");
    assert_eq!(logged, 3, "undo records appended");
    assert_eq!(stats.cow_copies, 3, "two interval CoWs plus one materialized log: {stats:?}");
}

#[test]
fn aborted_window_fold_survives_crash_at_every_write() {
    let report = enumerate_crashes(&AbortedWindowScenario, stride());
    eprintln!(
        "aborted window: {} writes, {} runs ({} crashed), {} site hits",
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
fn extsync_cycle_survives_crash_at_every_site() {
    // One full push → commit → callback cycle, cut at every named crash
    // site it traverses (checkpoint phases, persistence commit, journal,
    // ring publication, external-synchrony callbacks).
    let report = enumerate_site_crashes(&KvRingScenario::new(1));
    eprintln!("extsync sites: {} runs ({} crashed)", report.runs, report.injected);
    assert!(!report.sites.is_empty(), "workload hit no crash sites");
    let names: std::collections::HashSet<_> = report.sites.iter().map(|s| s.name).collect();
    // The NIC's publish → barrier pipeline must be on the schedule: the
    // server's TX publication, the slot write underneath it, and both
    // halves of the cross-queue visibility barrier (all queues advanced
    // unfenced, then one flush).
    assert!(names.contains("net.tx_published"), "sites: {names:?}");
    assert!(names.contains("ring.slot_written"), "sites: {names:?}");
    assert!(names.contains("ring.pre_visible_store"), "sites: {names:?}");
    assert!(names.contains("net.pre_barrier"), "sites: {names:?}");
    assert!(names.contains("net.pre_barrier_flush"), "sites: {names:?}");
    // The epoch flip adds three cuts to every checkpoint: at the epoch
    // cut-off where external-synchrony callbacks snapshot their TX
    // release barrier, right after the O(1) flip (dirty cut taken, cores
    // already resumed), and at the start of the concurrent drain where
    // the tree walk races live mutators.
    assert!(names.contains("stw.epoch_fence"), "sites: {names:?}");
    assert!(names.contains("stw.epoch_flip"), "sites: {names:?}");
    assert!(names.contains("ckpt.concurrent_drain"), "sites: {names:?}");
    report.assert_clean();
}

#[test]
fn extsync_cycle_survives_crashes_over_reordering_wire() {
    // The same site enumeration with the network fault model composed in:
    // two queues, every third packet duplicated, and a 2-packet reorder
    // window. Crash-consistency must not depend on a well-behaved wire.
    let fault = NetFaultConfig { seed: 0xBEEF, drop_1_in: 0, dup_1_in: 3, reorder_window: 2 };
    let report = enumerate_site_crashes(&KvRingScenario::faulty(4, 2, fault));
    eprintln!(
        "extsync sites over faulty wire: {} runs ({} crashed)",
        report.runs, report.injected
    );
    assert!(!report.sites.is_empty(), "workload hit no crash sites");
    report.assert_clean();
}

/// The restore-path re-arm site ("net.pre_rearm") fires during recovery,
/// not during the workload, so site enumeration never schedules it — a
/// dedicated double-crash drill covers it: crash, recover, crash *again*
/// in the middle of the restore reconciliation (after ring truncation,
/// before the doorbells are re-signalled), recover once more, and run the
/// full oracle.
#[test]
fn restore_rearm_crash_is_survivable() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let scenario = KvRingScenario::new(2);
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    scenario.workload(&mut sys, &mut st);
    // Leave one request in the RX ring *after* the last commit: its
    // doorbell signal lives only in rolled-back state, so the restore
    // path must have a queue to re-arm.
    let op = treesls_apps::wire::KvOp::Set {
        key: treesls_apps::wire::make_key(b"straggler"),
        value: b"late".to_vec(),
    };
    st.nic.send_request(0, &op.encode()).expect("rx push");

    // First power failure and recovery, up to the restore callbacks.
    let image = sys.crash();
    let (mut sys2, report) =
        System::recover(image, scenario.config(), |r| scenario.programs(r))
            .expect("first recovery");
    scenario.reattach(&mut sys2, &mut st);
    let sched = std::sync::Arc::clone(sys2.kernel().pers.dev.crash_schedule());
    sched.arm(treesls_nvm::CrashPoint::Site { name: "net.pre_rearm".into(), skip: 0 });
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        sys2.manager().fire_restore_callbacks(report.version);
    }));
    sched.disarm();
    let payload = unwound.expect_err("net.pre_rearm never fired during restore");
    assert!(
        payload.downcast_ref::<treesls_nvm::InjectedCrash>().is_some(),
        "restore panicked for a reason other than the injected crash"
    );

    // Second power failure, mid-restore. Recovery must converge: the
    // ring truncation that already ran is idempotent.
    let image2 = sys2.crash();
    let (mut sys3, report2) =
        System::recover(image2, scenario.config(), |r| scenario.programs(r))
            .expect("second recovery");
    scenario.reattach(&mut sys3, &mut st);
    sys3.manager().fire_restore_callbacks(report2.version);
    sys3.manager().verify_checkpoint().expect("checkpoint consistent after double crash");
    scenario.verify(&mut sys3, &mut st, &report2).expect("oracle after double crash");
}

/// The epoch-fence conflict capture ("stw.clean_core_cow") fires on a
/// write racing an epoch flip's copy phase, a schedule the
/// single-threaded site enumeration never produces — so a dedicated drill
/// covers it: arm the fence the way the flip leader would, issue a host
/// write to a migrated dirty page, crash inside the capture, and check
/// that recovery rolls back cleanly and the first post-restore
/// checkpoint runs the healing full walk.
#[test]
fn clean_core_cow_crash_is_survivable_and_heals() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let scenario = HybridScenario;
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    // Two write+checkpoint rounds push every heap page past the hotness
    // threshold and migrate it to DRAM; one more write burst leaves the
    // migrated pages dirty for the next round.
    for _ in 0..2 {
        step(&sys, st.writer, HYBRID_PAGES as usize);
        st.snapshots.checkpoint(&sys, st.vmspace, HYBRID_HEAP);
    }
    step(&sys, st.writer, HYBRID_PAGES as usize);

    // Play the leader: arm the epoch fence for the next round,
    // then write to a migrated page from the host — the conflict CoW must
    // trigger, and the injected crash cuts it mid-capture.
    let sched = {
        let kernel = sys.kernel();
        kernel.fence.arm(kernel.pers.global_version() + 1);
        std::sync::Arc::clone(kernel.pers.dev.crash_schedule())
    };
    sched.arm(treesls_nvm::CrashPoint::Site { name: "stw.clean_core_cow".into(), skip: 0 });
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        sys.write_mem(st.vmspace, 0, &0xFEED_FACE_u64.to_le_bytes())
    }));
    sched.disarm();
    let payload =
        unwound.expect_err("stw.clean_core_cow never fired for a migrated-page write");
    assert!(
        payload.downcast_ref::<treesls_nvm::InjectedCrash>().is_some(),
        "write panicked for a reason other than the injected crash"
    );

    // Power failure mid-capture. Recovery must roll back to the last
    // commit, and the interrupted round's consumed dirty flags force the
    // healing full walk on the next checkpoint.
    let image = sys.crash();
    let (mut sys2, report) =
        System::recover(image, scenario.config(), |r| scenario.programs(r))
            .expect("recovery after mid-capture crash");
    scenario.reattach(&mut sys2, &mut st);
    sys2.manager().fire_restore_callbacks(report.version);
    sys2.manager().verify_checkpoint().expect("checkpoint consistent after crash");
    let walks_before = sys2.kernel().metrics.snapshot().tree_full_walks;
    scenario.verify(&mut sys2, &mut st, &report).expect("oracle after crash");
    let walks_after = sys2.kernel().metrics.snapshot().tree_full_walks;
    assert!(
        walks_after > walks_before,
        "first post-restore checkpoint did not run the healing full walk \
         ({walks_before} -> {walks_after})"
    );
}

/// The in-line log capture ("ckpt.inline_log_capture") fires on a small
/// (≤ 1 cache line) mutator write to a committed *non-migrated* page
/// racing the concurrent copy phase — again a schedule single-threaded
/// site enumeration never produces. Dedicated drill: commit one round so
/// the heap pages are read-only but not yet hot enough to migrate, arm
/// the fence the way the epoch flip would, issue an 8-byte host write
/// (undo record, not whole-page CoW), crash inside the capture, and
/// check that recovery rolls back to the last commit and the first
/// post-restore checkpoint runs the healing full walk.
#[test]
fn inline_log_capture_crash_is_survivable_and_heals() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let scenario = HybridScenario;
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    // One write+checkpoint round: every heap page commits and is marked
    // read-only, but stays below the migration hotness threshold, so the
    // conflict path takes the in-line log branch rather than the
    // migrated-page capture.
    step(&sys, st.writer, HYBRID_PAGES as usize);
    st.snapshots.checkpoint(&sys, st.vmspace, HYBRID_HEAP);

    let sched = {
        let kernel = sys.kernel();
        kernel.fence.arm(kernel.pers.global_version() + 1);
        std::sync::Arc::clone(kernel.pers.dev.crash_schedule())
    };
    sched.arm(treesls_nvm::CrashPoint::Site {
        name: "ckpt.inline_log_capture".into(),
        skip: 0,
    });
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        sys.write_mem(st.vmspace, 0, &0xDEAD_BEEF_u64.to_le_bytes())
    }));
    sched.disarm();
    let payload =
        unwound.expect_err("ckpt.inline_log_capture never fired for a small RO-page write");
    assert!(
        payload.downcast_ref::<treesls_nvm::InjectedCrash>().is_some(),
        "write panicked for a reason other than the injected crash"
    );

    // Power failure mid-append. The half-written undo record carries the
    // in-flight round tag, so recovery must ignore it and roll back to
    // the last commit; the interrupted write's consumed dirty flag forces
    // the healing full walk on the next checkpoint.
    let image = sys.crash();
    let (mut sys2, report) =
        System::recover(image, scenario.config(), |r| scenario.programs(r))
            .expect("recovery after mid-append crash");
    scenario.reattach(&mut sys2, &mut st);
    sys2.manager().fire_restore_callbacks(report.version);
    sys2.manager().verify_checkpoint().expect("checkpoint consistent after crash");
    let walks_before = sys2.kernel().metrics.snapshot().tree_full_walks;
    scenario.verify(&mut sys2, &mut st, &report).expect("oracle after crash");
    let walks_after = sys2.kernel().metrics.snapshot().tree_full_walks;
    assert!(
        walks_after > walks_before,
        "first post-restore checkpoint did not run the healing full walk \
         ({walks_before} -> {walks_after})"
    );
}

/// Seq-dedup audit across restore (truncated-TX + retransmit drill): a
/// response published to the TX ring but never committed is truncated by
/// recovery; when the restored server re-executes the surviving request
/// and re-publishes that reply, its pre-crash seq must not be matched to
/// any post-restore request. The host re-attaches with `next_seq` far
/// beyond every pre-crash seq, so stale seqs find no pending entry and
/// are dropped — no restore-epoch in the match key is needed.
#[test]
fn rolled_back_response_seq_never_matches_after_restore() {
    use treesls_apps::wire::{make_key, KvOp, KvResp};

    let scenario = KvRingScenario::new(2);
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    scenario.workload(&mut sys, &mut st);

    // Commit a round boundary, then push one SET whose *request* lands in
    // a committed checkpoint but whose *response* does not: drive the
    // server past publication, skip the commit, and crash.
    let op = KvOp::Set { key: make_key(b"victim"), value: b"uncommitted".to_vec() };
    let seq = st.nic.send_request(0, &op.encode()).expect("rx push");
    st.nic.flush_wire();
    sys.checkpoint_now().expect("commit the request");
    for &srv in &st.servers {
        step(&sys, srv, 16);
    }
    st.nic.pump();
    assert!(
        st.nic.try_take(seq).is_none(),
        "uncommitted response became externally visible before the crash"
    );

    let image = sys.crash();
    let (mut sys2, report) =
        System::recover(image, scenario.config(), |r| scenario.programs(r))
            .expect("recovery after truncated-TX crash");
    scenario.reattach(&mut sys2, &mut st);
    sys2.manager().fire_restore_callbacks(report.version);

    // The re-armed doorbell makes the restored server re-execute the
    // surviving request and re-publish the reply under its pre-crash seq.
    for &srv in &st.servers {
        step(&sys2, srv, 16);
    }
    sys2.checkpoint_now().expect("post-restore commit");
    st.nic.pump();
    // The stale seq finds no pending entry on the re-attached host: the
    // orphaned response is dropped, never delivered to a new caller.
    assert!(st.nic.try_take(seq).is_none(), "stale seq matched after restore");
    assert_eq!(st.nic.in_flight(), 0, "orphaned response left a pending entry");

    // A fresh request (seq from the post-restore range) gets exactly one
    // reply, and it reflects the re-executed SET.
    let get = KvOp::Get { key: make_key(b"victim") };
    let seq2 = st.nic.send_request(0, &get.encode()).expect("rx push");
    assert!(seq2 >= 1_000_000, "re-attached host reused a pre-crash seq range");
    st.nic.flush_wire();
    for &srv in &st.servers {
        step(&sys2, srv, 16);
    }
    sys2.checkpoint_now().expect("commit the GET");
    st.nic.pump();
    let resp = st.nic.try_take(seq2).expect("fresh request got no reply");
    match KvResp::decode(&resp) {
        Some(KvResp::Ok(Some(v))) if v.as_slice() == b"uncommitted" => {}
        other => panic!("re-executed SET not visible to post-restore GET: {other:?}"),
    }
    assert!(st.nic.try_take(seq2).is_none(), "reply delivered twice");
    sys2.manager().verify_checkpoint().expect("checkpoint consistent");
}

#[test]
fn hybrid_round_survives_crash_at_every_site() {
    let report = enumerate_site_crashes(&HybridScenario);
    eprintln!("hybrid sites: {} runs ({} crashed)", report.runs, report.injected);
    let names: std::collections::HashSet<_> =
        report.sites.iter().map(|s| s.name).collect();
    // The hybrid-specific sites must be on the schedule, or the run is
    // not testing what it claims.
    assert!(names.contains("hybrid.pre_migrate_in"), "sites: {names:?}");
    assert!(names.contains("hybrid.pre_sac_copy"), "sites: {names:?}");
    assert!(names.contains("hybrid.pre_evict"), "sites: {names:?}");
    // The dirty-queue walk's phases must also be cut: after the drain,
    // before the record builds, after them, and before the inref-delta
    // apply. A crash at any of them loses the consumed dirty flags, so a
    // clean recovery here proves the healing full walk resynchronizes.
    assert!(names.contains("tree.dirty_drained"), "sites: {names:?}");
    assert!(names.contains("tree.pre_build"), "sites: {names:?}");
    assert!(names.contains("tree.records_built"), "sites: {names:?}");
    assert!(names.contains("tree.pre_epoch_apply"), "sites: {names:?}");
    report.assert_clean();
}

/// The checkpoint-shipping crash sites (`repl.pre_ship` before the delta
/// is built, `repl.mid_ship` between a delta's data and its commit frame,
/// `repl.post_ack` after the quorum wait) all fire *after* the local
/// commit point but *before* the NIC's visibility barrier advances — so a
/// primary lost at any of them has released nothing for the cut round,
/// and a replica promoted from its mirror must satisfy the §5 oracle:
/// every externally acknowledged write is readable after failover. The
/// promoted tree is then verified under both walk flavors (the healing
/// full walk recovery forces, and the O(changes) dirty walk of the
/// following rounds).
#[test]
fn repl_ship_crash_sites_cut_failover_cleanly() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use common::{find_process_all, KV_GEOM};
    use treesls::net::VirtualNic;
    use treesls_apps::wire::{make_key, KvOp, KvResp};
    use treesls_bench::ringsetup::{deploy_kv_cfg, nic_config};
    use treesls_repl::{Cluster, ClusterConfig};

    for site in ["repl.pre_ship", "repl.mid_ship", "repl.post_ack"] {
        let sys = System::boot(KvRingScenario::kv_config());
        let dep = deploy_kv_cfg(&sys, 16, 40, nic_config(1, true, &KV_GEOM), KV_GEOM);
        for &srv in &dep.server_threads {
            step(&sys, srv, 4);
        }
        let cluster = Cluster::deploy(&sys, &ClusterConfig::default());
        cluster.attach_gate(&dep.nic);
        let programs: Vec<_> = sys
            .programs()
            .names()
            .into_iter()
            .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
            .collect();
        let layout = dep.nic.layout();

        // Two committed, replicated, externally acknowledged rounds.
        let mut acked: Vec<(u64, [u8; 16], Vec<u8>)> = Vec::new();
        for i in 0..2u64 {
            // Keys are 16 bytes; keep the discriminant up front.
            let key = make_key(format!("k{i}-{site}").as_bytes());
            let value = format!("{site}-value-{i}").into_bytes();
            let op = KvOp::Set { key, value: value.clone() };
            let seq = dep.nic.send_request(i, &op.encode()).expect("rx push");
            dep.nic.flush_wire();
            for &srv in &dep.server_threads {
                step(&sys, srv, 8);
            }
            sys.checkpoint_now().expect("checkpoint");
            cluster.replicas[0].poll();
            cluster.replicas[1].poll();
            dep.nic.pump();
            if dep.nic.try_take(seq).is_some() {
                acked.push((i, key, value));
            }
        }
        assert!(!acked.is_empty(), "{site}: no externally visible write to protect");

        // One more SET whose round is cut at the shipper's crash site.
        let op = KvOp::Set { key: make_key(b"cut-round"), value: b"never-released".to_vec() };
        dep.nic.send_request(9, &op.encode()).expect("rx push");
        dep.nic.flush_wire();
        for &srv in &dep.server_threads {
            step(&sys, srv, 8);
        }
        let sched = std::sync::Arc::clone(sys.kernel().pers.dev.crash_schedule());
        sched.arm(treesls_nvm::CrashPoint::Site { name: site.into(), skip: 0 });
        let unwound = catch_unwind(AssertUnwindSafe(|| sys.checkpoint_now()));
        sched.disarm();
        let payload = unwound.expect_err(site);
        assert!(
            payload.downcast_ref::<treesls_nvm::InjectedCrash>().is_some(),
            "{site}: checkpoint panicked for a reason other than the injected crash"
        );
        // The barrier never advanced past the cut round: its response
        // must not have been released.
        dep.nic.pump();

        // The machine is lost. A failover manager drains what the wire
        // still holds, then promotes the surviving replica.
        cluster.replicas[0].poll();
        let applied = cluster.replicas[0].applied_round();
        assert!(applied >= 2, "{site}: replica never applied the baseline rounds");
        dep.nic.close();
        drop(dep);
        drop(sys);

        let (sys2, report) = cluster
            .promote(0, KvRingScenario::kv_config(), |reg| {
                for (name, prog) in &programs {
                    reg.register(name, Arc::clone(prog));
                }
            })
            .unwrap_or_else(|e| panic!("{site}: promotion failed: {e:?}"));
        assert_eq!(report.version, applied, "{site}: promoted at the mirrored round");
        sys2.manager().verify_checkpoint().expect("promoted tree verifies (full-walk heal)");

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

        // §5 across the failover: every acknowledged SET is readable.
        for (flow, key, value) in &acked {
            let get = KvOp::Get { key: *key };
            let seq = nic2.send_request(*flow, &get.encode()).expect("rx push");
            nic2.flush_wire();
            for &srv in &servers {
                step(&sys2, srv, 16);
            }
            sys2.checkpoint_now().expect("post-failover checkpoint");
            nic2.pump();
            let resp = nic2.try_take(seq).and_then(|r| KvResp::decode(&r));
            match resp {
                Some(KvResp::Ok(Some(v))) if &v == value => {}
                other => panic!("{site}: acked SET {key:?} lost across failover: {other:?}"),
            }
        }
        // The GET rounds above ran the O(changes) dirty walk on top of
        // the recovery full walk; the tree must still verify.
        assert!(sys2.kernel().metrics.snapshot().tree_full_walks >= 1);
        sys2.manager().verify_checkpoint().expect("promoted tree verifies (dirty walk)");
    }
}

/// A second handle on a crash image: the same device and copies of the
/// record stores. A crash that unwinds out of `System::recover` drops the
/// stores the first handle moved in; the copy stands for the records a
/// real device keeps (the page metadata they point to is shared, so what
/// the interrupted recovery already normalized stays normalized).
fn fork(image: &mut CrashImage) -> CrashImage {
    fn copy<T: Clone>(store: &mut ShardedStore<T>) -> ShardedStore<T> {
        let shards = store.take_shards();
        let copy = ShardedStore::from_shards(shards.clone());
        *store = ShardedStore::from_shards(shards);
        copy
    }
    CrashImage {
        dev: std::sync::Arc::clone(&image.dev),
        nvm_frames: image.nvm_frames,
        backups: copy(&mut image.backups),
        oroots: copy(&mut image.oroots),
    }
}

/// The allocator rebuild is unjournaled because it is idempotent from the
/// committed image. So a crash inside it — before either of its two region
/// stores, or torn at the first, middle or last cache line of one — leaves
/// buddy and slab metadata that is part rebuilt and part stale, and the
/// next recovery must still restore the same image and rebuild the same
/// allocator, byte for byte.
#[test]
fn crash_inside_allocator_rebuild_recovers_the_same_image() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use treesls_nvm::{CrashPoint, InjectedCrash, WriteKind};

    let scenario = HybridScenario;
    let config = scenario.config();
    let layout = treesls_pmem_alloc::AllocLayout::for_device(0, config.kernel.nvm_frames);
    let region = layout.buddy_off..layout.recorder_off;
    // The committed workload plus uncommitted writes, whose CoW frames the
    // rebuild returns to the free lists.
    let crashed = || {
        let mut sys = System::boot(scenario.config());
        let mut st = scenario.setup(&mut sys);
        scenario.workload(&mut sys, &mut st);
        step(&sys, st.writer, HYBRID_PAGES as usize);
        (sys.crash(), st)
    };
    let recover = |image| System::recover(image, scenario.config(), |r| scenario.programs(r));
    let allocator = |sys: &System| sys.kernel().pers.dev.meta().dump()[region.clone()].to_vec();

    // A clean recovery locates the rebuild's stores in the write stream.
    let (image, _) = crashed();
    let sched = std::sync::Arc::clone(image.dev.crash_schedule());
    sched.start_write_trace();
    let (clean, clean_report) = recover(image).expect("clean recovery");
    let trace = sched.take_write_trace();
    let stores: Vec<(u64, u32)> = trace
        .iter()
        .enumerate()
        .filter(|(_, w)| w.kind == WriteKind::Meta && region.contains(&w.off))
        .map(|(i, w)| (i as u64, w.tear_cuts()))
        .collect();
    assert_eq!(stores.len(), 2, "one store per region: {stores:?}");
    let want = allocator(&clean);

    let mut runs = 0;
    for &(skip, tears) in &stores {
        let mut cuts = vec![0, 1, tears / 2, tears];
        cuts.dedup();
        for cut in cuts {
            let (mut image, mut st) = crashed();
            let survivor = fork(&mut image);
            let sched = std::sync::Arc::clone(image.dev.crash_schedule());
            sched.arm(CrashPoint::TornWrite { skip, cut });
            let unwound = catch_unwind(AssertUnwindSafe(|| recover(image)));
            sched.disarm();
            let payload = unwound.err().unwrap_or_else(|| panic!("write {skip} cut {cut}: no crash"));
            assert!(payload.is::<InjectedCrash>(), "write {skip} cut {cut}: a real panic");

            let (mut sys, report) = recover(survivor).expect("recovery after a crashed rebuild");
            assert_eq!((report.pages, report.objects), (clean_report.pages, clean_report.objects));
            sys.kernel().pers.alloc.verify().expect("allocator verifies");
            assert!(allocator(&sys) == want, "write {skip} cut {cut}: allocator differs");
            scenario.reattach(&mut sys, &mut st);
            sys.manager().fire_restore_callbacks(report.version);
            sys.manager().verify_checkpoint().expect("checkpoint consistent");
            scenario.verify(&mut sys, &mut st, &report).expect("oracle after a crashed rebuild");
            runs += 1;
        }
    }
    eprintln!("crashed rebuild: {runs} runs over {} stores", stores.len());
}

#[test]
fn crash_runs_are_reproducible() {
    // The same crash point must produce the same restored version and
    // the same recovery outcome — the property that makes a failure
    // report (scenario + write index) a deterministic repro.
    let scenario = KvRingScenario::new(2);
    let (writes, _) = treesls::crashtest::measure(&scenario);
    let idx = writes / 2;
    let a = System::run_with_crash_schedule(
        &scenario,
        Some(treesls_nvm::CrashPoint::AnyWrite(idx)),
    )
    .expect("first run");
    let b = System::run_with_crash_schedule(
        &scenario,
        Some(treesls_nvm::CrashPoint::AnyWrite(idx)),
    )
    .expect("second run");
    assert_eq!(a.crashed, b.crashed);
    assert_eq!(a.report.version, b.report.version);
    assert_eq!(a.report.objects, b.report.objects);
    assert_eq!(a.report.pages, b.report.pages);
}

#[test]
fn completed_workload_still_passes_with_unfired_fuse() {
    // Arming far beyond the workload's write count must behave like a
    // clean power-off after completion.
    let scenario = KvRingScenario::new(1);
    let run = System::run_with_crash_schedule(
        &scenario,
        Some(treesls_nvm::CrashPoint::AnyWrite(u64::MAX / 2)),
    )
    .expect("clean run");
    assert!(!run.crashed);
}
