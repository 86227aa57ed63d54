//! §5 end-to-end tests: transparent external synchrony.
//!
//! The contract under test is the paper's: "an SLS should make sure that
//! the state changes caused by a request are persisted before sending
//! responses to external systems". With ext-sync on, any response an
//! external client has *observed* must survive a crash; responses whose
//! state was rolled back are never observed (the client retries).

use std::sync::Arc;
use std::time::Duration;

use treesls::net::{NicLayout, VirtualNic};
use treesls::{System, SystemConfig};
use treesls_apps::wire::{make_key, KvOp, KvResp};
use treesls_bench::ringsetup::{deploy_kv, nic_config, ShardGeometry};

fn config(interval_ms: Option<u64>) -> SystemConfig {
    let mut c = SystemConfig::small();
    c.kernel.nvm_frames = 65_536;
    c.kernel.dram_pages = 1024;
    c.checkpoint_interval = interval_ms.map(Duration::from_millis);
    c
}

#[test]
fn responses_are_delayed_until_a_checkpoint_commits() {
    let mut sys = System::boot(config(None)); // manual checkpoints
    let dep = deploy_kv(&sys, 1, 1024, 128, true, ShardGeometry::default());
    sys.start();
    let nic = &dep.nic;

    let op = KvOp::Set { key: make_key(b"durable"), value: b"yes".to_vec() };
    // Without a checkpoint the response must NOT become visible.
    let r = nic.call(0, &op.encode(), Duration::from_millis(200)).unwrap();
    assert!(r.reply().is_none(), "response leaked before any checkpoint");

    // After a checkpoint the (retried) request is answered.
    let seq = nic.send_request(0, &op.encode()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut got = None;
    while got.is_none() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        sys.checkpoint_now().unwrap();
        nic.pump();
        got = nic.try_take(seq);
    }
    assert!(got.is_some(), "response never released after checkpoints");
    sys.stop();
}

/// Finds the restored ring-server vmspace (the one with the eternal ring
/// region mapped alongside its heap).
fn restored_vmspace(sys: &System) -> treesls::ObjId {
    let kernel = sys.kernel();
    let objects = kernel.objects.read();
    let found = objects
        .iter()
        .filter(|(_, o)| o.otype == treesls::ObjType::VmSpace)
        .map(|(id, _)| id)
        .find(|&id| {
            let o = kernel.object(id).unwrap();
            let b = o.body.read();
            matches!(&*b, treesls_kernel::object::ObjectBody::VmSpace(v)
                if v.regions.len() >= 2)
        })
        .expect("server vmspace");
    found
}

/// Finds the restored doorbell notifications, in slot (= queue) order.
fn restored_doorbells(sys: &System) -> Vec<treesls::ObjId> {
    let kernel = sys.kernel();
    let objects = kernel.objects.read();
    let mut bells: Vec<_> = objects
        .iter()
        .filter(|(_, o)| o.otype == treesls::ObjType::Notification)
        .map(|(id, _)| id)
        .collect();
    bells.sort();
    bells
}

/// Rebuilds the layout `deploy_kv` used for a single-queue NIC over
/// `geom` (heap, then a 16-page guard gap, then the eternal rings).
fn kv_layout(geom: &ShardGeometry, cfg: &treesls::net::NicConfig) -> NicLayout {
    let heap_pages = cfg.queues as u64 * geom.data_stride / 4096 + 1;
    NicLayout::new(cfg, (heap_pages + 16) * 4096, geom.data_stride - 4096, geom.data_stride)
}

/// Crashes `sys` and recovers it under `cfg` with the same programs (the
/// "binaries" on disk), then reattaches a single-queue NIC over `geom` to
/// the restored rings (no re-init!), rebinds the doorbell the restored
/// server blocks on, re-registers the ext-sync callback and fires the
/// restore reconciliation. The recovered system is not started.
fn crash_and_reattach(
    sys: System,
    cfg: SystemConfig,
    geom: &ShardGeometry,
) -> (System, Arc<VirtualNic>) {
    let programs: Vec<(String, Arc<dyn treesls::Program>)> = sys
        .programs()
        .names()
        .into_iter()
        .filter_map(|n| sys.programs().get(&n).map(|p| (n, p)))
        .collect();
    let image = sys.crash();
    let (sys2, report) = System::recover(image, cfg, move |r| {
        for (n, p) in programs {
            r.register(&n, p);
        }
    })
    .expect("recovery");
    let nic_cfg = nic_config(1, true, geom);
    let layout = kv_layout(geom, &nic_cfg);
    let nic = VirtualNic::attach(
        Arc::clone(sys2.kernel()),
        restored_vmspace(&sys2),
        layout,
        &nic_cfg,
        1_000_000,
    );
    let bells = restored_doorbells(&sys2);
    assert_eq!(bells.len(), 1, "doorbell notification restored");
    nic.set_doorbell(0, bells[0]);
    sys2.manager().register_callback(Arc::clone(&nic) as _);
    // The uniform per-queue re-arm: cursor < writer ⇒ signal the bell.
    sys2.manager().fire_restore_callbacks(report.version);
    (sys2, nic)
}

#[test]
fn full_crash_recovery_with_server_continuation() {
    // End-to-end: SET observed → crash → recover → re-register programs →
    // GET must return the value.
    let mut sys = System::boot(config(Some(1)));
    let geom = ShardGeometry::default();
    let dep = deploy_kv(&sys, 1, 1024, 128, true, geom);
    sys.start();
    let op = KvOp::Set { key: make_key(b"alive"), value: b"after-crash".to_vec() };
    dep.nic
        .call(0, &op.encode(), Duration::from_secs(5))
        .unwrap()
        .reply()
        .expect("SET acked");
    sys.stop();

    let (mut sys2, nic2) = crash_and_reattach(sys, config(Some(1)), &geom);
    sys2.start();

    let get = KvOp::Get { key: make_key(b"alive") };
    let resp = nic2
        .call(0, &get.encode(), Duration::from_secs(5))
        .unwrap()
        .reply()
        .expect("GET after recovery");
    match KvResp::decode(&resp) {
        Some(KvResp::Ok(Some(v))) => assert_eq!(v, b"after-crash"),
        other => panic!("observed SET was lost after crash: {other:?}"),
    }
    sys2.stop();
}

/// Regression (PR 1 lost-doorbell bug): a request that lands in the RX
/// ring *after* the last pre-crash checkpoint leaves its doorbell signal
/// in rolled-back notification state. The restore path must re-arm every
/// queue whose restored RX cursor trails the ring writer, or the server
/// sleeps forever on a ring that still holds work.
#[test]
fn restore_rearms_doorbell_for_uncommitted_requests() {
    let mut sys = System::boot(config(None)); // manual checkpoints only
    let geom = ShardGeometry::default();
    let dep = deploy_kv(&sys, 1, 1024, 128, true, geom);
    sys.start();
    // Let the server format its table and park on the doorbell, then
    // commit that parked state.
    std::thread::sleep(Duration::from_millis(20));
    sys.checkpoint_now().unwrap();
    // The request arrives after the commit: its doorbell signal lives
    // only in to-be-rolled-back state, but the RX slot is eternal.
    let op = KvOp::Set { key: make_key(b"ghost"), value: b"rung".to_vec() };
    dep.nic.send_request(0, &op.encode()).unwrap();
    sys.stop();

    let (mut sys2, nic2) = crash_and_reattach(sys, config(None), &geom);
    sys2.start();

    // Without retransmitting the lost SET, the woken server must process
    // the ring-resident request; a fresh GET (held pending across the
    // manual commits that release its commit-gated reply) observes it.
    let get = KvOp::Get { key: make_key(b"ghost") };
    let seq = nic2.send_request(0, &get.encode()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut got = None;
    while got.is_none() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        sys2.checkpoint_now().unwrap();
        nic2.pump();
        got = nic2.try_take(seq);
    }
    let resp = got.expect("ring-resident SET never served after re-arm");
    match KvResp::decode(&resp) {
        Some(KvResp::Ok(Some(v))) => assert_eq!(v, b"rung"),
        other => panic!("ghost SET not observed by the GET: {other:?}"),
    }
    sys2.stop();
}

/// Regression (credit over-shedding): credits bound the server's
/// *unconsumed RX backlog*, not the end-to-end count of requests awaiting
/// a committed response. A steady closed-loop load held at half the ring
/// capacity must therefore produce zero sheds — under the old ledger
/// (replenish only when a response is drained) every round's second batch
/// was refused with `Busy` while the server sat idle with headroom.
#[test]
fn steady_closed_loop_at_half_capacity_never_sheds() {
    use treesls_bench::ringsetup::deploy_kv_cfg;
    use treesls_kernel::cores::run_slice;

    let sys = System::boot(config(None)); // manual checkpoints + stepping
    let geom = ShardGeometry { nslots: 32, slot_size: 84, data_stride: 16 * 4096 };
    let mut cfg = nic_config(1, true, &geom);
    // Admission budget = capacity/4; the closed-loop window below holds
    // 2 budgets (= capacity/2) awaiting one commit.
    cfg.credits = 8;
    let dep = deploy_kv_cfg(&sys, 16, 40, cfg, geom);
    let nic = &dep.nic;
    let srv = dep.server_threads[0];
    let drive = |steps: usize| run_slice(sys.kernel(), srv, steps, sys.manager().stw());

    // Let the server format its shard and park.
    drive(4);
    sys.checkpoint_now().unwrap();
    nic.pump();

    let sheds_before = sys.kernel().metrics.snapshot().net_sheds;
    let mut awaiting: Vec<u64> = Vec::new();
    for round in 0..6 {
        // Two credit-sized batches per round: the server consumes the
        // first batch's backlog before the second is admitted, so the
        // resynced ledger must let both through — 16 requests (half the
        // 32-slot ring) outstanding against a single commit.
        for batch in 0..2 {
            for i in 0..8 {
                let key = make_key(format!("k-{round}-{batch}-{i}").as_bytes());
                let op = KvOp::Set { key, value: b"v".to_vec() };
                let seq = nic
                    .send_request(0, &op.encode())
                    .expect("closed-loop load at half capacity was shed");
                awaiting.push(seq);
            }
            nic.flush_wire();
            drive(16);
            nic.pump();
        }
        // One commit releases the whole round's replies.
        sys.checkpoint_now().unwrap();
        nic.pump();
        awaiting.retain(|&s| nic.try_take(s).is_none());
        assert!(awaiting.is_empty(), "round {round}: replies missing for {awaiting:?}");
    }
    let sheds_after = sys.kernel().metrics.snapshot().net_sheds;
    assert_eq!(sheds_after - sheds_before, 0, "steady half-capacity load was shed");
}

/// Regression (ROADMAP 2(c), first lead): the restore callback used to
/// reset the RX cursor sample to 0, so the first checkpoint after a
/// restore moved the ring's `ACK` header back to 0 and a ring that had
/// been filled past half capacity read as full for a round. The sample is
/// now seeded with the restored cursor.
#[test]
fn first_checkpoint_after_restore_keeps_rx_ack() {
    use treesls_bench::ringsetup::deploy_kv_cfg;
    use treesls_kernel::cores::run_slice;

    let sys = System::boot(config(None)); // manual checkpoints + stepping
    let geom = ShardGeometry { nslots: 32, slot_size: 84, data_stride: 16 * 4096 };
    let dep = deploy_kv_cfg(&sys, 16, 40, nic_config(1, true, &geom), geom);
    let nic = &dep.nic;
    let srv = dep.server_threads[0];
    let drive = |steps: usize| run_slice(sys.kernel(), srv, steps, sys.manager().stw());
    drive(4);
    sys.checkpoint_now().unwrap();
    nic.pump();

    // Fill the RX ring past half capacity and let the server consume it.
    let filled = geom.nslots * 3 / 4;
    for batch in 0..filled / 8 {
        for i in 0..8 {
            let key = make_key(format!("k-{batch}-{i}").as_bytes());
            let op = KvOp::Set { key, value: b"v".to_vec() };
            nic.send_request(0, &op.encode()).expect("pre-crash request admitted");
        }
        nic.flush_wire();
        drive(16);
    }
    assert_eq!(nic.queue_stats(0).rx_cursor, filled, "server consumed every request");
    // The first commit samples the advanced cursor, the second publishes
    // it as the RX `ACK`.
    for _ in 0..2 {
        sys.checkpoint_now().unwrap();
        nic.pump();
    }
    let ack_before = nic.queue_stats(0).rx_ack;
    assert_eq!(ack_before, filled, "RX slots released before the crash");

    let (sys2, nic2) = crash_and_reattach(sys, config(None), &geom);
    sys2.checkpoint_now().unwrap();

    let ack_after = nic2.queue_stats(0).rx_ack;
    assert!(ack_after >= ack_before, "RX ACK moved backwards: {ack_before} -> {ack_after}");
    // The ring has room for half a ring of fresh requests.
    for i in 0..geom.nslots / 2 {
        let key = make_key(format!("post-{i}").as_bytes());
        let op = KvOp::Set { key, value: b"v".to_vec() };
        nic2.send_request(0, &op.encode()).expect("post-restore request refused: ring full");
    }
}

#[test]
fn ext_sync_off_releases_immediately() {
    let mut sys = System::boot(config(None)); // no checkpoints at all
    let dep = deploy_kv(&sys, 1, 1024, 128, false, ShardGeometry::default());
    sys.start();
    let nic = &dep.nic;
    let op = KvOp::Set { key: make_key(b"fast"), value: b"now".to_vec() };
    let r = nic.call(0, &op.encode(), Duration::from_secs(5)).unwrap();
    assert!(r.reply().is_some(), "without ext-sync responses flow without checkpoints");
    sys.stop();
}
