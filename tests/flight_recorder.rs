//! Crash-schedule enumeration over the NVM flight recorder.
//!
//! The recorder's crash-survival argument (OBSERVABILITY.md) is that an
//! append is one 64-byte, cache-line-aligned metadata store: it is either
//! fully present or fully absent after a crash, and recovery's CRC +
//! sequence-contiguity scan keeps exactly the surviving tail. This test
//! proves it mechanically: a workload interleaves `Marker` events (with
//! self-describing payloads) with checkpoints, the plug is pulled at
//! every NVM write index (and every torn-write cut class), and the
//! recovered [`RecoveryReport::flight_events`] must contain
//!
//! * a strictly consecutive run of sequence numbers (no holes, no
//!   mis-parse of a torn slot as a valid event), and
//! * **exactly** the markers whose `record()` call returned before the
//!   cut, each with its payload intact (under eADR, where every applied
//!   store is durable).
//!
//! Under ADR with an adversarial reorder window the count guarantee
//! weakens to "a contiguous, intact range" — unfenced slot lines may be
//! lost — but corruption and mis-parsing remain impossible.

mod common;

use common::{stride, KvRingScenario};

use treesls::{
    enumerate_crashes, enumerate_torn_crashes, CrashScenario, EventKind, KernelConfig,
    ProgramRegistry, RestoreReport, RoundCommit, System, SystemConfig,
};
use treesls_apps::wire::{make_key, KvOp};
use treesls_nvm::PersistMode;

/// Number of marker events the workload records.
const MARKERS: u64 = 12;
/// A checkpoint is taken after every `CKPT_EVERY` markers, so cuts land
/// inside checkpoint instrumentation (EpochFlip/RoundCommit slots) too.
const CKPT_EVERY: u64 = 4;

fn marker_payload(i: u64) -> [u64; 6] {
    [i, i * 7 + 1, i ^ 0xDEAD_BEEF, 0, 0, 0]
}

struct RecorderScenario {
    /// With `strict`, every marker issued before the cut must be
    /// recovered (eADR: applied ⇒ durable). Without it (ADR reorder
    /// window), recovered markers need only be a contiguous intact range.
    strict: bool,
}

struct RecorderState {
    /// Markers whose `record()` call returned before the crash.
    issued: u64,
}

impl CrashScenario for RecorderScenario {
    type State = RecorderState;

    fn config(&self) -> SystemConfig {
        SystemConfig {
            kernel: KernelConfig { nvm_frames: 2048, dram_pages: 64, ..KernelConfig::default() },
            cores: 1,
            quantum: 16,
            checkpoint_interval: None,
        }
    }

    fn setup(&self, sys: &mut System) -> RecorderState {
        sys.checkpoint_now().expect("initial checkpoint");
        RecorderState { issued: 0 }
    }

    fn workload(&self, sys: &mut System, st: &mut RecorderState) {
        for i in 0..MARKERS {
            sys.kernel().pers.recorder().record(EventKind::Marker, marker_payload(i));
            st.issued = i + 1;
            if (i + 1) % CKPT_EVERY == 0 {
                sys.checkpoint_now().expect("checkpoint");
            }
        }
    }

    fn programs(&self, _reg: &ProgramRegistry) {}

    fn verify(
        &self,
        _sys: &mut System,
        st: &mut RecorderState,
        report: &RestoreReport,
    ) -> Result<(), String> {
        let events = &report.recovery.flight_events;
        for w in events.windows(2) {
            if w[1].seq != w[0].seq + 1 {
                return Err(format!(
                    "recovered tail has a sequence hole: {} then {}",
                    w[0].seq, w[1].seq
                ));
            }
        }
        let markers: Vec<_> = events
            .iter()
            .filter(|e| e.event_kind() == Some(EventKind::Marker))
            .collect();
        // Markers must be a contiguous range i..j of the issued indices,
        // each payload intact — a torn or corrupt slot can only truncate
        // the tail, never decode to a wrong event.
        let first = markers.first().map_or(0, |e| e.payload[0]);
        for (k, e) in markers.iter().enumerate() {
            let expect = first + k as u64;
            if e.payload != marker_payload(expect) {
                return Err(format!(
                    "marker {expect} corrupt or out of order: payload {:?}",
                    e.payload
                ));
            }
        }
        let last = first + markers.len() as u64;
        if last > st.issued {
            return Err(format!(
                "recovered marker {} but only {} were issued before the cut",
                last - 1,
                st.issued
            ));
        }
        if self.strict && (first != 0 || last != st.issued) {
            return Err(format!(
                "issued {} markers before the cut, recovered range {first}..{last}",
                st.issued
            ));
        }
        Ok(())
    }
}

#[test]
fn recorder_workload_actually_records_and_wraps_checkpoints() {
    // Guard against vacuity: the clean run must leave marker and
    // checkpoint events decodable in the live tail.
    let scenario = RecorderScenario { strict: true };
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    scenario.workload(&mut sys, &mut st);
    let tail = sys.kernel().pers.recorder().tail();
    let markers = tail.iter().filter(|e| e.event_kind() == Some(EventKind::Marker)).count();
    let commits = tail.iter().filter(|e| e.event_kind() == Some(EventKind::RoundCommit)).count();
    assert_eq!(markers as u64, MARKERS);
    assert!(commits as u64 >= MARKERS / CKPT_EVERY, "checkpoint events missing: {commits}");
}

#[test]
fn every_pre_cut_event_survives_crash_at_every_write() {
    let report = enumerate_crashes(&RecorderScenario { strict: true }, stride());
    eprintln!(
        "recorder: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.writes > 0, "workload performed no NVM writes");
    assert!(report.injected > 0, "no crash ever fired");
    report.assert_clean();
}

#[test]
fn torn_tail_slots_are_dropped_never_misparsed() {
    // Every write index × every 64 B cut class: a cut inside a slot
    // append leaves nothing of the slot (cut 0 is its only tear class —
    // the append is one aligned cache line), and cuts inside *other*
    // structures must never make the recorder misattribute their bytes.
    let report = enumerate_torn_crashes(
        &RecorderScenario { strict: true },
        stride(),
        PersistMode::Eadr,
        &[0],
    );
    eprintln!(
        "recorder torn: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn adr_reorder_drops_only_truncate_the_tail() {
    // Unfenced slot lines may vanish under ADR; the tail walk must stop
    // at the hole rather than resurrect or corrupt anything.
    let report = enumerate_torn_crashes(
        &RecorderScenario { strict: false },
        stride().max(3),
        PersistMode::Adr { reorder_window: 64 },
        &[u64::MAX, 0x9E37_79B9_7F4A_7C15],
    );
    eprintln!(
        "recorder adr: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn media_fault_in_ring_truncates_forensics_but_not_recovery() {
    // Flip one bit in a mid-tail slot *after* the power failure: the
    // events before the bad slot are dropped (the tail-contiguity rule),
    // the events after it survive, and system recovery itself is
    // untouched — a corrupt forensic log must never fail a restore.
    let scenario = RecorderScenario { strict: true };
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    scenario.workload(&mut sys, &mut st);
    let recorder = sys.kernel().pers.recorder();
    let next = recorder.next_seq();
    assert!(next > 4, "need a few events to corrupt one mid-tail");
    let victim_seq = next - 3;
    let slot_off = recorder.region_off()
        + ((victim_seq - 1) as usize % recorder.slots()) * treesls::SLOT_LEN;
    let image = sys.crash();
    image.dev.flip_meta_bit(slot_off + 20, 3); // payload byte, CRC-covered
    let (_sys2, report) =
        System::recover(image, scenario.config(), |_| {}).expect("recovery unaffected");
    let events = &report.recovery.flight_events;
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(
        seqs,
        vec![victim_seq + 1, victim_seq + 2],
        "tail must restart after the corrupt slot"
    );
    assert!(
        events.iter().all(|e| e.seq != victim_seq),
        "the corrupt slot must not decode"
    );
}

#[test]
fn an_epoch_flip_round_appends_three_slots() {
    // A lockstep NIC machine under the default epoch flip: one SET per
    // round to one key makes its page hot, then DRAM-migrated, then
    // stop-and-copied by every round's hybrid batch.
    let scenario = KvRingScenario::new(0);
    let mut sys = System::boot(scenario.config());
    let st = scenario.setup(&mut sys);
    let set = KvOp::Set { key: make_key(b"hot"), value: b"value".to_vec() }.encode();
    let round = |sys: &System| {
        let seq = st.nic.send_request(0, &set).expect("rx push");
        st.drive(sys, 8);
        sys.checkpoint_now().expect("checkpoint");
        st.nic.pump();
        assert!(st.nic.try_take(seq).is_some(), "SET acked at its commit");
    };
    for _ in 0..8 {
        round(&sys);
    }
    assert!(sys.metrics_snapshot().hybrid_migrated_in > 0, "the hot page migrated");

    let recorder = sys.kernel().pers.recorder();
    let (seq0, m0) = (recorder.next_seq(), sys.metrics_snapshot());
    round(&sys);
    let m = sys.metrics_snapshot().since(&m0);
    let added: Vec<_> = recorder.tail().into_iter().filter(|e| e.seq >= seq0).collect();
    let kinds: Vec<_> = added.iter().map(|e| e.event_kind()).collect();
    assert_eq!(
        kinds,
        [Some(EventKind::EpochFlip), Some(EventKind::RoundCommit), Some(EventKind::NetBarrier)],
        "one round, three slots: {added:?}"
    );

    let batch = sys.kernel().tracker.active_len() as u64;
    assert_eq!(added[0].payload[5], batch, "the flip slot carries the batch length");
    let commit = RoundCommit::decode(&added[1].payload);
    assert_eq!(commit.version, added[0].payload[0]);
    assert!(commit.sac_copies >= 1, "the hot page was stop-and-copied");
    assert_eq!(commit.sac_copies, m.hybrid_sac_copies);
    assert_eq!(commit.full_walk, m.tree_full_walks == 1);
    assert_eq!(commit.dirty_drained, m.tree_dirty_drained);
    assert_eq!(commit.records_copied, m.tree_copied);
    assert_eq!(commit.tombstoned, m.tree_tombstoned);
    assert!(commit.records_copied > 0, "the SET rewrote the data PMO's record");
}
