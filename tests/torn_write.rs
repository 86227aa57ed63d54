//! Torn-write and media-fault model tests.
//!
//! The clean-crash enumeration (`crash_schedule.rs`) pulls the plug
//! *between* NVM writes. This binary covers the harder failure model of
//! §8 "Data Reliability":
//!
//! * **torn writes** — the fuse fires *mid-write*, leaving an arbitrary
//!   64-byte cache-line prefix of the store applied
//!   (`CrashPoint::TornWrite`), optionally under the ADR persistence
//!   model where a seed-chosen subset of the unfenced reorder window is
//!   also lost;
//! * **media faults** — bit rot and poisoned frames injected directly
//!   into the media, detected by the per-page CRCs, the checksummed
//!   commit records, and the `scrub()` pass.
//!
//! The deterministic tests below corrupt the commit record and backup
//! page images at every cache-line (and byte) offset and assert the
//! degraded-recovery contract: fall back to generation N-1 on a torn
//! commit, fall back to the previous page image on a torn page, and
//! quarantine (never serve) a page with no valid image at all.

mod common;

use std::sync::Arc;

use common::{
    find_process, read_heap, step, stride, AbortedWindowScenario, DirtyPages, HybridScenario,
    KvRingScenario, Snapshots, HYBRID_HEAP, HYBRID_PAGES,
};
use treesls::{
    enumerate_torn_crashes, run_with_crash_schedule, run_with_crash_schedule_ex, CrashImage,
    CrashScenario, FaultEnv, ObjId, ProcessSpec, System, SystemConfig, ThreadSpec,
};
use treesls_kernel::kernel::global_meta;
use treesls_kernel::oroot::BackupObject;
use treesls_nvm::{CrashPoint, FrameId, PersistMode, PAGE_SIZE};

// ---------------------------------------------------------------------------
// Torn-write enumeration of the PR-1 scenarios (acceptance gate): every
// write index of the workload, every 64 B tear class of that write.
// ---------------------------------------------------------------------------

#[test]
fn kv_ring_survives_torn_crash_at_every_write_and_cut() {
    let report =
        enumerate_torn_crashes(&KvRingScenario::new(9), stride(), PersistMode::Eadr, &[0]);
    eprintln!(
        "kv torn: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.writes > 0, "workload performed no NVM writes");
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn hybrid_round_survives_torn_crash_at_every_write_and_cut() {
    let report = enumerate_torn_crashes(&HybridScenario, stride(), PersistMode::Eadr, &[0]);
    eprintln!(
        "hybrid torn: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn kv_ring_survives_adr_reorder_window_drops() {
    // Under ADR every unfenced line can be lost at the crash. Three seeds
    // per (write, cut): drop everything (the adversarial worst case) and
    // two hash-chosen subsets.
    let report = enumerate_torn_crashes(
        &KvRingScenario::new(2),
        stride(),
        PersistMode::Adr { reorder_window: 64 },
        &[u64::MAX, 0x9E37_79B9_7F4A_7C15, 0x0123_4567_89AB_CDEF],
    );
    eprintln!(
        "kv adr: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn hybrid_round_survives_adr_reorder_window_drops() {
    let report = enumerate_torn_crashes(
        &HybridScenario,
        stride().max(3),
        PersistMode::Adr { reorder_window: 64 },
        &[u64::MAX],
    );
    eprintln!(
        "hybrid adr: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn aborted_window_fold_survives_torn_crash_at_every_write_and_cut() {
    let report = enumerate_torn_crashes(&AbortedWindowScenario, stride(), PersistMode::Eadr, &[0]);
    eprintln!(
        "aborted window torn: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn aborted_window_fold_survives_adr_reorder_window_drops() {
    // Drop every unfenced line at the cut: a fold that killed a log
    // before its materialized image was fenced loses both.
    let report = enumerate_torn_crashes(
        &AbortedWindowScenario,
        stride(),
        PersistMode::Adr { reorder_window: 64 },
        &[u64::MAX],
    );
    eprintln!(
        "aborted window adr: {} writes, {} runs ({} crashed)",
        report.writes, report.runs, report.injected
    );
    assert!(report.injected > 0, "no torn crash ever fired");
    report.assert_clean();
}

#[test]
fn torn_cut_zero_is_the_clean_pre_write_crash() {
    // `TornWrite { skip, cut: 0 }` (nothing of write `skip` applied) must
    // behave exactly like the clean-crash `AnyWrite(skip)` under eADR —
    // the torn model is a strict refinement of the PR-1 model.
    let scenario = KvRingScenario::new(2);
    let (writes, _) = treesls::crashtest::measure(&scenario);
    let idx = writes / 2;
    let a = run_with_crash_schedule(&scenario, Some(CrashPoint::AnyWrite(idx)))
        .expect("clean-crash run");
    let b = run_with_crash_schedule_ex(
        &scenario,
        Some(CrashPoint::TornWrite { skip: idx, cut: 0 }),
        FaultEnv::eadr(),
    )
    .expect("torn cut-0 run");
    assert_eq!(a.crashed, b.crashed);
    assert_eq!(a.report.version, b.report.version);
    assert_eq!(a.report.objects, b.report.objects);
    assert_eq!(a.report.pages, b.report.pages);
}

// ---------------------------------------------------------------------------
// Deterministic commit-record corruption: fall back one generation.
// ---------------------------------------------------------------------------

const TORN_PAGES: u64 = 2;
const TORN_HEAP: u64 = 2;

fn torn_config() -> SystemConfig {
    let mut c = SystemConfig::small();
    c.checkpoint_interval = None;
    c
}

fn register_torn(reg: &treesls::ProgramRegistry) {
    reg.register("torn-dirty", Arc::new(DirtyPages { pages: TORN_PAGES }));
}

/// Boots a single dirty-page writer and commits `commits` checkpoints,
/// stepping the writer between commits so every generation has distinct
/// heap content. Returns the per-version snapshots for the heap oracle.
fn boot_committed(commits: usize) -> (System, Snapshots, ObjId, ObjId) {
    let sys = System::boot(torn_config());
    register_torn(sys.programs());
    let p = sys
        .spawn(&ProcessSpec::new("torn").heap(TORN_HEAP).thread(ThreadSpec::new("torn-dirty")))
        .expect("spawn");
    let mut snaps = Snapshots::default();
    for _ in 0..commits {
        step(&sys, p.threads[0], TORN_PAGES as usize);
        snaps.checkpoint(&sys, p.vmspace, TORN_HEAP);
    }
    (sys, snaps, p.vmspace, p.threads[0])
}

#[test]
fn torn_commit_record_falls_back_one_generation_at_every_byte() {
    // Corrupt the newest commit-record slot at every byte offset. Bytes
    // 0..28 are covered by the CRC (payload + the CRC itself): any flip
    // there invalidates the record and recovery must fall back to the
    // previous generation. Bytes 28..32 are padding outside the record:
    // flips there must be ignored entirely.
    for byte in 0..global_meta::COMMIT_SLOT_LEN {
        let (sys, snaps, _, _) = boot_committed(3);
        let global = sys.kernel().pers.global_version();
        assert_eq!(global, 3);
        let image = sys.crash();
        image.dev.flip_meta_bit(global_meta::slot_off(global) + byte, (byte % 8) as u8);
        let (sys2, report) =
            System::recover(image, torn_config(), register_torn).expect("degraded recovery");
        let covered = byte < global_meta::REC_CRC + 4;
        if covered {
            assert_eq!(report.version, global - 1, "byte {byte}: must fall back to N-1");
            assert!(report.recovery.commit.fell_back, "byte {byte}: fallback not reported");
            assert_eq!(report.recovery.commit.invalid_slots, 1, "byte {byte}");
            assert!(!report.recovery.is_clean(), "byte {byte}: degraded recovery not flagged");
        } else {
            assert_eq!(report.version, global, "pad byte {byte} must not invalidate the record");
            assert!(!report.recovery.commit.fell_back, "pad byte {byte}");
        }
        // Byte-exact heap oracle against the generation actually restored.
        let (vmspace, _, _) = find_process(&sys2, "torn");
        let expected = snaps.expect_at(report.version).expect("snapshot for restored version");
        assert_eq!(
            &read_heap(&sys2, vmspace, TORN_HEAP),
            expected,
            "byte {byte}: restored heap diverges from v{} commit",
            report.version
        );
    }
}

#[test]
fn both_commit_slots_corrupt_is_unrecoverable_not_silent() {
    let (sys, _, _, _) = boot_committed(3);
    let image = sys.crash();
    image.dev.flip_meta_bit(global_meta::COMMIT_SLOT0_OFF + global_meta::REC_VERSION, 0);
    image.dev.flip_meta_bit(global_meta::COMMIT_SLOT1_OFF + global_meta::REC_VERSION, 0);
    // With both generations' anchors gone there is nothing sound to
    // restore: recovery must refuse, not serve garbage.
    assert!(System::recover(image, torn_config(), register_torn).is_err());
}

#[test]
fn scrub_counts_invalid_commit_slots() {
    let (sys, _, _, _) = boot_committed(2);
    assert_eq!(sys.manager().scrub().invalid_commit_slots, 0);
    let global = sys.kernel().pers.global_version();
    sys.kernel().pers.dev.flip_meta_bit(global_meta::slot_off(global), 5);
    let report = sys.manager().scrub();
    assert_eq!(report.invalid_commit_slots, 1);
    assert!(!report.is_clean());
}

// ---------------------------------------------------------------------------
// Deterministic backup-page corruption: per-page generation fallback and
// quarantine.
// ---------------------------------------------------------------------------

/// Runs the hybrid workload up to (and including) the stop-and-copy
/// commit, so the hybrid data pages hold **two** checksummed generations:
/// the migrate-in tag on the NVM home frame (version N-1) and the
/// speculative-copy tag on the spare frame (version N).
fn boot_hybrid_two_generations() -> (System, Snapshots, ObjId, u64) {
    let scenario = HybridScenario;
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    for _ in 0..2 {
        step(&sys, st.writer, HYBRID_PAGES as usize);
        st.snapshots.checkpoint(&sys, st.vmspace, HYBRID_HEAP);
    }
    step(&sys, st.writer, HYBRID_PAGES as usize);
    st.snapshots.checkpoint(&sys, st.vmspace, HYBRID_HEAP);
    let global = sys.kernel().pers.global_version();
    (sys, st.snapshots, st.vmspace, global)
}

/// A backup page slot holding two committed checksummed images.
struct TwoGenPage {
    index: u64,
    /// `(frame, version)` of the image `restore_pick` selects.
    picked: (FrameId, u64),
    /// `(frame, version)` of the older fallback image.
    older: (FrameId, u64),
}

/// Finds every page in the crash image whose pair entries are **both**
/// committed and checksummed (no untagged runtime image to fall back to).
fn two_generation_pages(image: &CrashImage, global: u64) -> Vec<TwoGenPage> {
    let mut found = Vec::new();
    image.backups.for_each(|_, record| {
        let BackupObject::Pmo { pages, .. } = record else { return };
        pages.for_each(|idx, e| {
            if !e.live_at(global) {
                return;
            }
            let meta = e.slot.meta.lock();
            let tagged: Vec<_> = meta
                .pairs
                .iter()
                .flatten()
                .filter(|p| p.crc.is_some() && p.version > 0 && p.version <= global)
                .map(|p| (p.frame, p.version))
                .collect();
            if tagged.len() == 2 {
                let (hi, lo) = if tagged[0].1 >= tagged[1].1 {
                    (tagged[0], tagged[1])
                } else {
                    (tagged[1], tagged[0])
                };
                found.push(TwoGenPage { index: idx, picked: hi, older: lo });
            }
        });
    });
    found.sort_by_key(|p| p.index);
    found
}

#[test]
fn corrupt_backup_page_falls_back_to_previous_generation() {
    // Flip one bit in the newest image of a two-generation page: restore
    // must serve the *older* checksummed image for that page (and the
    // newest for every other page), reporting the per-page fallback.
    let (sys, snaps, _, global) = boot_hybrid_two_generations();
    let image = sys.crash();
    let pages = two_generation_pages(&image, global);
    assert!(!pages.is_empty(), "hybrid workload produced no two-generation page");
    let victim = &pages[0];
    assert_eq!(victim.picked.1, global, "newest image must carry the committed version");
    image.dev.flip_frame_bit(victim.picked.0, 17, 3);
    let scenario = HybridScenario;
    let (sys2, report) =
        System::recover(image, scenario.config(), |r| scenario.programs(r))
            .expect("degraded recovery");
    assert_eq!(report.version, global);
    assert_eq!(report.recovery.pages_fell_back, 1);
    assert!(report.recovery.quarantined.is_empty());
    assert!(!report.recovery.is_clean());
    // Heap oracle: the victim page reads as its older generation, every
    // other byte as the restored generation.
    let (vmspace, _, _) = find_process(&sys2, "hybrid");
    let heap = read_heap(&sys2, vmspace, HYBRID_HEAP);
    let mut expected = snaps.expect_at(global).expect("newest snapshot").clone();
    let older = snaps.expect_at(victim.older.1).expect("older snapshot");
    let lo = (victim.index * PAGE_SIZE as u64) as usize;
    let hi = lo + PAGE_SIZE;
    expected[lo..hi].copy_from_slice(&older[lo..hi]);
    assert_eq!(heap, expected, "fallback page must serve the older committed image");
}

#[test]
fn backup_page_with_no_valid_image_is_quarantined_at_every_line() {
    // Corrupt *both* generations of a page, one cache line at a time:
    // with no candidate image passing its checksum the page must be
    // quarantined — dropped from the revived PMO, never served — and the
    // rest of the system must still recover.
    for line in 0..(PAGE_SIZE / 64) {
        let (sys, _, _, global) = boot_hybrid_two_generations();
        let image = sys.crash();
        let pages = two_generation_pages(&image, global);
        assert!(!pages.is_empty(), "line {line}: no two-generation page");
        let victim = &pages[0];
        image.dev.flip_frame_bit(victim.picked.0, line * 64, 1);
        image.dev.flip_frame_bit(victim.older.0, line * 64, 1);
        let scenario = HybridScenario;
        let (sys2, report) =
            System::recover(image, scenario.config(), |r| scenario.programs(r))
                .expect("degraded recovery");
        assert_eq!(report.version, global, "line {line}");
        assert_eq!(report.recovery.quarantined.len(), 1, "line {line}");
        assert_eq!(report.recovery.quarantined[0].index, victim.index, "line {line}");
        assert_eq!(report.recovery.pages_fell_back, 0, "line {line}");
        assert!(!report.recovery.is_clean(), "line {line}");
        // The surviving state is still internally consistent.
        sys2.manager().verify_checkpoint().expect("post-quarantine verify");
    }
}

// ---------------------------------------------------------------------------
// Scrub: detects silent media corruption before recovery depends on it.
// ---------------------------------------------------------------------------

/// Every committed checksummed image `(frame, version)` in the running
/// system's backup tree.
fn committed_tagged_images(sys: &System) -> Vec<(FrameId, u64)> {
    let global = sys.kernel().pers.global_version();
    let mut found = Vec::new();
    sys.kernel().pers.backups.for_each(|_, record| {
        let BackupObject::Pmo { pages, .. } = record else { return };
        pages.for_each(|_, e| {
            let meta = e.slot.meta.lock();
            for p in meta.pairs.iter().flatten() {
                if p.crc.is_some() && p.version > 0 && p.version <= global {
                    found.push((p.frame, p.version));
                }
            }
        });
    });
    found
}

#[test]
fn scrub_detects_poisoned_frame() {
    let (sys, _, _, _) = boot_committed(2);
    assert!(sys.manager().scrub().is_clean());
    let images = committed_tagged_images(&sys);
    assert!(!images.is_empty(), "no checksummed committed image to poison");
    let (frame, version) = images[0];
    sys.kernel().pers.dev.poison_frame(frame);
    let report = sys.manager().scrub();
    assert!(report.corrupt_pages.contains(&(frame, version)), "poison not detected");
    assert!(!report.is_clean());
}

mod scrub_prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `scrub()` detects **every** single-bit flip on a committed
        /// checksummed image, at any byte and bit position, and reports
        /// exactly that frame; undoing the flip makes the pass clean
        /// again.
        #[test]
        fn scrub_detects_every_single_bit_flip(
            pick in 0usize..1 << 16,
            byte in 0usize..treesls_nvm::PAGE_SIZE,
            bit in 0u8..8,
        ) {
            let (sys, _, _, _) = boot_committed(2);
            let baseline = sys.manager().scrub();
            prop_assert!(baseline.is_clean());
            prop_assert!(baseline.pages_scanned > 0);
            let images = committed_tagged_images(&sys);
            prop_assert!(!images.is_empty());
            let (frame, version) = images[pick % images.len()];
            sys.kernel().pers.dev.flip_frame_bit(frame, byte, bit);
            let report = sys.manager().scrub();
            prop_assert!(
                report.corrupt_pages.contains(&(frame, version)),
                "flip at frame {frame:?} byte {byte} bit {bit} went undetected",
            );
            sys.kernel().pers.dev.flip_frame_bit(frame, byte, bit);
            prop_assert!(sys.manager().scrub().is_clean());
        }
    }
}
