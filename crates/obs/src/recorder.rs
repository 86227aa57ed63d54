//! Persistent flight recorder: a CRC-tagged event ring on NVM.
//!
//! The recorder occupies a dedicated region of the device's metadata arena
//! (carved out by `AllocLayout` in `treesls-pmem-alloc` and formatted /
//! recovered by the kernel's `Persistent` facade). It is an append-only
//! ring of fixed 64-byte slots — one cache line each — with **no persisted
//! head pointer**: recovery reconstructs the live tail purely by scanning
//! slot CRCs and sequence numbers, so there is no pointer word whose torn
//! update could orphan or mis-order the log.
//!
//! # Slot encoding (64 bytes, little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  seq      monotonically increasing, 1-based; 0 = never written
//!      8     2  kind     event discriminant (see [`EventKind`])
//!     10     2  reserved must be zero
//!     12     4  crc      CRC-32 over bytes [0,12) ++ [16,64)
//!     16    48  payload  six u64 words, meaning depends on `kind`
//! ```
//!
//! # Crash-survival argument
//!
//! An append is a single 64-byte `MetaArena::write_bytes` at a 64-byte
//! aligned offset, i.e. exactly one cache line. Under the device's
//! persistence models a store either applies in full, applies as a prefix
//! torn at a cache-line boundary (impossible here — there is no interior
//! boundary), or is dropped from the ADR reorder window. A partially
//! persisted or bit-flipped slot fails its CRC and is discarded; a dropped
//! or never-written slot holds stale bytes whose embedded `seq` no longer
//! chains to the maximum, so [`FlightRecorder::recover`] truncates the tail
//! there. In every case recovery yields a *contiguous* run of intact
//! events ending at the highest surviving sequence number — a torn tail
//! event is detected and dropped, never mis-parsed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use treesls_nvm::{crc32, NvmDevice};

/// Size of one flight-recorder slot in bytes (one cache line).
///
/// `AllocLayout` in `treesls-pmem-alloc` sizes the recorder region as
/// `slots * SLOT_LEN` and aligns it to `SLOT_LEN` so every slot write is a
/// single-cache-line store (the atomic-or-absent property above).
pub const SLOT_LEN: usize = 64;

/// Offset of the CRC word within a slot.
const CRC_OFF: usize = 12;
/// Offset of the payload within a slot.
const PAYLOAD_OFF: usize = 16;

/// Typed discriminants for flight-recorder events.
///
/// The on-NVM encoding is the raw `u16` value; unknown values decode to a
/// raw [`FlightEvent`] whose [`event_kind`](FlightEvent::event_kind) is
/// `None`, so adding kinds never breaks recovery of old logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A checkpoint round is starting (recorded just before stop-the-world).
    /// Payload: `[version_being_taken, active_page_list_len, 0, 0, 0, 0]`.
    CkptBegin = 1,
    /// A checkpoint round committed. Payload: `[version, ipi_ns,
    /// cap_tree_ns, others_ns, hybrid_busy_ns, total_pause_ns]`.
    CkptCommit = 2,
    /// A copy-on-write page fault copied a backup page. Payload:
    /// `[backup_frame, version_tag, runtime_frame, 0, 0, 0]`.
    CowFault = 3,
    /// Hybrid copy migrated a hot page into DRAM. Payload:
    /// `[home_frame, inflight_version, dram_id, 0, 0, 0]`.
    HybridMigrateIn = 4,
    /// Hybrid copy performed a stop-and-copy page copy on NVM. Payload:
    /// `[backup_frame, inflight_version, dram_id, 0, 0, 0]`.
    HybridSacCopy = 5,
    /// Hybrid copy evicted an idle page from DRAM back to NVM. Payload:
    /// `[nvm_frame, inflight_version, 0, 0, 0, 0]`.
    HybridEvict = 6,
    /// A whole-system restore completed. Payload: `[restored_version,
    /// objects_restored, pages_restored, pages_fell_back, 0, 0]`.
    Restore = 7,
    /// Restore quarantined an unrecoverable backup page. Payload:
    /// `[oroot, page_index, frame, 0, 0, 0]`.
    Quarantine = 8,
    /// Allocator-journal records were truncated during recovery. Payload:
    /// `[records_truncated, 0, 0, 0, 0, 0]`.
    JournalTruncate = 9,
    /// External synchrony published buffered ring entries at a checkpoint.
    /// Payload: `[version, writer, visible_writer, ack, 0, 0]`.
    RingPublish = 10,
    /// Free-form marker recorded by tests and tools. Payload is opaque.
    Marker = 11,
    /// One capability-tree walk finished inside the pause. Payload:
    /// `[inflight_version, full_walk(0|1), dirty_drained, records_copied,
    /// records_offloaded, oroots_tombstoned]`.
    TreeWalk = 12,
    /// A virtual NIC released all of its queues' buffered responses under
    /// one commit (the cross-queue visibility barrier). Payload:
    /// `[version, queues, released_msgs, visible_lag_max, visible_lag_sum,
    /// tx_depth_sum]`.
    NetBarrier = 13,
    /// A virtual NIC re-armed its queue doorbells after a restore
    /// (requests survived in the eternal RX rings; the interrupt edges did
    /// not). Payload: `[restored_version, queues, rearmed, truncated_msgs,
    /// 0, 0]`.
    NetRearm = 14,
    /// A round resolved its stop set: every registered core under full
    /// quiesce, none under the epoch flip. (The name predates the
    /// deletion of parked partial quiescence; it is pinned by NVM
    /// images.) Payload: `[inflight_version, stopped_cores,
    /// registered_cores, stop_mask (0 or all cores), full_quiesce(0|1),
    /// epoch_conflicts_so_far]`.
    PartialQuiesce = 15,
    /// The replication shipper finished streaming a round to its peers.
    /// Payload: `[round, records, pages, bytes, snapshots, durable_peers]`.
    ReplShip = 16,
    /// A peer's ack advanced. Payload: `[epoch, acked_round, peer, 0, 0, 0]`.
    ReplAck = 17,
    /// The primary switched degraded mode (`entered` = 1 when the quorum
    /// was lost, 0 when it healed). Payload: `[epoch, round, entered(0|1),
    /// durable_peers, 0, 0]`.
    ReplDegraded = 18,
    /// A peer requested a full-snapshot resync after a delta gap or a
    /// quarantined frame. Payload: `[epoch, peer_applied_round, peer, 0, 0, 0]`.
    ReplResync = 19,
    /// An epoch-concurrent round flipped its epoch: the O(1) stop window
    /// ended and the drain/copy phase began with mutators live. Payload:
    /// `[inflight_version, fence_round, cut_depth, stop_mask (0),
    /// flip_pause_ns, 0]`.
    EpochFlip = 20,
    /// A first conflicting write of the round appended an in-line undo
    /// record instead of taking a whole-page capture. Payload:
    /// `[log_frame, inflight_version, offset, len, log_used_after, 0]`.
    InlineLog = 21,
    /// A multi-key transaction validated and published (its selector flip
    /// landed; durability follows at the covering checkpoint). Payload:
    /// `[commit_seq, txn_id, writes, reads, latency_ns, snapshot_seq]`.
    TxnCommit = 22,
}

impl EventKind {
    /// Decodes a raw on-NVM discriminant.
    pub fn from_u16(v: u16) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::CkptBegin,
            2 => EventKind::CkptCommit,
            3 => EventKind::CowFault,
            4 => EventKind::HybridMigrateIn,
            5 => EventKind::HybridSacCopy,
            6 => EventKind::HybridEvict,
            7 => EventKind::Restore,
            8 => EventKind::Quarantine,
            9 => EventKind::JournalTruncate,
            10 => EventKind::RingPublish,
            11 => EventKind::Marker,
            12 => EventKind::TreeWalk,
            13 => EventKind::NetBarrier,
            14 => EventKind::NetRearm,
            15 => EventKind::PartialQuiesce,
            16 => EventKind::ReplShip,
            17 => EventKind::ReplAck,
            18 => EventKind::ReplDegraded,
            19 => EventKind::ReplResync,
            20 => EventKind::EpochFlip,
            21 => EventKind::InlineLog,
            22 => EventKind::TxnCommit,
            _ => return None,
        })
    }

    /// Stable lower-case name, used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CkptBegin => "ckpt_begin",
            EventKind::CkptCommit => "ckpt_commit",
            EventKind::CowFault => "cow_fault",
            EventKind::HybridMigrateIn => "hybrid_migrate_in",
            EventKind::HybridSacCopy => "hybrid_sac_copy",
            EventKind::HybridEvict => "hybrid_evict",
            EventKind::Restore => "restore",
            EventKind::Quarantine => "quarantine",
            EventKind::JournalTruncate => "journal_truncate",
            EventKind::RingPublish => "ring_publish",
            EventKind::Marker => "marker",
            EventKind::TreeWalk => "tree_walk",
            EventKind::NetBarrier => "net_barrier",
            EventKind::NetRearm => "net_rearm",
            EventKind::PartialQuiesce => "partial_quiesce",
            EventKind::ReplShip => "repl_ship",
            EventKind::ReplAck => "repl_ack",
            EventKind::ReplDegraded => "repl_degraded",
            EventKind::ReplResync => "repl_resync",
            EventKind::EpochFlip => "epoch_flip",
            EventKind::InlineLog => "inline_log",
            EventKind::TxnCommit => "txn_commit",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number (1-based; never 0).
    pub seq: u64,
    /// Raw event discriminant as stored on NVM.
    pub kind: u16,
    /// Six payload words; interpretation depends on [`EventKind`].
    pub payload: [u64; 6],
}

impl FlightEvent {
    /// The typed kind, or `None` for a discriminant this build predates.
    pub fn event_kind(&self) -> Option<EventKind> {
        EventKind::from_u16(self.kind)
    }

    /// The kind's stable name, or `"unknown"`.
    pub fn kind_name(&self) -> &'static str {
        self.event_kind().map_or("unknown", EventKind::name)
    }
}

/// Append handle over the on-NVM event ring.
///
/// Cheap to share: appends use an atomic sequence counter and go through
/// the metadata arena's interior mutability, so `&self` suffices and the
/// recorder can live inside the kernel's `Persistent` facade behind an
/// `Arc`. Every slot store ticks the device's crash schedule exactly once,
/// which is what lets `enumerate_crashes` walk cut points *between*
/// individual recorder appends.
#[derive(Debug)]
pub struct FlightRecorder {
    dev: Arc<NvmDevice>,
    off: usize,
    slots: usize,
    next_seq: AtomicU64,
}

impl FlightRecorder {
    /// Bytes of metadata arena consumed by a ring of `slots` slots.
    pub fn region_len(slots: usize) -> usize {
        slots * SLOT_LEN
    }

    /// Formats a fresh (all-invalid) ring at `off` and returns its handle.
    ///
    /// Zeroed slots are unambiguously invalid: the CRC-32 of a zeroed slot
    /// body is non-zero, so a never-written slot can never decode as an
    /// event.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `off` is not `SLOT_LEN`-aligned (slot
    /// stores must be single cache lines; see the module docs).
    pub fn format(dev: &Arc<NvmDevice>, off: usize, slots: usize) -> Self {
        assert!(slots > 0, "flight recorder needs at least one slot");
        assert_eq!(off % SLOT_LEN, 0, "recorder region must be cache-line aligned");
        let meta = dev.meta();
        meta.zero(off, Self::region_len(slots));
        meta.flush(off, Self::region_len(slots));
        Self { dev: Arc::clone(dev), off, slots, next_seq: AtomicU64::new(1) }
    }

    /// Re-attaches to a ring after a crash or clean shutdown, returning the
    /// handle and the surviving tail of events in sequence order.
    ///
    /// The tail is the longest run of CRC-valid slots with consecutive
    /// sequence numbers ending at the maximum sequence found; anything
    /// older, torn, or bit-flipped is dropped. New appends continue after
    /// the maximum recovered sequence.
    pub fn recover(dev: &Arc<NvmDevice>, off: usize, slots: usize) -> (Self, Vec<FlightEvent>) {
        assert!(slots > 0, "flight recorder needs at least one slot");
        assert_eq!(off % SLOT_LEN, 0, "recorder region must be cache-line aligned");
        let meta = dev.meta();
        let mut valid: Vec<FlightEvent> = Vec::new();
        let mut buf = [0u8; SLOT_LEN];
        for i in 0..slots {
            meta.read_bytes(off + i * SLOT_LEN, &mut buf);
            if let Some(ev) = decode_slot(&buf) {
                valid.push(ev);
            }
        }
        let max_seq = valid.iter().map(|e| e.seq).max().unwrap_or(0);
        let mut tail: Vec<FlightEvent> = Vec::new();
        if max_seq > 0 {
            // Walk backwards from the maximum: the tail ends at the first
            // missing sequence number (a slot that was torn, dropped from
            // the ADR window, overwritten by a newer lap, or corrupted).
            let by_seq: std::collections::HashMap<u64, FlightEvent> =
                valid.into_iter().map(|e| (e.seq, e)).collect();
            let mut seq = max_seq;
            while seq > 0 && tail.len() < slots {
                match by_seq.get(&seq) {
                    Some(ev) => tail.push(*ev),
                    None => break,
                }
                seq -= 1;
            }
            tail.reverse();
        }
        let rec = Self {
            dev: Arc::clone(dev),
            off,
            slots,
            next_seq: AtomicU64::new(max_seq + 1),
        };
        (rec, tail)
    }

    /// Number of slots in the ring.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Byte offset of the ring within the metadata arena.
    ///
    /// The slot holding sequence `seq` lives at
    /// `region_off() + ((seq - 1) % slots()) * SLOT_LEN` — media-fault
    /// tests use this to corrupt a specific event's slot.
    pub fn region_off(&self) -> usize {
        self.off
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Appends one event, overwriting the oldest slot once the ring wraps.
    ///
    /// The append is a single 64-byte store through the metadata arena (one
    /// crash-schedule tick) followed by a flush of the slot's cache line.
    /// No fence is issued here: under eADR the store is durable on apply,
    /// and under ADR the line rides the next global fence (e.g. the
    /// checkpoint commit's persist barrier). Losing the last few
    /// pre-crash events under ADR is an accepted property of a forensic
    /// log — never its corruption, which the CRC rules out.
    pub fn record(&self, kind: EventKind, payload: [u64; 6]) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let slot_off = self.off + ((seq - 1) as usize % self.slots) * SLOT_LEN;
        let mut buf = [0u8; SLOT_LEN];
        buf[0..8].copy_from_slice(&seq.to_le_bytes());
        buf[8..10].copy_from_slice(&(kind as u16).to_le_bytes());
        for (i, w) in payload.iter().enumerate() {
            let o = PAYLOAD_OFF + i * 8;
            buf[o..o + 8].copy_from_slice(&w.to_le_bytes());
        }
        let crc = slot_crc(&buf);
        buf[CRC_OFF..CRC_OFF + 4].copy_from_slice(&crc.to_le_bytes());
        let meta = self.dev.meta();
        meta.write_bytes(slot_off, &buf);
        meta.flush(slot_off, SLOT_LEN);
        seq
    }

    /// Reads back the currently decodable tail without touching the append
    /// cursor — the same scan recovery performs, usable live.
    pub fn tail(&self) -> Vec<FlightEvent> {
        let (_, tail) = Self::recover(&self.dev, self.off, self.slots);
        tail
    }
}

/// CRC-32 over a slot's bytes excluding the CRC word itself.
fn slot_crc(buf: &[u8; SLOT_LEN]) -> u32 {
    treesls_nvm::crc32_update(crc32(&buf[..CRC_OFF]), &buf[PAYLOAD_OFF..])
}

/// Decodes one slot, returning `None` unless the CRC matches and the
/// sequence number is a plausible (non-zero) value.
fn decode_slot(buf: &[u8; SLOT_LEN]) -> Option<FlightEvent> {
    let stored = u32::from_le_bytes(buf[CRC_OFF..CRC_OFF + 4].try_into().expect("crc word"));
    if slot_crc(buf) != stored {
        return None;
    }
    let seq = u64::from_le_bytes(buf[0..8].try_into().expect("seq word"));
    if seq == 0 {
        return None;
    }
    let kind = u16::from_le_bytes(buf[8..10].try_into().expect("kind word"));
    let mut payload = [0u64; 6];
    for (i, w) in payload.iter_mut().enumerate() {
        let o = PAYLOAD_OFF + i * 8;
        *w = u64::from_le_bytes(buf[o..o + 8].try_into().expect("payload word"));
    }
    Some(FlightEvent { seq, kind, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use treesls_nvm::{LatencyModel, NvmDevice};

    fn device(meta_len: usize) -> Arc<NvmDevice> {
        Arc::new(NvmDevice::new(16, meta_len, Arc::new(LatencyModel::disabled())))
    }

    #[test]
    fn roundtrip_through_recovery() {
        let dev = device(4096);
        let rec = FlightRecorder::format(&dev, 0, 8);
        rec.record(EventKind::CkptBegin, [1, 0, 0, 0, 0, 0]);
        rec.record(EventKind::CkptCommit, [1, 10, 20, 30, 40, 100]);
        let (rec2, tail) = FlightRecorder::recover(&dev, 0, 8);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].event_kind(), Some(EventKind::CkptBegin));
        assert_eq!(tail[1].event_kind(), Some(EventKind::CkptCommit));
        assert_eq!(tail[1].payload, [1, 10, 20, 30, 40, 100]);
        assert_eq!(rec2.next_seq(), 3);
    }

    #[test]
    fn empty_ring_recovers_empty() {
        let dev = device(4096);
        FlightRecorder::format(&dev, 0, 8);
        let (rec, tail) = FlightRecorder::recover(&dev, 0, 8);
        assert!(tail.is_empty());
        assert_eq!(rec.next_seq(), 1);
    }

    #[test]
    fn wraparound_keeps_last_slots_events() {
        let dev = device(4096);
        let rec = FlightRecorder::format(&dev, 0, 4);
        for i in 0..10u64 {
            rec.record(EventKind::Marker, [i, 0, 0, 0, 0, 0]);
        }
        let (_, tail) = FlightRecorder::recover(&dev, 0, 4);
        assert_eq!(tail.len(), 4);
        let idx: Vec<u64> = tail.iter().map(|e| e.payload[0]).collect();
        assert_eq!(idx, vec![6, 7, 8, 9]);
        assert_eq!(tail.last().unwrap().seq, 10);
    }

    #[test]
    fn corrupt_tail_slot_is_dropped_not_misparsed() {
        let dev = device(4096);
        let rec = FlightRecorder::format(&dev, 0, 8);
        for i in 0..5u64 {
            rec.record(EventKind::Marker, [i, 0, 0, 0, 0, 0]);
        }
        // Flip one payload bit in the newest slot (seq 5 lives in slot 4).
        dev.flip_meta_bit(4 * SLOT_LEN + 20, 3);
        let (_, tail) = FlightRecorder::recover(&dev, 0, 8);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.last().unwrap().payload[0], 3);
    }

    #[test]
    fn corrupt_middle_slot_truncates_tail_there() {
        let dev = device(4096);
        let rec = FlightRecorder::format(&dev, 0, 8);
        for i in 0..5u64 {
            rec.record(EventKind::Marker, [i, 0, 0, 0, 0, 0]);
        }
        // Corrupting seq 3 (slot 2) leaves 4 and 5 as the only tail chained
        // to the maximum.
        dev.flip_meta_bit(2 * SLOT_LEN + 1, 0);
        let (_, tail) = FlightRecorder::recover(&dev, 0, 8);
        let idx: Vec<u64> = tail.iter().map(|e| e.payload[0]).collect();
        assert_eq!(idx, vec![3, 4]);
    }

    #[test]
    fn append_continues_after_recovery() {
        let dev = device(4096);
        let rec = FlightRecorder::format(&dev, 0, 8);
        rec.record(EventKind::Marker, [7, 0, 0, 0, 0, 0]);
        let (rec2, _) = FlightRecorder::recover(&dev, 0, 8);
        let seq = rec2.record(EventKind::Marker, [8, 0, 0, 0, 0, 0]);
        assert_eq!(seq, 2);
        let tail = rec2.tail();
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn unknown_kind_survives_decode() {
        let dev = device(4096);
        let rec = FlightRecorder::format(&dev, 0, 8);
        // Forge a slot with an unknown discriminant by writing through the
        // recorder's own encoding path at the raw level.
        rec.record(EventKind::Marker, [0; 6]);
        let mut buf = [0u8; SLOT_LEN];
        dev.meta().read_bytes(0, &mut buf);
        buf[8..10].copy_from_slice(&999u16.to_le_bytes());
        let crc = super::slot_crc(&buf);
        buf[CRC_OFF..CRC_OFF + 4].copy_from_slice(&crc.to_le_bytes());
        dev.meta().write_bytes(0, &buf);
        let (_, tail) = FlightRecorder::recover(&dev, 0, 8);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].event_kind(), None);
        assert_eq!(tail[0].kind_name(), "unknown");
    }
}
