//! Replication queue plumbing: the release gate and the delta channel.
//!
//! Checkpoint-shipping replication (the `treesls-repl` crate) streams each
//! round's delta from a primary kernel to replica machines and gates the
//! NIC's commit-time visibility barrier on quorum durability. Two pieces
//! live *here* because the NIC cannot depend on the replication crate:
//!
//! * [`ReleaseGate`] — the narrow interface the NIC consults at admission
//!   and at every commit barrier. The replication shipper implements it;
//!   a NIC without a gate behaves exactly as before (single-box external
//!   synchrony), which keeps `quorum = 1` as the compatibility oracle.
//! * [`ReplChannel`] — a queue pair (delta ring out, ack ring back) built
//!   from the extsync ring codec over plain host memory ([`HeapMem`]):
//!   the replication wire is host infrastructure (like the NIC's DMA
//!   engine), not SLS-persistent state, so it needs the slot codec but no
//!   NVM semantics; the version tag stamped into a pushed slot is the
//!   shipping round.
//!   The wire between primary and replica reuses the CRC-checked slot
//!   format (a torn or bit-flipped frame surfaces as
//!   [`RingError::Corrupt`], never as garbage data) and the deterministic
//!   [`Wire`] drop/duplicate/reorder model, plus a partition switch
//!   for whole-link failures.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use treesls_extsync::ring::{self, hdr, RingError, RingLayout};
use treesls_extsync::HeapMem;

use crate::fault::{NetFaultConfig, Wire, WireEvent};

/// The quorum gate the NIC consults (implemented by the replication
/// shipper's health state).
///
/// Without a gate the NIC releases responses as soon as the covering
/// checkpoint commits locally. With one, release is additionally bounded
/// by the highest *quorum-durable* round, and admission can shed write
/// traffic while the quorum is lost (degraded mode).
pub trait ReleaseGate: Send + Sync {
    /// The highest committed round whose responses may be released,
    /// given that round `committed` just committed locally. An
    /// implementation returns `min(committed, durable_round)` where
    /// `durable_round` is the newest round acknowledged by the quorum.
    fn release_bound(&self, committed: u64) -> u64;

    /// Whether to admit a new request carrying `payload`. Degraded mode
    /// sheds state-changing requests with `Busy` (their acks could never
    /// be released) while read traffic stays admitted — reads create no
    /// durability obligation; their responses simply wait for the quorum
    /// to return.
    fn admit(&self, _payload: &[u8]) -> bool {
        true
    }
}

/// Errors surfaced when shipping a frame into the delta ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipError {
    /// The replica has not drained enough slots; retry after backoff.
    Backpressure,
    /// The ring's header/slot state is self-inconsistent.
    Corrupt,
}

/// A dedicated queue pair between a primary and one replica: a delta ring
/// (primary → replica) and an ack ring (replica → primary), both over
/// [`HeapMem`] with the extsync slot codec.
///
/// The wire model is the NIC's: seeded drop/duplicate/reorder via
/// [`Wire`], plus a [`partition`](Self::set_partitioned) switch that
/// silently discards everything in both directions (the shipper's retry /
/// resync machinery is the recovery path, exactly as for a real link).
pub struct ReplChannel {
    delta_mem: HeapMem,
    ack_mem: HeapMem,
    delta: RingLayout,
    ack: RingLayout,
    delta_seq: AtomicU64,
    ack_seq: AtomicU64,
    /// The primary → replica delta wire; a frame's header is its round.
    wire: Wire<u64>,
    partitioned: AtomicBool,
    /// Drops counted against this channel (partition + fault model).
    pub dropped: AtomicU64,
}

impl ReplChannel {
    /// Creates a channel: `nslots` slots of `slot_size` bytes per ring
    /// (slot size includes the 24-byte slot header; size for the largest
    /// frame — a page frame carries a 4096-byte image plus its header).
    pub fn new(nslots: u64, slot_size: u64, fault: NetFaultConfig) -> Arc<Self> {
        let delta = RingLayout { base: 0, nslots, slot_size };
        let ack = RingLayout { base: 0, nslots: nslots.max(64), slot_size: 128 };
        let delta_mem = HeapMem::new(delta.byte_len() as usize);
        let ack_mem = HeapMem::new(ack.byte_len() as usize);
        ring::init(&delta_mem, &delta).expect("in-range");
        ring::init(&ack_mem, &ack).expect("in-range");
        Arc::new(Self {
            delta_mem,
            ack_mem,
            delta,
            ack,
            delta_seq: AtomicU64::new(1),
            ack_seq: AtomicU64::new(1),
            wire: Wire::new(fault),
            partitioned: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        })
    }

    /// Partitions or heals the link (both directions).
    pub fn set_partitioned(&self, on: bool) {
        self.partitioned.store(on, Ordering::SeqCst);
    }

    /// Whether the link is currently partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }

    /// Flips a bit in the *next unread* delta slot (corruption drill: the
    /// replica's pop must surface `Corrupt`, quarantine, and resync).
    pub fn corrupt_next_delta(&self) {
        if let Ok(reader) = ring::header(&self.delta_mem, &self.delta, hdr::READER) {
            let slot = self.delta.base
                + hdr::SIZE
                + (reader % self.delta.nslots) * self.delta.slot_size;
            // Flip the first payload byte (just past the 24-byte slot
            // header) — always inside the CRC-covered region.
            self.delta_mem.corrupt_byte(slot + 24);
        }
    }

    /// Ships one delta frame toward the replica, `round` is stamped as
    /// the slot's version tag. Wire faults apply: a dropped frame simply
    /// never arrives (the replica detects the gap and resyncs).
    pub fn send_delta(&self, round: u64, frame: &[u8]) -> Result<(), ShipError> {
        if self.partitioned.load(Ordering::SeqCst) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.wire.send(round, frame, |r, f| self.push_delta(r, f), |e| self.count(e))
    }

    /// Drains the reorder window onto the ring; a frame the ring refuses
    /// is dropped.
    pub fn flush_wire(&self) {
        self.wire.flush(|r, f| self.push_delta(r, f), |e| self.count(e));
    }

    /// Counts the wire's losses against this channel.
    fn count(&self, e: WireEvent) {
        if matches!(e, WireEvent::Dropped | WireEvent::Lost) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn push_delta(&self, round: u64, frame: &[u8]) -> Result<(), ShipError> {
        self.delta_mem.set_version(round);
        let seq = self.delta_seq.fetch_add(1, Ordering::SeqCst);
        match ring::push(&self.delta_mem, &self.delta, seq, frame) {
            Ok(_) => Ok(()),
            Err(RingError::Full) => Err(ShipError::Backpressure),
            Err(_) => Err(ShipError::Corrupt),
        }
    }

    /// Receives the next delta frame on the replica side. `Ok(None)` when
    /// the ring is drained. A corrupt slot is *consumed* (the reader
    /// advances past it) and surfaced as `Err(Corrupt)` so the replica
    /// can quarantine-and-resync instead of wedging on the bad slot.
    pub fn recv_delta(&self) -> Result<Option<(u64, Vec<u8>)>, RingError> {
        if self.partitioned.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match ring::pop_below(&self.delta_mem, &self.delta, hdr::WRITER) {
            Ok(None) => Ok(None),
            Ok(Some(msg)) => {
                self.release_consumed_delta();
                Ok(Some((msg.version, msg.payload)))
            }
            Err(e @ RingError::Corrupt(_)) => {
                // Skip the poisoned slot: reader += 1, then release it.
                let r = ring::header(&self.delta_mem, &self.delta, hdr::READER)?;
                ring::set_header(&self.delta_mem, &self.delta, hdr::READER, r + 1)?;
                self.release_consumed_delta();
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Releases consumed delta slots for reuse (ack = reader): the
    /// channel is a transport, not a durability boundary — retention is
    /// the shipper's backlog, not the ring.
    fn release_consumed_delta(&self) {
        if let Ok(r) = ring::header(&self.delta_mem, &self.delta, hdr::READER) {
            let _ = ring::set_header(&self.delta_mem, &self.delta, hdr::ACK, r);
        }
    }

    /// Sends an ack/control frame back toward the primary.
    pub fn send_ack(&self, frame: &[u8]) -> Result<(), ShipError> {
        if self.partitioned.load(Ordering::SeqCst) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let seq = self.ack_seq.fetch_add(1, Ordering::SeqCst);
        match ring::push(&self.ack_mem, &self.ack, seq, frame) {
            Ok(_) => Ok(()),
            Err(RingError::Full) => Err(ShipError::Backpressure),
            Err(_) => Err(ShipError::Corrupt),
        }
    }

    /// Receives the next ack/control frame on the primary side.
    pub fn recv_ack(&self) -> Result<Option<Vec<u8>>, RingError> {
        if self.partitioned.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match ring::pop_below(&self.ack_mem, &self.ack, hdr::WRITER) {
            Ok(None) => Ok(None),
            Ok(Some(msg)) => {
                if let Ok(r) = ring::header(&self.ack_mem, &self.ack, hdr::READER) {
                    let _ = ring::set_header(&self.ack_mem, &self.ack, hdr::ACK, r);
                }
                Ok(Some(msg.payload))
            }
            Err(e @ RingError::Corrupt(_)) => {
                // A corrupt ack is dropped; the next ack supersedes it.
                let r = ring::header(&self.ack_mem, &self.ack, hdr::READER)?;
                ring::set_header(&self.ack_mem, &self.ack, hdr::READER, r + 1)?;
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Delta frames currently queued and unread (for lag observability).
    pub fn delta_backlog(&self) -> u64 {
        let w = ring::header(&self.delta_mem, &self.delta, hdr::WRITER).unwrap_or(0);
        let r = ring::header(&self.delta_mem, &self.delta, hdr::READER).unwrap_or(0);
        w.saturating_sub(r)
    }
}

impl std::fmt::Debug for ReplChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplChannel")
            .field("backlog", &self.delta_backlog())
            .field("partitioned", &self.is_partitioned())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_roundtrip_carries_round_tag() {
        let ch = ReplChannel::new(8, 256, NetFaultConfig::default());
        ch.send_delta(7, b"hello").unwrap();
        ch.send_delta(7, b"world").unwrap();
        assert_eq!(ch.recv_delta().unwrap(), Some((7, b"hello".to_vec())));
        assert_eq!(ch.recv_delta().unwrap(), Some((7, b"world".to_vec())));
        assert_eq!(ch.recv_delta().unwrap(), None);
    }

    #[test]
    fn reordered_frames_keep_their_send_round() {
        let fault = NetFaultConfig { seed: 5, reorder_window: 4, ..Default::default() };
        let ch = ReplChannel::new(32, 256, fault);
        for round in 1..=12u64 {
            ch.send_delta(round, &round.to_le_bytes()).unwrap();
        }
        ch.flush_wire();
        let mut rounds = Vec::new();
        while let Some((tag, frame)) = ch.recv_delta().unwrap() {
            let sent = u64::from_le_bytes(frame.as_slice().try_into().unwrap());
            assert_eq!(tag, sent, "frame of round {sent} arrived tagged {tag}");
            rounds.push(sent);
        }
        assert_ne!(rounds, (1..=12).collect::<Vec<_>>(), "the window never reordered");
        rounds.sort_unstable();
        assert_eq!(rounds, (1..=12).collect::<Vec<_>>(), "a frame was lost or duplicated");
    }

    #[test]
    fn partition_discards_both_directions() {
        let ch = ReplChannel::new(8, 256, NetFaultConfig::default());
        ch.set_partitioned(true);
        ch.send_delta(1, b"x").unwrap();
        ch.send_ack(b"y").unwrap();
        ch.set_partitioned(false);
        assert_eq!(ch.recv_delta().unwrap(), None);
        assert_eq!(ch.recv_ack().unwrap(), None);
        assert_eq!(ch.dropped.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn corrupt_slot_is_consumed_and_reported() {
        let ch = ReplChannel::new(8, 256, NetFaultConfig::default());
        ch.send_delta(1, b"poisoned").unwrap();
        ch.send_delta(1, b"clean").unwrap();
        ch.corrupt_next_delta();
        assert!(matches!(ch.recv_delta(), Err(RingError::Corrupt(_))));
        // The reader moved past the bad slot; the clean frame survives.
        assert_eq!(ch.recv_delta().unwrap(), Some((1, b"clean".to_vec())));
    }

    #[test]
    fn backpressure_when_ring_full() {
        let ch = ReplChannel::new(2, 256, NetFaultConfig::default());
        ch.send_delta(1, b"a").unwrap();
        ch.send_delta(1, b"b").unwrap();
        assert_eq!(ch.send_delta(1, b"c"), Err(ShipError::Backpressure));
        assert!(ch.recv_delta().unwrap().is_some());
        ch.send_delta(1, b"c").unwrap();
    }

    #[test]
    fn acks_flow_back() {
        let ch = ReplChannel::new(8, 256, NetFaultConfig::default());
        ch.send_ack(&[1, 2, 3]).unwrap();
        assert_eq!(ch.recv_ack().unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(ch.recv_ack().unwrap(), None);
    }
}
