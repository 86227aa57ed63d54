//! Deterministic network fault model for the virtual NIC and the
//! replication channel.
//!
//! The [`Wire`] between the external clients and the NIC's RX rings (and
//! between a primary and its replica) can drop, duplicate or reorder
//! packets. The model is seeded and counts
//! packets, so a given `(seed, send-order)` pair always perturbs the same
//! packets — composable with a [`treesls_nvm::CrashSchedule`]: one run can
//! pin *both* where power fails and which packets misbehave, and replay it
//! exactly.
//!
//! Recovery relies on the end-to-end contract, not a reliable wire: every
//! request carries a sequence number, clients retransmit on timeout, and
//! the host dedups responses by sequence — so drops surface as retries,
//! duplicates as idempotent re-processing, and reordering exercises the
//! server's cursor discipline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Configuration of the wire between clients and the NIC.
///
/// The default (`1 in 0`, window 0) is a perfect wire; rates are expressed
/// as "one in N packets" with 0 meaning never.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultConfig {
    /// Seed for the deterministic perturbation stream.
    pub seed: u64,
    /// Drop one in this many packets (0 = never).
    pub drop_1_in: u64,
    /// Duplicate one in this many packets (0 = never).
    pub dup_1_in: u64,
    /// Reorder window: packets are buffered and released in a seeded
    /// permutation within a window of this many packets (0 = in-order).
    pub reorder_window: usize,
}

impl NetFaultConfig {
    /// Whether any perturbation is configured.
    pub fn is_active(&self) -> bool {
        self.drop_1_in != 0 || self.dup_1_in != 0 || self.reorder_window > 1
    }
}

/// What the wire decides to do with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Deliver normally.
    Deliver,
    /// Lose the packet (the client's retransmission recovers it).
    Drop,
    /// Deliver the packet twice (exercises host-side dedup).
    Duplicate,
}

/// Seeded per-NIC fault state: a packet counter drives a stateless mix, so
/// the decision for packet *n* depends only on `(seed, n)`.
#[derive(Debug)]
pub struct FaultState {
    cfg: NetFaultConfig,
    packet: AtomicU64,
}

impl FaultState {
    /// Creates the per-NIC fault state for `cfg` (packet counter at 0).
    pub fn new(cfg: NetFaultConfig) -> Self {
        Self { cfg, packet: AtomicU64::new(0) }
    }

    /// The configuration this state perturbs packets with.
    pub fn cfg(&self) -> &NetFaultConfig {
        &self.cfg
    }

    /// Decides the fate of the next packet. Drop wins over duplicate when
    /// both trigger (a dropped packet cannot also arrive twice).
    pub fn next(&self) -> Perturbation {
        let n = self.packet.fetch_add(1, Ordering::SeqCst);
        let h = crate::flow::flow_hash(self.cfg.seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d));
        if self.cfg.drop_1_in != 0 && h.is_multiple_of(self.cfg.drop_1_in) {
            return Perturbation::Drop;
        }
        if self.cfg.dup_1_in != 0 && (h >> 17).is_multiple_of(self.cfg.dup_1_in) {
            return Perturbation::Duplicate;
        }
        Perturbation::Deliver
    }

    /// Picks which of `len` buffered packets the wire releases next (the
    /// reordering permutation), again purely from `(seed, decision index)`.
    pub fn pick(&self, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        let n = self.packet.fetch_add(1, Ordering::SeqCst);
        let h = crate::flow::flow_hash(self.cfg.seed ^ n.wrapping_mul(0x9e37_79b9));
        (h % len as u64) as usize
    }
}

/// One thing a [`Wire`] did to a packet, reported to the sender so it can
/// keep its own counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireEvent {
    /// The fault model dropped a packet.
    Dropped,
    /// The fault model duplicated a packet.
    Duplicated,
    /// The reorder window released a packet other than its oldest.
    Reordered,
    /// A packet released at a flush was refused by its receiver.
    Lost,
}

/// A seeded wire: every packet runs through the [`FaultState`] model and,
/// with a reorder window, waits on the wire until the window fills.
///
/// A packet is a `Copy` header `H` (routing, sequence, round) plus its
/// bytes. A held packet keeps its own header, so whatever releases it, it
/// arrives as it was sent. Bytes are copied only while a packet waits in
/// the window; a perfect wire hands them straight to the receiver.
#[derive(Debug)]
pub struct Wire<H> {
    fault: Option<FaultState>,
    held: Mutex<VecDeque<(H, Vec<u8>)>>,
}

impl<H: Copy> Wire<H> {
    /// Creates a wire perturbing packets per `cfg` (perfect when inactive).
    pub fn new(cfg: NetFaultConfig) -> Self {
        Self {
            fault: cfg.is_active().then(|| FaultState::new(cfg)),
            held: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether packets can be lost, duplicated or delayed on this wire.
    pub fn is_faulty(&self) -> bool {
        self.fault.is_some()
    }

    /// Sends one packet: decides its fate, then hands every packet the
    /// wire releases to `deliver`. A duplicate's second copy is
    /// best-effort: if `deliver` refuses it, the copy is simply lost,
    /// which is indistinguishable from it never having been duplicated.
    /// Returns `deliver`'s error for a released packet.
    pub fn send<E>(
        &self,
        hdr: H,
        bytes: &[u8],
        mut deliver: impl FnMut(H, &[u8]) -> Result<(), E>,
        mut event: impl FnMut(WireEvent),
    ) -> Result<(), E> {
        match self.fault.as_ref().map_or(Perturbation::Deliver, FaultState::next) {
            Perturbation::Drop => {
                event(WireEvent::Dropped);
                Ok(())
            }
            Perturbation::Duplicate => {
                event(WireEvent::Duplicated);
                self.enqueue(hdr, bytes, &mut deliver, &mut event)?;
                let _ = self.enqueue(hdr, bytes, &mut deliver, &mut event);
                Ok(())
            }
            Perturbation::Deliver => self.enqueue(hdr, bytes, &mut deliver, &mut event),
        }
    }

    /// Puts a packet on the wire; once the reorder window is full, one
    /// seeded pick of the held packets leaves it.
    fn enqueue<E>(
        &self,
        hdr: H,
        bytes: &[u8],
        deliver: &mut impl FnMut(H, &[u8]) -> Result<(), E>,
        event: &mut impl FnMut(WireEvent),
    ) -> Result<(), E> {
        let window = self.fault.as_ref().map_or(0, |f| f.cfg().reorder_window);
        if window <= 1 {
            return deliver(hdr, bytes);
        }
        let released = {
            let mut held = self.held.lock();
            held.push_back((hdr, bytes.to_vec()));
            if held.len() < window {
                return Ok(());
            }
            self.release(&mut held, event)
        };
        match released {
            Some((h, b)) => deliver(h, &b),
            None => Ok(()),
        }
    }

    /// Drains the reorder window in seeded-permuted order. A packet
    /// `deliver` refuses is lost, like a drop on the wire.
    pub fn flush<E>(
        &self,
        mut deliver: impl FnMut(H, &[u8]) -> Result<(), E>,
        mut event: impl FnMut(WireEvent),
    ) {
        loop {
            let released = {
                let mut held = self.held.lock();
                if held.is_empty() {
                    return;
                }
                self.release(&mut held, &mut event)
            };
            if let Some((h, b)) = released {
                if deliver(h, &b).is_err() {
                    event(WireEvent::Lost);
                }
            }
        }
    }

    fn release(
        &self,
        held: &mut VecDeque<(H, Vec<u8>)>,
        event: &mut impl FnMut(WireEvent),
    ) -> Option<(H, Vec<u8>)> {
        let idx = self.fault.as_ref().map_or(0, |f| f.pick(held.len()));
        if idx != 0 {
            event(WireEvent::Reordered);
        }
        held.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_wire_by_default() {
        let f = FaultState::new(NetFaultConfig::default());
        assert!(!f.cfg().is_active());
        for _ in 0..256 {
            assert_eq!(f.next(), Perturbation::Deliver);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = NetFaultConfig { seed: 42, drop_1_in: 5, dup_1_in: 7, reorder_window: 0 };
        let a = FaultState::new(cfg);
        let b = FaultState::new(cfg);
        for _ in 0..512 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let cfg = NetFaultConfig { seed: 7, drop_1_in: 4, dup_1_in: 0, reorder_window: 0 };
        let f = FaultState::new(cfg);
        let drops = (0..4096).filter(|_| f.next() == Perturbation::Drop).count();
        // 1-in-4 over 4096 packets: expect ~1024, allow wide slack.
        assert!((512..=1536).contains(&drops), "drops={drops}");
    }

    #[test]
    fn pick_stays_in_bounds_and_varies() {
        let cfg = NetFaultConfig { seed: 3, reorder_window: 4, ..Default::default() };
        let f = FaultState::new(cfg);
        let picks: Vec<usize> = (0..64).map(|_| f.pick(4)).collect();
        assert!(picks.iter().all(|&p| p < 4));
        assert!(picks.iter().any(|&p| p != 0), "window never reordered");
        assert_eq!(f.pick(1), 0);
    }
}
