//! The threaded run: `System::start` (one core thread, 1 ms checkpoint
//! timer), one replica behind a quorum-2 gate, and this thread as an
//! open-loop client.
//!
//! Arrival `i` is due at `i / rate` seconds whatever the server does: a
//! request is never skipped or delayed because earlier ones are still
//! outstanding, latency runs from the *scheduled* instant (so a stall is
//! charged to every request queued behind it), and how late the
//! generator itself fired is reported next to the latency.

use std::collections::VecDeque;
use std::time::Duration;

use crate::gen::{stream_hash, Req};
use crate::lockstep::{send, Client, Counters, Measured, Phase, StwSums};
use crate::rig::Rig;
use crate::shadow::Expect;
use crate::stats::slice_medians;
use crate::trace::Tracer;

/// Nanoseconds between scheduled arrivals: 20 000 per second, about a
/// quarter of what one core thread saturates at.
pub const PERIOD_NS: u64 = 50_000;
/// A request unanswered this long after its scheduled instant is
/// abandoned and counted as a timeout.
const TIMEOUT_NS: u64 = 1_000_000_000;

struct Outstanding {
    seq: u64,
    due_ns: u64,
    v_send: u64,
    expect: Expect,
}

impl Client {
    /// Takes every response that has arrived (in send order), judges it,
    /// and abandons requests older than the timeout.
    fn harvest_open(
        &mut self,
        rig: &Rig,
        tracer: &mut Tracer,
        outstanding: &mut VecDeque<Outstanding>,
        ack_ns: &mut Vec<u64>,
    ) {
        let nic = &*rig.nic;
        let t0 = tracer.now_ns();
        nic.pump();
        let before = ack_ns.len();
        outstanding.retain(|o| {
            let Some(resp) = nic.try_take(o.seq) else {
                if tracer.now_ns().saturating_sub(o.due_ns) > TIMEOUT_NS {
                    nic.abandon(o.seq);
                    self.fail.timeouts += 1;
                    return false;
                }
                return true;
            };
            let taken = tracer.now_ns();
            if nic.committed_version() <= o.v_send {
                self.fail.sync_violations += 1;
            } else if self.shadow.judge(&o.expect, self.gen.decode(&resp)) {
                ack_ns.push(taken.saturating_sub(o.due_ns));
            } else {
                self.flunk(Phase::Run, true);
            }
            false
        });
        let taken = (ack_ns.len() - before) as u32;
        if taken > 0 {
            tracer.span("net.harvest", t0, tracer.now_ns(), 0, 0, taken);
        }
    }

    /// Fires one scheduled arrival per period for `seconds`, then drains.
    pub fn measure_open(&mut self, rig: &Rig, tracer: &mut Tracer, seconds: f64) -> Measured {
        let nic = &*rig.nic;
        let total = (seconds * 1e9 / PERIOD_NS as f64) as u64;
        let start = Counters::take(rig);
        let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
        let mut ack_ns = Vec::with_capacity(total as usize);
        let mut late_ns = Vec::with_capacity(total as usize);
        // The next request is generated ahead of its due time, so
        // generation never delays a send.
        let mut next: Req = self.gen.next();
        let origin = tracer.now_ns() + 1_000_000;
        let mut fired = 0u64;
        let mut hash = 0u64;
        while fired < total {
            let due = origin + fired * PERIOD_NS;
            let now = tracer.now_ns();
            if now < due {
                self.harvest_open(rig, tracer, &mut outstanding, &mut ack_ns);
                // Re-read the clock: the harvest may have crossed `due`.
                if let Some(gap) = due.checked_sub(tracer.now_ns()) {
                    if gap > 200_000 {
                        std::thread::sleep(Duration::from_nanos(gap - 100_000));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                continue;
            }
            late_ns.push(now - due);
            let expect = self.shadow.sent(&next, false);
            let v_send = nic.committed_version();
            let t0 = tracer.now_ns();
            let seq = send(nic, &next);
            tracer.span("net.send", t0, tracer.now_ns(), 0, 0, 1);
            match seq {
                Some(seq) => outstanding.push_back(Outstanding {
                    seq,
                    due_ns: due,
                    v_send,
                    expect,
                }),
                None => self.fail.sheds += 1,
            }
            self.attempted += 1;
            fired += 1;
            hash = stream_hash(hash, &next);
            next = self.gen.next();
        }
        while !outstanding.is_empty() {
            self.harvest_open(rig, tracer, &mut outstanding, &mut ack_ns);
            std::thread::sleep(Duration::from_micros(50));
        }
        let wall_s = (tracer.now_ns() - origin) as f64 / 1e9;
        let whole = Counters::take(rig).since(&start);
        let slice_ack_p50 = slice_medians(&ack_ns);
        ack_ns.sort_unstable();
        late_ns.sort_unstable();
        // No fixed prefix here: timer-driven rounds do not repeat exactly,
        // so the counters cover the whole phase.
        Measured {
            counted_ops: ack_ns.len() as u64,
            slice_ack_p50,
            slice_goodput: vec![ack_ns.len() as f64 / wall_s],
            ack_ns,
            late_ns,
            seconds: wall_s,
            stw: StwSums::default(),
            counted: whole.clone(),
            counted_hash: hash,
            counted_full: true,
            whole,
            txn_lag: 0,
        }
    }
}
