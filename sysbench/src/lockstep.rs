//! The lockstep driver: the calling thread is the client, the NIC's DMA
//! engine, the only core and the checkpoint leader, in turn.
//!
//! One *window* is `rounds` × (send `per_round` requests, run the server
//! threads dry) followed by one checkpoint and one harvest. Nothing else
//! runs — no timer, no second thread — so counters repeat exactly from
//! run to run. Goodput is over the wall-clock of the whole phase, which
//! five kinds of span partition: the four sections timed around the
//! system (send, serve, checkpoint, harvest) and the client's own work
//! between them (generating requests, shadow bookkeeping, checking
//! responses). What no span covers is the budget residual.

use std::time::Instant;

use treesls::net::VirtualNic;
use treesls::{MetricsSnapshot, RestoreReport, StwBreakdown};
use treesls_kernel::fault::KernelStatsSnapshot;

use crate::gen::{stream_hash, Gen, Reply, Req};
use crate::rig::Rig;
use crate::shadow::{Expect, Shadow};
use crate::stats::{ascending, slice_medians, SLICE_OPS};
use crate::trace::Tracer;

/// Requests per checkpoint = `rounds * per_round`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub rounds: usize,
    pub per_round: usize,
}

/// Why operations failed. A failed operation has no latency sample and
/// does not count towards goodput.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// Refused at admission (`NetError::Busy` or a ring error).
    pub sheds: u64,
    /// No response within the open-loop timeout.
    pub timeouts: u64,
    /// No response after the window's commit (lockstep).
    pub missing: u64,
    /// Response failed the shadow-model check.
    pub wrong: u64,
    /// §5: response visible at a committed version not above the one
    /// current at send, or a commit acknowledged above the durable
    /// transaction sequence.
    pub sync_violations: u64,
    /// Crash drill: keys whose recovered value is neither the last
    /// acknowledged write nor a later sent one (or that never answered).
    pub lost_acks: u64,
    /// Crash drill: primary ↔ secondary-index bijection broken.
    pub index_violations: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.sheds
            + self.timeouts
            + self.missing
            + self.wrong
            + self.sync_violations
            + self.lost_acks
            + self.index_violations
    }
}

/// Which failure bucket a bad response lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Preload and measured phase: strict reads, `missing` / `wrong`.
    Run,
    /// After a crash: relaxed reads, everything is a lost ack.
    Recovered,
}

/// Counters of the system under test at one instant; subtract two with
/// [`Counters::since`] to scope them to an interval.
#[derive(Debug, Clone)]
pub struct Counters {
    pub m: MetricsSnapshot,
    pub k: KernelStatsSnapshot,
    /// NVM frames the persistent allocator has handed out.
    pub frames_used: u64,
}

impl Counters {
    pub fn take(rig: &Rig) -> Self {
        let a = rig.sys.kernel().pers.alloc.stats();
        Self {
            m: rig.sys.metrics_snapshot(),
            k: rig.sys.kernel().stats.snapshot(),
            frames_used: (a.total_frames - a.free_frames) as u64,
        }
    }

    /// Counter deltas since `earlier`; gauges (and `frames_used`) keep
    /// the later value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            m: self.m.since(&earlier.m),
            k: self.k.since(&earlier.k),
            frames_used: self.frames_used,
        }
    }
}

/// Sums of the `StwBreakdown`s returned by the measured checkpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct StwSums {
    pub rounds: u64,
    pub ipi_ns: u64,
    pub cap_tree_ns: u64,
    pub hybrid_wait_ns: u64,
    pub others_ns: u64,
    pub objects_copied: u64,
}

impl Measured {
    /// Operations that count towards goodput.
    pub fn acked(&self) -> u64 {
        self.ack_ns.len() as u64
    }
}

impl StwSums {
    fn add(&mut self, b: &StwBreakdown) {
        self.rounds += 1;
        self.ipi_ns += b.ipi.as_nanos() as u64;
        self.cap_tree_ns += b.cap_tree.as_nanos() as u64;
        self.hybrid_wait_ns += b.hybrid_wait.as_nanos() as u64;
        self.others_ns += b.others.as_nanos() as u64;
        self.objects_copied += b.objects_copied as u64;
    }
}

/// What the measured phase produced.
#[derive(Debug)]
pub struct Measured {
    /// Ack latency, ascending, of each operation that passed the
    /// visibility barrier and the shadow check: from send (lockstep) or
    /// from the scheduled arrival (open loop).
    pub ack_ns: Vec<u64>,
    /// Median ack latency of each slice of the phase, ascending.
    pub slice_ack_p50: Vec<u64>,
    /// Acked operations per second of each slice's wall-clock, ascending
    /// (open loop: the whole phase as one slice — the schedule fixes it).
    pub slice_goodput: Vec<f64>,
    /// Open loop: generator lateness (fired − due) per arrival, ascending.
    pub late_ns: Vec<u64>,
    /// Wall-clock of the whole phase (open loop: first scheduled arrival
    /// → last response).
    pub seconds: f64,
    pub stw: StwSums,
    /// Counter deltas over the counted prefix, its acked operations and
    /// the hash of its request stream. The prefix is a fixed number of
    /// windows, so on the same seed these repeat exactly however long the
    /// run lasts; `counted_full` is false if the run ended before it.
    pub counted: Counters,
    pub counted_ops: u64,
    pub counted_hash: u64,
    pub counted_full: bool,
    /// Counter deltas over the whole phase (rates per second).
    pub whole: Counters,
    /// `TxnGate::committed_seq − durable_seq` when the phase ended.
    pub txn_lag: u64,
}

/// Timings of one crash drill.
#[derive(Debug)]
pub struct Drill {
    pub crash_ms: f64,
    /// `System::recover` entry → first fresh acknowledged response.
    pub recover_ms: f64,
    pub report: RestoreReport,
}

struct Sent {
    expect: Expect,
    seq: Option<u64>,
    sent_ns: u64,
    taken_ns: u64,
    resp: Option<Vec<u8>>,
}

/// The client side of a workload: generator, shadow model, tallies.
pub struct Client {
    pub gen: Gen,
    pub shadow: Shadow,
    pub shape: Shape,
    pub fail: Failures,
    /// Operations attempted so far (every phase).
    pub attempted: u64,
    window_id: u64,
    sent: Vec<Sent>,
}

/// Sends one request; a refusal is `None` (the caller counts the shed).
pub fn send(nic: &VirtualNic, req: &Req) -> Option<u64> {
    nic.send_request(req.flow, &req.payload).ok()
}

impl Client {
    pub fn new(gen: Gen, keys: u32, shape: Shape) -> Self {
        Self {
            gen,
            shadow: Shadow::new(keys),
            shape,
            fail: Failures::default(),
            attempted: 0,
            window_id: 0,
            sent: Vec::new(),
        }
    }

    /// Files a response that failed its check under the phase's bucket.
    pub fn flunk(&mut self, phase: Phase, answered: bool) {
        match (phase, answered) {
            (Phase::Recovered, _) => self.fail.lost_acks += 1,
            (Phase::Run, true) => self.fail.wrong += 1,
            (Phase::Run, false) => self.fail.missing += 1,
        }
    }

    /// One window: drive it, then judge the responses. Pushes the ack
    /// latency of each correct operation to `acks`.
    fn window(
        &mut self,
        rig: &Rig,
        tracer: &mut Tracer,
        reqs: &[Req],
        phase: Phase,
        acks: &mut Vec<u64>,
    ) -> StwBreakdown {
        let (stw, v_send) = self.drive(rig, tracer, reqs, phase);
        let t0 = tracer.now_ns();
        self.judge(rig, phase, v_send, acks);
        let id = self.window_id - 1;
        tracer.span("client.work", t0, tracer.now_ns(), 0, id, reqs.len() as u32);
        stw
    }

    /// The system's half of a window: `rounds` × (send, serve), one
    /// checkpoint, one harvest. Leaves the driver's copy of every
    /// response in `self.sent` and returns the committed version the
    /// requests were sent under.
    fn drive(
        &mut self,
        rig: &Rig,
        tracer: &mut Tracer,
        reqs: &[Req],
        phase: Phase,
    ) -> (StwBreakdown, u64) {
        let nic = &*rig.nic;
        let id = self.window_id;
        self.window_id += 1;
        let c0 = tracer.now_ns();
        let root = tracer.open("window", c0, id);
        self.attempted += reqs.len() as u64;
        self.sent.clear();
        for req in reqs {
            let expect = self.shadow.sent(req, phase == Phase::Run);
            self.sent.push(Sent {
                expect,
                seq: None,
                sent_ns: 0,
                taken_ns: 0,
                resp: None,
            });
        }

        let v_send = nic.committed_version();
        tracer.span("client.work", c0, tracer.now_ns(), root, id, 0);
        let mut at = 0;
        for chunk in reqs.chunks(self.shape.per_round) {
            let t0 = tracer.now_ns();
            for req in chunk {
                let s = &mut self.sent[at];
                s.sent_ns = tracer.now_ns();
                s.seq = send(nic, req);
                at += 1;
            }
            let t1 = tracer.now_ns();
            rig.serve();
            let t2 = tracer.now_ns();
            tracer.span("net.send", t0, t1, root, id, chunk.len() as u32);
            tracer.span("kernel.serve", t1, t2, root, id, chunk.len() as u32);
        }

        let t0 = tracer.now_ns();
        let stw = rig.checkpoint();
        let t1 = tracer.now_ns();
        nic.pump();
        for s in &mut self.sent {
            s.resp = s.seq.and_then(|seq| nic.try_take(seq));
            s.taken_ns = tracer.now_ns();
        }
        let t2 = tracer.now_ns();
        tracer.span("checkpoint.round", t0, t1, root, id, reqs.len() as u32);
        tracer.span("net.harvest", t1, t2, root, id, reqs.len() as u32);
        tracer.close(root, t2, reqs.len() as u32);
        (stw, v_send)
    }

    /// The client's half: judges the driver's copy of every response, in
    /// send order, against the shadow model and the §5 oracle.
    fn judge(&mut self, rig: &Rig, phase: Phase, v_send: u64, acks: &mut Vec<u64>) {
        let v_seen = rig.nic.committed_version();
        let durable_seq = rig.gate.as_ref().map(|g| g.durable_seq());
        for i in 0..self.sent.len() {
            let s = &mut self.sent[i];
            let (expect, seq, resp) = (s.expect, s.seq, s.resp.take());
            let lat = s.taken_ns - s.sent_ns;
            let Some(resp) = resp else {
                match seq {
                    None => self.fail.sheds += 1,
                    Some(_) => self.flunk(phase, false),
                }
                continue;
            };
            let reply = self.gen.decode(&resp);
            let durable = match (reply, durable_seq) {
                (Reply::Written(seq), Some(d)) => seq <= d,
                _ => true,
            };
            if v_seen <= v_send || !durable {
                self.fail.sync_violations += 1;
            } else if self.shadow.judge(&expect, reply) {
                acks.push(lat);
            } else {
                self.flunk(phase, true);
            }
        }
    }

    /// Writes every key once, through the same path as measured traffic
    /// but in the largest windows the rings allow (a request slot is held
    /// for two checkpoints, so half a ring per window), which keeps
    /// set-up short where a checkpoint is expensive.
    pub fn preload(&mut self, rig: &Rig) {
        let reqs = self.gen.preload();
        let per_window = (rig.spec.nslots / 2) as usize;
        let (mut tracer, mut acks) = (Tracer::new(false), Vec::new());
        for w in reqs.chunks(per_window) {
            self.window(rig, &mut tracer, w, Phase::Run, &mut acks);
        }
    }

    /// The measured phase: windows of generated requests until `seconds`
    /// of wall-clock have passed; counters are scoped to the first
    /// `count_windows` windows.
    pub fn measure(
        &mut self,
        rig: &Rig,
        tracer: &mut Tracer,
        seconds: f64,
        count_windows: u64,
    ) -> Measured {
        let per_window = self.shape.rounds * self.shape.per_round;
        let start = Counters::take(rig);
        let t0 = Instant::now();
        let mut stw = StwSums::default();
        let mut ack_ns = Vec::new();
        let mut hash = 0u64;
        let mut windows = 0u64;
        let mut counted = None;
        let mut reqs = Vec::with_capacity(per_window);
        // Where the current slice began: instant and acked count.
        let mut cut = (tracer.now_ns(), 0);
        let mut slice_goodput = Vec::new();
        while t0.elapsed().as_secs_f64() < seconds {
            let g0 = tracer.now_ns();
            reqs.clear();
            reqs.extend((0..per_window).map(|_| self.gen.next()));
            if counted.is_none() {
                hash = reqs.iter().fold(hash, stream_hash);
            }
            tracer.span("client.work", g0, tracer.now_ns(), 0, self.window_id, 0);
            stw.add(&self.window(rig, tracer, &reqs, Phase::Run, &mut ack_ns));
            windows += 1;
            if ack_ns.len() - cut.1 >= SLICE_OPS {
                let now = tracer.now_ns();
                slice_goodput.push((ack_ns.len() - cut.1) as f64 * 1e9 / (now - cut.0) as f64);
                cut = (now, ack_ns.len());
            }
            if windows == count_windows {
                counted = Some((Counters::take(rig).since(&start), ack_ns.len() as u64));
            }
        }
        let seconds = t0.elapsed().as_secs_f64();
        let whole = Counters::take(rig).since(&start);
        let counted_full = counted.is_some();
        let (counted, counted_ops) = counted.unwrap_or((whole.clone(), ack_ns.len() as u64));
        if slice_goodput.is_empty() {
            // A run shorter than one slice.
            slice_goodput.push(ack_ns.len() as f64 / seconds);
        }
        let slice_ack_p50 = slice_medians(&ack_ns);
        ack_ns.sort_unstable();
        Measured {
            ack_ns,
            slice_ack_p50,
            slice_goodput: ascending(slice_goodput),
            late_ns: Vec::new(),
            seconds,
            stw,
            counted,
            counted_ops,
            counted_hash: hash,
            counted_full,
            whole,
            txn_lag: rig.gate.as_ref().map_or(0, |g| {
                g.committed_seq()
                    .unwrap_or(0)
                    .saturating_sub(g.durable_seq())
            }),
        }
    }

    /// One crash drill: half a window is sent and served but never
    /// checkpointed, the plug is pulled, the machine recovers and
    /// re-attaches, and the clock stops at the first fresh acknowledged
    /// response. Consumes the rig and returns the recovered one.
    pub fn drill(&mut self, rig: Rig, tracer: &mut Tracer, generation: u64) -> (Rig, Drill) {
        let id = self.window_id;
        for _ in 0..self.shape.rounds.div_ceil(2) {
            for _ in 0..self.shape.per_round {
                let req = self.gen.next();
                // Sent, possibly applied, never acknowledged.
                self.shadow.sent(&req, false);
                self.attempted += 1;
                if send(&rig.nic, &req).is_none() {
                    self.fail.sheds += 1;
                }
            }
            rig.serve();
        }
        let probe_key = self.gen.next().key;
        let t_crash = tracer.now_ns();
        let (rig, rec) = rig.crash_and_recover(generation);
        tracer.span(
            "core.crash",
            t_crash,
            t_crash + rec.crash.as_nanos() as u64,
            0,
            id,
            0,
        );

        let fresh = [self.gen.read(probe_key)];
        let mut acks = Vec::new();
        self.window(
            &rig,
            &mut Tracer::new(false),
            &fresh,
            Phase::Recovered,
            &mut acks,
        );
        let recover = rec.entered.elapsed();
        let t_acked = tracer.now_ns();
        tracer.span(
            "core.recover",
            t_acked - recover.as_nanos() as u64,
            t_acked,
            0,
            id,
            1,
        );
        // The first checkpoint after a restore publishes an RX
        // acknowledgement of 0 (the NIC's cursor sample was reset), so
        // the ring reads as full until the next checkpoint republishes
        // it. Land that checkpoint now, off the recovery clock, like a
        // driver backing off a full ring.
        rig.checkpoint();
        rig.nic.pump();
        (
            rig,
            Drill {
                crash_ms: rec.crash.as_secs_f64() * 1e3,
                recover_ms: recover.as_secs_f64() * 1e3,
                report: rec.report,
            },
        )
    }

    /// Reads every key ever written and checks it against the shadow
    /// model (last acknowledged write, or a later sent one).
    pub fn verify_all(&mut self, rig: &Rig) {
        let keys: Vec<u32> = self.shadow.written_keys().collect();
        let per_window = self.shape.rounds * self.shape.per_round;
        let (mut tracer, mut acks) = (Tracer::new(false), Vec::new());
        for chunk in keys.chunks(per_window) {
            let reqs: Vec<Req> = chunk.iter().map(|&k| self.gen.read(k)).collect();
            self.window(rig, &mut tracer, &reqs, Phase::Recovered, &mut acks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{KvGen, KvMix};
    use crate::rig::{App, RigSpec};
    use treesls_apps::wire::KvOp;
    use treesls_apps::wire::KvResp;

    const KEYS: u32 = 64;
    const SHAPE: Shape = Shape {
        rounds: 2,
        per_round: 8,
    };

    /// A small real machine with every key written once.
    fn loaded() -> (Rig, Client) {
        let spec = RigSpec {
            app: App::Kv {
                nbuckets: 256,
                val_cap: 32,
            },
            queues: 2,
            nslots: 64,
            slot_size: 128,
            nvm_frames: 8192,
            threaded: false,
        };
        let mix = KvMix {
            keys: KEYS,
            value_len: 32,
            set_permille: 500,
            hot_keys: 0,
            hot_permille: 0,
        };
        let (rig, _) = Rig::boot(spec);
        let mut client = Client::new(Gen::Kv(KvGen::new(9, mix)), KEYS, SHAPE);
        client.preload(&rig);
        assert_eq!(client.fail.total(), 0);
        (rig, client)
    }

    fn off() -> Tracer {
        Tracer::new(false)
    }

    #[test]
    fn an_untampered_run_and_crash_drill_are_clean() {
        let (rig, mut client) = loaded();
        let m = client.measure(&rig, &mut off(), 0.2, 10);
        assert!(m.counted_full && m.counted_ops == 10 * 16);
        assert!(m.acked() > m.counted_ops && m.acked() % 16 == 0);
        let (rig, drill) = client.drill(rig, &mut off(), 1);
        assert!(drill.recover_ms > 0.0 && drill.report.pages > 0);
        client.verify_all(&rig);
        assert_eq!(client.fail.total(), 0, "{:?}", client.fail);
        assert_eq!(
            client.attempted,
            KEYS as u64 + m.acked() + 8 + 1 + KEYS as u64
        );
    }

    #[test]
    fn a_stale_get_injected_into_the_drivers_copy_is_flagged() {
        let (rig, mut client) = loaded();
        // Key 3 is overwritten, then read: the GET must see the new value.
        let Gen::Kv(g) = &mut client.gen else {
            unreachable!()
        };
        let old = g.set(3);
        let new = g.set(3);
        let mut acks = Vec::new();
        client.window(
            &rig,
            &mut off(),
            std::slice::from_ref(&old),
            Phase::Run,
            &mut acks,
        );
        let reqs = [new, KvGen::get(3)];
        let (_, v_send) = client.drive(&rig, &mut off(), &reqs, Phase::Run);
        // The system answered correctly; corrupt only our copy.
        let KvOp::Set { value: stale, .. } = KvOp::decode(&old.payload).unwrap() else {
            panic!()
        };
        client.sent[1].resp = Some(KvResp::Ok(Some(stale)).encode());
        client.judge(&rig, Phase::Run, v_send, &mut acks);
        assert_eq!(client.fail.wrong, 1, "{:?}", client.fail);
        assert_eq!(client.fail.total(), 1);
        assert_eq!(
            acks.len(),
            2,
            "the two writes were acknowledged, the stale read was not"
        );
    }

    #[test]
    fn an_acked_key_injected_as_missing_after_recovery_is_a_lost_ack() {
        let (rig, mut client) = loaded();
        let (rig, _) = client.drill(rig, &mut off(), 1);
        let reqs = [KvGen::get(5), KvGen::get(6)];
        let (_, v_send) = client.drive(&rig, &mut off(), &reqs, Phase::Recovered);
        client.sent[0].resp = Some(KvResp::Miss.encode());
        client.sent[1].resp = None; // a response that never arrived
        client.judge(&rig, Phase::Recovered, v_send, &mut Vec::new());
        assert_eq!(client.fail.lost_acks, 2, "{:?}", client.fail);
        assert_eq!(client.fail.total(), 2);
    }
}
