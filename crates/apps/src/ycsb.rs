//! YCSB-style transactional workload driver.
//!
//! Extends the plain KV YCSB generator ([`crate::workload`]) to the full
//! A–F mix set over the `treesls-txn` wire protocol, with the pieces the
//! transactional evaluation needs:
//!
//! * **A–F mixes** — A (50/50 read/update), B (95/5), C (read-only),
//!   D (read-latest + inserts), E (range scans + inserts, alternating
//!   primary-order and secondary-index-order), F (read-modify-write as
//!   real two-frame transactions);
//! * **choosers** — zipfian (Gray et al., the YCSB default), uniform,
//!   and latest (for D), all seeded and deterministic;
//! * **working-set churn** — the accessed window rotates across the key
//!   space every `churn_every` operations, so checkpoint deltas never
//!   settle into a fixed dirty set;
//! * **multi-tenant open-loop plans** — each tenant precomputes a
//!   deterministic frame sequence indexed by arrival number, so an
//!   open-loop generator can fire frame *i* at its scheduled instant
//!   without ever waiting on a response. Interactive
//!   RMW transactions work open-loop because transaction ids are
//!   client-chosen: arrival *i* carries `BeginRead{txn}` and arrival
//!   `i + rmw_gap` carries the paired `WriteCommit{txn}` — if the first
//!   frame's working set died (crash) the second gets `UnknownTxn` and
//!   the tenant counts a retry, never a wrong answer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treesls_txn::wire::TxnOp;
use treesls_txn::KEY_LEN;

use crate::wire::numeric_key;
use crate::workload::Zipfian;

/// The six standard YCSB core workloads, transactional edition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMix {
    /// 50 % read / 50 % update.
    A,
    /// 95 % read / 5 % update.
    B,
    /// 100 % read.
    C,
    /// 95 % read-latest / 5 % insert.
    D,
    /// 95 % range scan / 5 % insert.
    E,
    /// 50 % read / 50 % read-modify-write (two-frame transactions).
    F,
}

/// Key-chooser distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Zipfian with the standard YCSB theta (0.99).
    Zipfian,
    /// Uniform over the window.
    Uniform,
}

/// A seeded key chooser over `[0, n)`.
#[derive(Debug)]
pub enum Chooser {
    /// Zipfian (0 is hottest).
    Zipfian(Zipfian),
    /// Uniform.
    Uniform(u64),
    /// Latest: zipfian distance back from the most recent insert — drives
    /// workload D's read-latest behaviour.
    Latest(Zipfian),
}

impl Chooser {
    /// Builds a chooser of the given skew over `[0, n)`.
    pub fn new(skew: Skew, n: u64) -> Chooser {
        match skew {
            Skew::Zipfian => Chooser::Zipfian(Zipfian::new(n.max(1))),
            Skew::Uniform => Chooser::Uniform(n.max(1)),
        }
    }

    /// Builds the read-latest chooser over a window of `n` recent keys.
    pub fn latest(n: u64) -> Chooser {
        Chooser::Latest(Zipfian::new(n.max(1)))
    }

    /// Draws a key id. `highest` is the most recently inserted id (only
    /// the latest chooser uses it).
    pub fn next(&self, rng: &mut StdRng, highest: u64) -> u64 {
        match self {
            Chooser::Zipfian(z) => z.next(rng),
            Chooser::Uniform(n) => rng.gen_range(0..*n),
            Chooser::Latest(z) => highest.saturating_sub(z.next(rng)),
        }
    }
}

/// Shape of one transactional YCSB run.
#[derive(Debug, Clone)]
pub struct YcsbTxnConfig {
    /// Which workload mix to draw.
    pub mix: TxnMix,
    /// Pre-loaded records.
    pub records: u64,
    /// Value bytes per record (≤ [`treesls_txn::VAL_CAP`]).
    pub value_len: usize,
    /// Request-distribution skew.
    pub skew: Skew,
    /// Independent tenants (one open-loop generator each).
    pub tenants: usize,
    /// Size of the rotating working-set window (0 = whole key space).
    pub churn_window: u64,
    /// Operations between window rotations (0 = never rotate).
    pub churn_every: u64,
    /// Arrivals between the two frames of an interactive RMW transaction.
    pub rmw_gap: u64,
    /// Maximum records per scan (workload E).
    pub scan_limit: u16,
    /// Base seed; tenant `t` derives its stream from `seed ^ t`.
    pub seed: u64,
}

impl Default for YcsbTxnConfig {
    fn default() -> Self {
        YcsbTxnConfig {
            mix: TxnMix::A,
            records: 4096,
            value_len: 32,
            skew: Skew::Zipfian,
            tenants: 2,
            churn_window: 1024,
            churn_every: 512,
            rmw_gap: 4,
            scan_limit: 32,
            seed: 1,
        }
    }
}

/// Secondary-index tag groups: each record's tag is its key id modulo
/// this, shifted by one so tag 0 (= unindexed) is never produced.
pub const TAG_GROUPS: u64 = 64;

/// The index tag assigned to `key_id` (deterministic, so the serial-replay
/// oracle can recompute it).
pub fn tag_for(key_id: u64) -> [u8; KEY_LEN] {
    numeric_key(1 + key_id % TAG_GROUPS)
}

/// The deterministic value written for `key_id` by its `version`-th
/// update.
pub fn value_for(key_id: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let seed = key_id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(version);
    for (i, b) in v.iter_mut().enumerate() {
        *b = (seed >> (8 * (i % 8))) as u8;
    }
    v
}

/// One planned request frame: the flow label (for NIC steering) and the
/// encoded wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFrame {
    /// Flow label handed to the NIC (tenant id — transactions are
    /// single-shard, so deployments serve them on one queue).
    pub flow: u64,
    /// Encoded [`TxnOp`] frame.
    pub payload: Vec<u8>,
    /// The decoded op, kept for oracles and accounting.
    pub op: TxnOp,
}

/// A precomputed deterministic frame sequence for one tenant.
///
/// Built once before the run; the open-loop `make_op(tenant, i)` closure
/// just indexes it (wrapping), so frame generation is pure and replayable.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    frames: Vec<PlannedFrame>,
}

impl TenantPlan {
    /// The frame fired at arrival `i` (wraps past the plan's end).
    pub fn frame(&self, i: u64) -> &PlannedFrame {
        &self.frames[(i % self.frames.len() as u64) as usize]
    }

    /// Number of distinct planned frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the plan holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// All frames, in arrival order.
    pub fn frames(&self) -> &[PlannedFrame] {
        &self.frames
    }
}

/// Builds the load phase: auto-commit upserts (txn id 0) covering every
/// record with its deterministic tag and version-0 value.
pub fn load_frames(cfg: &YcsbTxnConfig) -> Vec<PlannedFrame> {
    (0..cfg.records)
        .map(|id| {
            let op = TxnOp::Write {
                txn: 0,
                key: numeric_key(id),
                tag: tag_for(id),
                val: Some(value_for(id, 0, cfg.value_len)),
            };
            PlannedFrame { flow: 0, payload: op.encode(), op }
        })
        .collect()
}

/// Builds tenant `tenant`'s deterministic plan of `n` run-phase frames.
///
/// Same `(cfg, tenant, n)` → byte-identical plan. Interactive RMW
/// transactions (workload F) appear as a `BeginRead` at one slot and the
/// paired `WriteCommit` exactly `cfg.rmw_gap` slots later; the slots in
/// between carry other operations, so several transactions from the same
/// tenant overlap in flight — that overlap (plus cross-tenant conflicts
/// on skewed keys) is what produces real aborts.
pub fn plan_tenant(cfg: &YcsbTxnConfig, tenant: usize, n: u64) -> TenantPlan {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (tenant as u64).wrapping_mul(0xA5A5_A5A5));
    let window = if cfg.churn_window == 0 { cfg.records } else { cfg.churn_window.min(cfg.records) };
    let chooser = match cfg.mix {
        TxnMix::D => Chooser::latest(window),
        _ => Chooser::new(cfg.skew, window),
    };
    // Fresh inserts (D and E) go above the loaded range, partitioned per
    // tenant so tenants never collide on insert keys.
    let mut next_insert = cfg.records + tenant as u64 * (1 << 32);
    let mut txn_counter: u64 = 0;
    let txn_id = |tenant: usize, c: u64| ((tenant as u64 + 1) << 48) | c;
    // RMW second frames scheduled for future slots.
    let mut scheduled: std::collections::BTreeMap<u64, TxnOp> = std::collections::BTreeMap::new();
    let mut frames = Vec::with_capacity(n as usize);
    for slot in 0..n {
        let op = if let Some(op) = scheduled.remove(&slot) {
            op
        } else {
            // Working-set churn: the window slides across the key space.
            // Advance by a whole window per rotation so consecutive
            // working sets are (nearly) disjoint until wrap-around.
            let rotation =
                slot.checked_div(cfg.churn_every).unwrap_or(0).wrapping_mul(window);
            let base = rotation % cfg.records.max(1);
            let highest = next_insert.saturating_sub(1);
            let pick = |rng: &mut StdRng| {
                let raw = chooser.next(rng, highest);
                if matches!(cfg.mix, TxnMix::D) && raw >= cfg.records {
                    // Read-latest over this tenant's own inserts.
                    raw
                } else {
                    (base + raw % window) % cfg.records.max(1)
                }
            };
            let roll: f64 = rng.gen();
            match cfg.mix {
                TxnMix::C => TxnOp::Read { txn: 0, key: numeric_key(pick(&mut rng)) },
                TxnMix::A | TxnMix::B => {
                    let read_frac = if cfg.mix == TxnMix::A { 0.5 } else { 0.95 };
                    let id = pick(&mut rng);
                    if roll < read_frac {
                        TxnOp::Read { txn: 0, key: numeric_key(id) }
                    } else {
                        TxnOp::Write {
                            txn: 0,
                            key: numeric_key(id),
                            tag: tag_for(id),
                            val: Some(value_for(id, slot + 1, cfg.value_len)),
                        }
                    }
                }
                TxnMix::D => {
                    if roll < 0.95 {
                        TxnOp::Read { txn: 0, key: numeric_key(pick(&mut rng)) }
                    } else {
                        let id = next_insert;
                        next_insert += 1;
                        TxnOp::Write {
                            txn: 0,
                            key: numeric_key(id),
                            tag: tag_for(id),
                            val: Some(value_for(id, 0, cfg.value_len)),
                        }
                    }
                }
                TxnMix::E => {
                    if roll < 0.95 {
                        let id = pick(&mut rng);
                        if slot % 2 == 0 {
                            // Primary-order range scan from the chosen key.
                            TxnOp::Scan {
                                txn: 0,
                                space: 0,
                                lo: numeric_key(id),
                                hi: numeric_key(id + cfg.scan_limit as u64 * 2),
                                limit: cfg.scan_limit,
                            }
                        } else {
                            // Secondary-order scan: one index tag's members.
                            let tag = tag_for(id);
                            TxnOp::Scan { txn: 0, space: 1, lo: tag, hi: tag, limit: cfg.scan_limit }
                        }
                    } else {
                        let id = next_insert;
                        next_insert += 1;
                        TxnOp::Write {
                            txn: 0,
                            key: numeric_key(id),
                            tag: tag_for(id),
                            val: Some(value_for(id, 0, cfg.value_len)),
                        }
                    }
                }
                TxnMix::F => {
                    let id = pick(&mut rng);
                    if roll < 0.5 {
                        TxnOp::Read { txn: 0, key: numeric_key(id) }
                    } else {
                        // Two-frame interactive RMW: BeginRead now, the
                        // paired WriteCommit `rmw_gap` arrivals later.
                        let t = txn_id(tenant, txn_counter);
                        txn_counter += 1;
                        let commit_slot = slot + cfg.rmw_gap.max(1);
                        scheduled.insert(
                            commit_slot,
                            TxnOp::WriteCommit {
                                txn: t,
                                key: numeric_key(id),
                                tag: tag_for(id),
                                val: Some(value_for(id, slot + 1, cfg.value_len)),
                            },
                        );
                        TxnOp::BeginRead { txn: t, flags: 0, key: numeric_key(id) }
                    }
                }
            }
        };
        frames.push(PlannedFrame { flow: tenant as u64, payload: op.encode(), op });
    }
    // Any RMW commits scheduled past the horizon still fire, appended in
    // slot order, so no transaction is left dangling.
    for (_, op) in scheduled {
        frames.push(PlannedFrame { flow: tenant as u64, payload: op.encode(), op });
    }
    TenantPlan { frames }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn plans_replay_identically_from_the_same_seed() {
        let cfg = YcsbTxnConfig { mix: TxnMix::F, ..Default::default() };
        let a = plan_tenant(&cfg, 0, 2000);
        let b = plan_tenant(&cfg, 0, 2000);
        assert_eq!(a.frames(), b.frames(), "same seed must replay identically");
        let c = plan_tenant(&cfg, 1, 2000);
        assert_ne!(a.frames(), c.frames(), "tenants must diverge");
        let d = plan_tenant(&YcsbTxnConfig { seed: 2, ..cfg }, 0, 2000);
        assert_ne!(a.frames(), d.frames(), "seeds must diverge");
    }

    #[test]
    fn zipfian_chooser_concentrates_mass_on_the_head() {
        let chooser = Chooser::new(Skew::Zipfian, 10_000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(chooser.next(&mut rng, 0)).or_insert(0) += 1;
        }
        // Top 1 % of keys should draw far more than 1 % of accesses at
        // theta 0.99 (empirically ~60 %+); uniform stays near 1 %.
        let head: u64 = (0..100).map(|i| counts.get(&i).copied().unwrap_or(0)).sum();
        assert!(head > 15_000, "zipfian head mass {head} of 50000");
        let uni = Chooser::new(Skew::Uniform, 10_000);
        let mut ucounts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..50_000 {
            *ucounts.entry(uni.next(&mut rng, 0)).or_insert(0) += 1;
        }
        let uhead: u64 = (0..100).map(|i| ucounts.get(&i).copied().unwrap_or(0)).sum();
        assert!(uhead < 1500, "uniform head mass {uhead} of 50000");
    }

    #[test]
    fn latest_chooser_tracks_the_insert_frontier() {
        let chooser = Chooser::latest(100);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = chooser.next(&mut rng, 5000);
            assert!(v <= 5000, "latest draw {v} beyond frontier");
            // Mass concentrates near the frontier.
        }
        let near: usize = (0..1000)
            .filter(|_| 5000 - chooser.next(&mut rng, 5000) < 10)
            .count();
        assert!(near > 500, "only {near}/1000 draws near the frontier");
    }

    #[test]
    fn churn_rotates_the_hot_set() {
        let cfg = YcsbTxnConfig {
            mix: TxnMix::A,
            records: 10_000,
            churn_window: 100,
            churn_every: 500,
            skew: Skew::Uniform,
            ..Default::default()
        };
        let plan = plan_tenant(&cfg, 0, 1000);
        let keys_of = |range: std::ops::Range<usize>| -> std::collections::HashSet<[u8; KEY_LEN]> {
            plan.frames()[range]
                .iter()
                .filter_map(|f| match &f.op {
                    TxnOp::Read { key, .. } | TxnOp::Write { key, .. } => Some(*key),
                    _ => None,
                })
                .collect()
        };
        let first = keys_of(0..500);
        let second = keys_of(500..1000);
        let overlap = first.intersection(&second).count();
        assert!(
            overlap * 4 < first.len().min(second.len()),
            "windows barely rotated: {overlap} shared of {}",
            first.len()
        );
    }

    #[test]
    fn rmw_transactions_pair_exactly_and_in_order() {
        let cfg = YcsbTxnConfig { mix: TxnMix::F, rmw_gap: 4, ..Default::default() };
        let plan = plan_tenant(&cfg, 3, 3000);
        let mut begins: HashMap<u64, usize> = HashMap::new();
        let mut commits: HashMap<u64, usize> = HashMap::new();
        for (i, f) in plan.frames().iter().enumerate() {
            match &f.op {
                TxnOp::BeginRead { txn, .. } => {
                    assert!(begins.insert(*txn, i).is_none(), "duplicate begin {txn}");
                }
                TxnOp::WriteCommit { txn, .. } => {
                    assert!(commits.insert(*txn, i).is_none(), "duplicate commit {txn}");
                }
                TxnOp::Read { txn: 0, .. } => {}
                other => panic!("unexpected op in F mix: {other:?}"),
            }
        }
        assert!(!begins.is_empty(), "no RMW transactions drawn");
        assert_eq!(begins.len(), commits.len(), "every begin needs its commit");
        for (txn, b) in &begins {
            let c = commits[txn];
            assert!(c > *b, "commit of {txn} precedes its begin");
        }
        // Txn ids carry the tenant in the high bits.
        assert!(begins.keys().all(|t| t >> 48 == 4));
    }

    #[test]
    fn mix_fractions_are_roughly_honoured() {
        let cfg = YcsbTxnConfig { mix: TxnMix::B, records: 1000, ..Default::default() };
        let plan = plan_tenant(&cfg, 0, 10_000);
        let reads = plan
            .frames()
            .iter()
            .filter(|f| matches!(f.op, TxnOp::Read { .. }))
            .count();
        let frac = reads as f64 / plan.len() as f64;
        assert!((frac - 0.95).abs() < 0.02, "B read fraction {frac}");

        let e = plan_tenant(
            &YcsbTxnConfig { mix: TxnMix::E, records: 1000, ..Default::default() },
            0,
            10_000,
        );
        let prim = e.frames().iter().filter(|f| matches!(f.op, TxnOp::Scan { space: 0, .. })).count();
        let sec = e.frames().iter().filter(|f| matches!(f.op, TxnOp::Scan { space: 1, .. })).count();
        assert!(prim > 3000 && sec > 3000, "E must scan both orders: {prim}/{sec}");
    }

    #[test]
    fn load_frames_cover_every_record_with_tags() {
        let cfg = YcsbTxnConfig { records: 64, ..Default::default() };
        let load = load_frames(&cfg);
        assert_eq!(load.len(), 64);
        for (i, f) in load.iter().enumerate() {
            match &f.op {
                TxnOp::Write { txn: 0, key, tag, val: Some(v) } => {
                    assert_eq!(*key, numeric_key(i as u64));
                    assert_eq!(*tag, tag_for(i as u64));
                    assert_eq!(*v, value_for(i as u64, 0, cfg.value_len));
                    assert_ne!(*tag, [0u8; KEY_LEN], "tag 0 means unindexed");
                }
                other => panic!("unexpected load op {other:?}"),
            }
        }
    }
}
