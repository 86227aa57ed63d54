//! Workload generators: YCSB core workloads and a Facebook-style
//! `Prefix_dist` key distribution.
//!
//! These drive the Figure 13 (YCSB on Redis) and Figure 14 (RocksDB with
//! Facebook's Prefix_dist) experiments. The YCSB generator follows the
//! original benchmark's structure: a zipfian request distribution over
//! loaded records, a latest-distribution for insert-heavy mixes, and the
//! standard A/B/C mixes plus the paper's 100 % update and 100 % insert
//! configurations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::wire::{numeric_key, KvOp};

/// A zipfian integer generator over `[0, n)` (Gray et al. method, as used
/// by YCSB).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Standard YCSB constant.
    pub const THETA: f64 = 0.99;

    /// Creates a generator over `[0, n)`.
    pub fn new(n: u64) -> Self {
        let theta = Self::THETA;
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; sampled approximation for large n keeps
        // generator construction O(1)-ish without changing the shape.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // Integral approximation of the tail.
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Draws a zipfian-distributed value in `[0, n)` (0 is the hottest).
    pub fn next(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// The population size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// The YCSB workload mixes evaluated in Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// Workload A: 50 % read / 50 % update.
    A,
    /// Workload B: 95 % read / 5 % update.
    B,
    /// Workload C: 100 % read.
    C,
    /// 100 % update (paper's write-intensive configuration).
    Update100,
    /// 100 % insert.
    Insert100,
}

impl YcsbMix {
    /// All mixes in Figure 13 order.
    pub const ALL: [YcsbMix; 5] =
        [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::Update100, YcsbMix::Insert100];

    /// Display label matching the paper's x-axis.
    pub fn label(self) -> &'static str {
        match self {
            YcsbMix::A => "Workload A",
            YcsbMix::B => "Workload B",
            YcsbMix::C => "Workload C",
            YcsbMix::Update100 => "100% Update",
            YcsbMix::Insert100 => "100% Insert",
        }
    }

    /// Read fraction of the mix.
    pub fn read_fraction(self) -> f64 {
        match self {
            YcsbMix::A => 0.5,
            YcsbMix::B => 0.95,
            YcsbMix::C => 1.0,
            YcsbMix::Update100 | YcsbMix::Insert100 => 0.0,
        }
    }
}

/// A YCSB operation stream.
#[derive(Debug)]
pub struct YcsbGen {
    mix: YcsbMix,
    zipf: Zipfian,
    rng: StdRng,
    loaded: u64,
    next_insert: u64,
    value_len: usize,
}

impl YcsbGen {
    /// Creates a generator over `loaded` pre-loaded records with
    /// `value_len`-byte values.
    pub fn new(mix: YcsbMix, loaded: u64, value_len: usize, seed: u64) -> Self {
        Self {
            mix,
            zipf: Zipfian::new(loaded.max(1)),
            rng: StdRng::seed_from_u64(seed),
            loaded,
            next_insert: loaded,
            value_len,
        }
    }

    /// The operations that pre-load the store.
    pub fn load_ops(&mut self) -> Vec<KvOp> {
        (0..self.loaded)
            .map(|i| KvOp::Set { key: numeric_key(i), value: self.value(i) })
            .collect()
    }

    fn value(&self, seed: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.value_len];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (seed as u8).wrapping_add(i as u8);
        }
        v
    }

    /// Draws the next operation of the run phase.
    pub fn next_op(&mut self) -> KvOp {
        match self.mix {
            YcsbMix::Insert100 => {
                let id = self.next_insert;
                self.next_insert += 1;
                KvOp::Set { key: numeric_key(id), value: self.value(id) }
            }
            mix => {
                let id = self.zipf.next(&mut self.rng);
                if self.rng.gen::<f64>() < mix.read_fraction() {
                    KvOp::Get { key: numeric_key(id) }
                } else {
                    KvOp::Set { key: numeric_key(id), value: self.value(id) }
                }
            }
        }
    }
}

/// Facebook-style `Prefix_dist` key generator (Cao et al., FAST'20): keys
/// share a small set of hot prefixes, accesses are write-heavy and skewed
/// toward hot prefixes with a long random tail.
#[derive(Debug)]
pub struct PrefixDist {
    rng: StdRng,
    hot_prefixes: u64,
    cold_prefixes: u64,
    keys_per_prefix: u64,
    get_fraction: f64,
    zipf: Zipfian,
}

impl PrefixDist {
    /// Creates a generator approximating the paper's Prefix_dist workload:
    /// write-heavy (the paper notes "RocksDB is write-intensive" under
    /// this trace), skewed across prefixes.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            hot_prefixes: 32,
            cold_prefixes: 4096,
            keys_per_prefix: 4096,
            get_fraction: 0.20,
            zipf: Zipfian::new(32),
        }
    }

    /// Draws the next `(key, is_get)` pair; keys are `u64` with the prefix
    /// in the high bits.
    pub fn next_op(&mut self) -> (u64, bool) {
        let hot = self.rng.gen::<f64>() < 0.8;
        let prefix = if hot {
            self.zipf.next(&mut self.rng)
        } else {
            self.hot_prefixes + self.rng.gen_range(0..self.cold_prefixes)
        };
        let sub = self.rng.gen_range(0..self.keys_per_prefix);
        let key = (prefix << 32) | sub;
        let is_get = self.rng.gen::<f64>() < self.get_fraction;
        (key, is_get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = HashMap::new();
        for _ in 0..50_000 {
            let v = z.next(&mut rng);
            assert!(v < 1000);
            *counts.entry(v).or_insert(0u64) += 1;
        }
        // Head items dominate the tail.
        let head: u64 = (0..10).map(|i| counts.get(&i).copied().unwrap_or(0)).sum();
        let tail: u64 = (500..510).map(|i| counts.get(&i).copied().unwrap_or(0)).sum();
        assert!(head > tail * 10, "head={head} tail={tail}");
    }

    #[test]
    fn zipfian_large_population() {
        let z = Zipfian::new(10_000_000);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.next(&mut rng) < 10_000_000);
        }
    }

    #[test]
    fn ycsb_mix_fractions() {
        let mut gen = YcsbGen::new(YcsbMix::B, 1000, 100, 42);
        let mut reads = 0;
        for _ in 0..10_000 {
            if matches!(gen.next_op(), KvOp::Get { .. }) {
                reads += 1;
            }
        }
        let frac = reads as f64 / 10_000.0;
        assert!((frac - 0.95).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn ycsb_c_is_read_only_and_insert_is_fresh_keys() {
        let mut c = YcsbGen::new(YcsbMix::C, 100, 10, 1);
        for _ in 0..1000 {
            assert!(matches!(c.next_op(), KvOp::Get { .. }));
        }
        let mut ins = YcsbGen::new(YcsbMix::Insert100, 100, 10, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            match ins.next_op() {
                KvOp::Set { key, .. } => assert!(seen.insert(key), "duplicate insert key"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn load_ops_cover_all_records() {
        let mut gen = YcsbGen::new(YcsbMix::A, 50, 8, 3);
        let ops = gen.load_ops();
        assert_eq!(ops.len(), 50);
        assert!(ops.iter().all(|o| o.is_write()));
    }

    #[test]
    fn prefix_dist_shape() {
        let mut p = PrefixDist::new(9);
        let mut hot = 0;
        let mut gets = 0;
        for _ in 0..10_000 {
            let (key, is_get) = p.next_op();
            if (key >> 32) < 32 {
                hot += 1;
            }
            if is_get {
                gets += 1;
            }
        }
        assert!(hot > 7000, "hot prefix share {hot}");
        let gf = gets as f64 / 10_000.0;
        assert!((gf - 0.2).abs() < 0.03, "get fraction {gf}");
    }
}
