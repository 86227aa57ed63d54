//! Seeded request generators.
//!
//! A generator is a function of its seed alone: it never sees a response
//! or a clock, and the system under test sees only the requests it
//! emits. The same seed therefore replays the same byte stream
//! ([`stream_hash`] proves it in the unit tests and is printed with
//! every run).

use treesls::net::key_flow;
use treesls_apps::wire::{numeric_key, KvOp, KvResp};
use treesls_apps::ycsb::{self, Skew, TenantPlan, TxnMix, YcsbTxnConfig};
use treesls_txn::{TxnOp, TxnResp};

/// SplitMix64: a tiny seeded PRNG whose whole state is one word.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform draw in `[0, n)` (`n > 0`); the modulo bias is below 2⁻³²
    /// for every `n` used here.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64-bit fingerprint of a byte string, never 0 (0 means "no value" in
/// the shadow model). Eight bytes per multiply, so fingerprinting a
/// 512-byte value costs well under a microsecond.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
    }
    mix64(h) | 1
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Dense key index in `[0, keys)`.
    pub key: u32,
    /// NIC flow label (steers the request to the shard owning the key).
    pub flow: u64,
    /// Encoded wire frame.
    pub payload: Vec<u8>,
    /// Fingerprint of the value a write stores; `None` for a read.
    pub write: Option<u64>,
}

/// Folds a request stream into one hash: equal streams, equal hashes.
pub fn stream_hash(h: u64, req: &Req) -> u64 {
    mix64(h ^ fingerprint(&req.payload) ^ req.flow.rotate_left(17))
}

/// What a response means, independent of the protocol that carried it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// A read hit; the fingerprint of the returned value.
    Value(u64),
    /// A read miss.
    Miss,
    /// A write acknowledged as applied; the commit sequence when the
    /// protocol has one, else 0.
    Written(u64),
    /// An error status, a conflict abort or an undecodable frame.
    Other,
}

/// Shape of a key-value request mix.
#[derive(Debug, Clone, Copy)]
pub struct KvMix {
    pub keys: u32,
    pub value_len: usize,
    /// SETs per thousand requests (the rest are GETs).
    pub set_permille: u32,
    /// Size of the hot key set (keys `0..hot_keys`); 0 = no hot set.
    pub hot_keys: u32,
    /// Requests per thousand that draw from the hot set.
    pub hot_permille: u32,
}

/// Key-value request generator over the `treesls-apps` KV wire format.
#[derive(Debug, Clone)]
pub struct KvGen {
    rng: SplitMix64,
    mix: KvMix,
    /// Per-key count of SETs generated, so every value written to a key
    /// is distinct and a stale read is detectable.
    versions: Vec<u32>,
}

impl KvGen {
    pub fn new(seed: u64, mix: KvMix) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            mix,
            versions: vec![0; mix.keys as usize],
        }
    }

    fn req(key: u32, op: KvOp, write: Option<u64>) -> Req {
        let flow = match &op {
            KvOp::Get { key } | KvOp::Set { key, .. } | KvOp::Del { key } => key_flow(key),
        };
        Req {
            key,
            flow,
            payload: op.encode(),
            write,
        }
    }

    pub fn set(&mut self, key: u32) -> Req {
        let v = &mut self.versions[key as usize];
        *v += 1;
        let mut value = vec![0u8; self.mix.value_len];
        let mut word = SplitMix64::new((key as u64) << 32 | *v as u64);
        for chunk in value.chunks_mut(8) {
            let w = word.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        let fp = fingerprint(&value);
        Self::req(
            key,
            KvOp::Set {
                key: numeric_key(key as u64),
                value,
            },
            Some(fp),
        )
    }

    pub fn get(key: u32) -> Req {
        Self::req(
            key,
            KvOp::Get {
                key: numeric_key(key as u64),
            },
            None,
        )
    }

    pub fn next(&mut self) -> Req {
        let key = if self.mix.hot_keys > 0 && self.rng.below(1000) < self.mix.hot_permille {
            self.rng.below(self.mix.hot_keys)
        } else {
            self.rng.below(self.mix.keys)
        };
        if self.rng.below(1000) < self.mix.set_permille {
            self.set(key)
        } else {
            Self::get(key)
        }
    }
}

/// Frames planned per call to `ycsb::plan_tenant`; the plan is extended
/// chunk by chunk so a run of any length is a prefix of the same stream.
const TXN_CHUNK: u64 = 16_384;

/// YCSB-A transactional request generator: `ycsb::plan_tenant` frames
/// (auto-commit reads and tagged upserts) over the `treesls-txn` wire.
#[derive(Debug)]
pub struct TxnGen {
    cfg: YcsbTxnConfig,
    chunk: u64,
    plan: TenantPlan,
    at: u64,
}

impl TxnGen {
    pub fn new(seed: u64, records: u32, value_len: usize) -> Self {
        let cfg = YcsbTxnConfig {
            mix: TxnMix::A,
            records: records as u64,
            value_len,
            skew: Skew::Zipfian,
            tenants: 1,
            churn_window: 0,
            churn_every: 0,
            seed,
            ..Default::default()
        };
        let plan = Self::plan_chunk(&cfg, 0);
        Self {
            cfg,
            chunk: 0,
            plan,
            at: 0,
        }
    }

    /// Chunk `c` of seed `s` is planned under `mix64(s ^ c << 32)`, so the
    /// streams of neighbouring seeds share no chunk.
    fn plan_chunk(cfg: &YcsbTxnConfig, chunk: u64) -> TenantPlan {
        let cfg = YcsbTxnConfig {
            seed: mix64(cfg.seed ^ (chunk << 32)),
            ..cfg.clone()
        };
        ycsb::plan_tenant(&cfg, 0, TXN_CHUNK)
    }

    fn key_index(key: &[u8; treesls_txn::KEY_LEN]) -> u32 {
        u64::from_le_bytes(key[4..12].try_into().expect("8-byte id")) as u32
    }

    fn req(op: &TxnOp, payload: Vec<u8>) -> Req {
        let (key, write) = match op {
            TxnOp::Read { key, .. } => (Self::key_index(key), None),
            TxnOp::Write {
                key, val: Some(v), ..
            } => (Self::key_index(key), Some(fingerprint(v))),
            other => panic!("mix A plans only auto-commit reads and upserts, got {other:?}"),
        };
        // Transactions are single-shard: one queue, one flow.
        Req {
            key,
            flow: 0,
            payload,
            write,
        }
    }

    /// The load phase: one tagged upsert per record.
    pub fn preload(&self) -> Vec<Req> {
        ycsb::load_frames(&self.cfg)
            .into_iter()
            .map(|f| Self::req(&f.op, f.payload))
            .collect()
    }

    pub fn get(key: u32) -> Req {
        let op = TxnOp::Read {
            txn: 0,
            key: numeric_key(key as u64),
        };
        Self::req(&op, op.encode())
    }

    pub fn next(&mut self) -> Req {
        if self.at == TXN_CHUNK {
            self.chunk += 1;
            self.at = 0;
            self.plan = Self::plan_chunk(&self.cfg, self.chunk);
        }
        let mut op = self.plan.frame(self.at).op.clone();
        // The planner versions a value by its slot in the plan, which
        // restarts in every chunk; version it by its slot in the stream,
        // so every value written to a key is distinct.
        if let TxnOp::Write {
            key, val: Some(v), ..
        } = &mut op
        {
            let slot = self.chunk * TXN_CHUNK + self.at;
            *v = ycsb::value_for(Self::key_index(key) as u64, slot + 1, v.len());
        }
        self.at += 1;
        let payload = op.encode();
        Self::req(&op, payload)
    }
}

/// Either generator, so the drivers are written once.
#[derive(Debug)]
pub enum Gen {
    Kv(KvGen),
    Txn(TxnGen),
}

impl Gen {
    pub fn next(&mut self) -> Req {
        match self {
            Gen::Kv(g) => g.next(),
            Gen::Txn(g) => g.next(),
        }
    }

    /// One write per key, in key order: the preload.
    pub fn preload(&mut self) -> Vec<Req> {
        match self {
            Gen::Kv(g) => (0..g.mix.keys).map(|k| g.set(k)).collect(),
            Gen::Txn(g) => g.preload(),
        }
    }

    /// A read of `key` (used by the post-recovery check).
    pub fn read(&self, key: u32) -> Req {
        match self {
            Gen::Kv(_) => KvGen::get(key),
            Gen::Txn(_) => TxnGen::get(key),
        }
    }

    pub fn decode(&self, resp: &[u8]) -> Reply {
        match self {
            Gen::Kv(_) => match KvResp::decode(resp) {
                Some(KvResp::Ok(Some(v))) => Reply::Value(fingerprint(&v)),
                Some(KvResp::Ok(None)) => Reply::Written(0),
                Some(KvResp::Miss) => Reply::Miss,
                _ => Reply::Other,
            },
            Gen::Txn(_) => match TxnResp::decode(resp) {
                Some(TxnResp::Value { val }) => Reply::Value(fingerprint(&val)),
                Some(TxnResp::Ok { seq }) => Reply::Written(seq),
                Some(TxnResp::Miss) => Reply::Miss,
                _ => Reply::Other,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: KvMix = KvMix {
        keys: 1000,
        value_len: 64,
        set_permille: 300,
        hot_keys: 16,
        hot_permille: 500,
    };

    fn hash_of(mut g: Gen, n: usize) -> u64 {
        (0..n).fold(0, |h, _| stream_hash(h, &g.next()))
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        let kv = |seed| Gen::Kv(KvGen::new(seed, MIX));
        assert_eq!(hash_of(kv(7), 5000), hash_of(kv(7), 5000));
        assert_ne!(hash_of(kv(7), 5000), hash_of(kv(8), 5000));
        // Long enough to cross a plan-chunk boundary.
        let txn = |seed| Gen::Txn(TxnGen::new(seed, 256, 32));
        let n = TXN_CHUNK as usize + 100;
        assert_eq!(hash_of(txn(7), n), hash_of(txn(7), n));
        assert_ne!(hash_of(txn(7), n), hash_of(txn(8), n));
    }

    #[test]
    fn txn_chunks_are_not_shared_between_seeds_and_never_repeat_a_value() {
        let chunk = |seed, c: usize| -> Vec<Req> {
            let mut g = TxnGen::new(seed, 256, 32);
            let reqs: Vec<Req> = (0..(c + 1) * TXN_CHUNK as usize)
                .map(|_| g.next())
                .collect();
            reqs[c * TXN_CHUNK as usize..].to_vec()
        };
        assert_ne!(chunk(7, 1), chunk(8, 0), "seed s+1 must not replay seed s");
        let mut g = TxnGen::new(7, 256, 32);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 * TXN_CHUNK {
            let r = g.next();
            if let Some(fp) = r.write {
                assert!(
                    seen.insert((r.key, fp)),
                    "key {} rewritten with an old value",
                    r.key
                );
            }
        }
    }

    #[test]
    fn every_set_of_a_key_writes_a_distinct_value() {
        let mut g = KvGen::new(1, MIX);
        let a = g.set(5);
        let b = g.set(5);
        assert_ne!(a.write, b.write);
        assert_ne!(a.payload, b.payload);
        assert_eq!(a.flow, b.flow, "a key always steers to the same queue");
        assert_eq!(KvGen::get(5).write, None);
    }

    #[test]
    fn mix_fractions_and_hot_set_are_honoured() {
        let mut g = KvGen::new(3, MIX);
        let reqs: Vec<Req> = (0..20_000).map(|_| g.next()).collect();
        let sets = reqs.iter().filter(|r| r.write.is_some()).count() as f64 / 20_000.0;
        assert!((sets - 0.3).abs() < 0.02, "set fraction {sets}");
        let hot = reqs.iter().filter(|r| r.key < 16).count() as f64 / 20_000.0;
        assert!((hot - 0.508).abs() < 0.02, "hot fraction {hot}");
    }

    #[test]
    fn fingerprint_is_never_zero_and_separates_neighbours() {
        assert_ne!(fingerprint(&[]), 0);
        assert_ne!(fingerprint(&[0u8; 64]), fingerprint(&[0u8; 63]));
        let mut v = [0u8; 64];
        let a = fingerprint(&v);
        v[63] = 1;
        assert_ne!(a, fingerprint(&v));
    }

    #[test]
    fn replies_decode_by_protocol() {
        let kv = Gen::Kv(KvGen::new(1, MIX));
        assert_eq!(kv.decode(&KvResp::Ok(None).encode()), Reply::Written(0));
        assert_eq!(kv.decode(&KvResp::Miss.encode()), Reply::Miss);
        assert_eq!(kv.decode(&KvResp::Error.encode()), Reply::Other);
        assert_eq!(
            kv.decode(&KvResp::Ok(Some(vec![1, 2, 3])).encode()),
            Reply::Value(fingerprint(&[1, 2, 3]))
        );
        let txn = Gen::Txn(TxnGen::new(1, 16, 8));
        assert_eq!(
            txn.decode(&TxnResp::Ok { seq: 9 }.encode()),
            Reply::Written(9)
        );
        assert_eq!(txn.decode(&TxnResp::Conflict.encode()), Reply::Other);
        assert_eq!(txn.decode(&[]), Reply::Other);
    }
}
