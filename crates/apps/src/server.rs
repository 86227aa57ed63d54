//! Server and client programs running inside TreeSLS.
//!
//! Two deployment shapes, matching the paper's evaluation:
//!
//! * **NIC services** ([`KvService`], [`LsmService`]) plug the KV table
//!   and LSM tree into the `treesls-net` poll-mode runtime: one
//!   `PollServer` loop per NIC queue serves external host-side clients —
//!   the configuration behind Figures 11/12/13/14.
//! * **IPC pairs** ([`IpcKvServer`], [`IpcKvClient`]) put both sides inside
//!   the SLS ("clients were also checkpointed", §7.3) — the configuration
//!   behind Table 2 and the Figure 9/10 breakdowns. The server fronts a
//!   [`KvService`], so both shapes run the same request path.
//!
//! All programs are re-entrant step machines: a crash between checkpoints
//! rolls them back to a step boundary and they resume correctly.

use treesls_kernel::program::{Program, StepOutcome, UserCtx};
use treesls_kernel::types::CapSlot;
use treesls_net::{Service, ServiceError};

use crate::hashkv::HashKv;
use crate::lsm::{Lsm, LsmConfig};
use crate::wire::{resp, KvOp, KvOpRef, KvResp, KEY_LEN};

/// Register allocation conventions shared by the programs here.
pub mod regs {
    /// Operations completed so far.
    pub const DONE: usize = 2;
    /// PRNG state (xorshift64).
    pub const RNG: usize = 3;
    /// Target operation count (clients).
    pub const TARGET: usize = 1;
    /// Pending request sequence/slot marker.
    pub const PENDING: usize = 4;
}

/// xorshift64 step — the PRNG whose whole state is one register, so client
/// randomness is checkpointed with the thread context.
pub fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.max(1)
}

/// A memcached/redis-like KV protocol served through the NIC poll
/// runtime, and inside the SLS by [`IpcKvServer`].
///
/// One instance per queue (or IPC shard), each owning its own table
/// region (the queue index shards the data). `init` formats the table on
/// first boot only — a restored thread resumes past it and `handle`
/// re-attaches. `handle` is zero-copy: the request is a borrowed view into
/// the caller's buffer, and a `Get` hit reads the value from the table
/// straight into the length-framed response.
#[derive(Debug)]
pub struct KvService {
    /// Table base address.
    pub table_base: u64,
    /// Table buckets (power of two).
    pub nbuckets: u64,
    /// Max value bytes.
    pub val_cap: u64,
}

impl Service for KvService {
    fn init(&self, ctx: &mut UserCtx<'_>) -> Result<(), ServiceError> {
        HashKv::format(ctx, self.table_base, self.nbuckets, self.val_cap)
            .map(|_| ())
            .map_err(|_| ServiceError)
    }

    fn handle(
        &self,
        ctx: &mut UserCtx<'_>,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ServiceError> {
        let table = HashKv::attach(ctx, self.table_base).map_err(|_| ServiceError)?;
        match KvOpRef::decode(payload) {
            Some(KvOpRef::Get { key }) => {
                let mark = resp::begin_value(out);
                match table.get_into(ctx, key, out) {
                    Ok(Some(_)) => resp::finish_value(out, mark),
                    Ok(None) => {
                        out.truncate(mark - 5);
                        resp::miss_into(out);
                    }
                    Err(_) => {
                        out.truncate(mark - 5);
                        resp::error_into(out);
                    }
                }
            }
            Some(KvOpRef::Set { key, value }) => match table.set(ctx, key, value) {
                Ok(_) => resp::ok_into(out),
                Err(_) => resp::error_into(out),
            },
            Some(KvOpRef::Del { key }) => match table.del(ctx, key) {
                Ok(true) => resp::ok_into(out),
                Ok(false) => resp::miss_into(out),
                Err(_) => resp::error_into(out),
            },
            None => resp::error_into(out),
        }
        Ok(())
    }
}

/// An LSM (RocksDB-like) protocol served through the NIC poll runtime.
///
/// Keys are the first 8 bytes of the wire key interpreted little-endian.
#[derive(Debug)]
pub struct LsmService {
    /// LSM geometry.
    pub lsm: LsmConfig,
}

fn key_u64(key: &[u8; KEY_LEN]) -> u64 {
    u64::from_le_bytes(key[..8].try_into().expect("8-byte prefix"))
}

impl Service for LsmService {
    fn init(&self, ctx: &mut UserCtx<'_>) -> Result<(), ServiceError> {
        Lsm::format(ctx, self.lsm).map(|_| ()).map_err(|_| ServiceError)
    }

    fn handle(
        &self,
        ctx: &mut UserCtx<'_>,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ServiceError> {
        let tree = Lsm::attach(self.lsm);
        match KvOpRef::decode(payload) {
            Some(KvOpRef::Get { key }) => match tree.get(ctx, key_u64(key)) {
                Ok(Some(v)) => resp::value_into(out, &v),
                Ok(None) => resp::miss_into(out),
                Err(_) => resp::error_into(out),
            },
            Some(KvOpRef::Set { key, value }) => match tree.put(ctx, key_u64(key), value) {
                Ok(()) => resp::ok_into(out),
                Err(_) => resp::error_into(out),
            },
            Some(KvOpRef::Del { key }) => match tree.delete(ctx, key_u64(key)) {
                Ok(()) => resp::ok_into(out),
                Err(_) => resp::error_into(out),
            },
            None => resp::error_into(out),
        }
        Ok(())
    }
}

/// A KV server thread receiving requests over an IPC connection
/// (both endpoints inside the SLS).
///
/// It fronts the same [`KvService`] the NIC runtime serves: its first
/// step is [`Service::init`], and every request goes through
/// [`Service::handle`], so the IPC pair and the NIC path share one
/// request path and differ only in transport.
#[derive(Debug)]
pub struct IpcKvServer {
    /// Capability slot of the server's IPC connection.
    pub conn_slot: CapSlot,
    /// The table this shard serves.
    pub kv: KvService,
}

impl Program for IpcKvServer {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        if ctx.pc() == 0 {
            if self.kv.init(ctx).is_err() {
                return StepOutcome::Exited;
            }
            ctx.set_pc(1);
            return StepOutcome::Ready;
        }
        match ctx.ipc_recv(self.conn_slot) {
            Ok(Some((client, req))) => {
                // The reply takes the buffer by value: size it once for the
                // largest response (a value frame), so a hit never regrows.
                let mut resp = Vec::with_capacity(5 + self.kv.val_cap as usize);
                if self.kv.handle(ctx, &req, &mut resp).is_err() {
                    return StepOutcome::Exited;
                }
                let _ = ctx.ipc_reply(self.conn_slot, client, resp);
                let done = ctx.reg(regs::DONE);
                ctx.set_reg(regs::DONE, done + 1);
                StepOutcome::Ready
            }
            Ok(None) => StepOutcome::Blocked,
            Err(_) => StepOutcome::Exited,
        }
    }
}

/// A closed-loop KV client thread issuing SET/GET over IPC.
///
/// Drives the Table 2 / Figure 9 / Figure 10 Redis and Memcached
/// workloads: `TARGET` operations against `key_space` keys with
/// `write_ratio_percent` writes, all client state in registers.
#[derive(Debug)]
pub struct IpcKvClient {
    /// Capability slots of the shard connections (key-hash routed).
    pub shard_slots: Vec<CapSlot>,
    /// Number of distinct keys.
    pub key_space: u64,
    /// Value length in bytes.
    pub val_len: usize,
    /// Percentage of SET operations (0–100).
    pub write_ratio_percent: u64,
}

impl IpcKvClient {
    fn build_op(&self, rng: u64) -> KvOp {
        let key_id = (rng >> 8) % self.key_space.max(1);
        let key = crate::wire::numeric_key(key_id);
        if rng % 100 < self.write_ratio_percent {
            let mut value = vec![0u8; self.val_len];
            for (i, b) in value.iter_mut().enumerate() {
                *b = (rng as u8).wrapping_add(i as u8);
            }
            KvOp::Set { key, value }
        } else {
            KvOp::Get { key }
        }
    }

    fn shard_for(&self, rng: u64) -> CapSlot {
        let key_id = (rng >> 8) % self.key_space.max(1);
        self.shard_slots[(key_id % self.shard_slots.len() as u64) as usize]
    }
}

impl Program for IpcKvClient {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        match ctx.pc() {
            // Send a request.
            0 => {
                if ctx.reg(regs::DONE) >= ctx.reg(regs::TARGET) {
                    return StepOutcome::Exited;
                }
                let rng = xorshift64(ctx.reg(regs::RNG).max(ctx.thread_token() | 1));
                ctx.set_reg(regs::RNG, rng);
                let slot = self.shard_for(rng);
                ctx.set_reg(regs::PENDING, slot as u64);
                let op = self.build_op(rng);
                match ctx.ipc_call(slot, op.encode()) {
                    Ok(()) => {
                        ctx.set_pc(1);
                        StepOutcome::Blocked
                    }
                    Err(_) => StepOutcome::Exited,
                }
            }
            // Consume the reply.
            _ => {
                let slot = ctx.reg(regs::PENDING) as CapSlot;
                match ctx.ipc_take_reply(slot) {
                    Ok(Some(resp)) => {
                        debug_assert!(KvResp::decode(&resp).is_some());
                        ctx.set_reg(regs::DONE, ctx.reg(regs::DONE) + 1);
                        ctx.set_pc(0);
                        StepOutcome::Ready
                    }
                    // Spurious wake or restored mid-call: the call was
                    // rolled back with us; re-issue it.
                    Ok(None) => {
                        ctx.set_pc(0);
                        StepOutcome::Ready
                    }
                    Err(_) => StepOutcome::Exited,
                }
            }
        }
    }
}

/// A SQLite-like single-threaded worker: a mixed
/// read/insert/update/delete benchmark over a B+ tree table (§7.3's
/// SQLite workload shape).
#[derive(Debug)]
pub struct BtreeWorker {
    /// Table region base.
    pub table_base: u64,
    /// Node capacity of the tree.
    pub node_cap: u64,
    /// Key space size.
    pub key_space: u64,
    /// Operations per step.
    pub batch: u64,
}

impl Program for BtreeWorker {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        use crate::btree::{BTree, VAL_LEN};
        if ctx.pc() == 0 {
            if BTree::format(ctx, self.table_base, self.node_cap).is_err() {
                return StepOutcome::Exited;
            }
            ctx.set_pc(1);
            return StepOutcome::Ready;
        }
        let Ok(tree) = BTree::attach(ctx, self.table_base) else {
            return StepOutcome::Exited;
        };
        let target = ctx.reg(regs::TARGET);
        let mut done = ctx.reg(regs::DONE);
        let mut rng = ctx.reg(regs::RNG).max(ctx.thread_token() | 1);
        for _ in 0..self.batch {
            if done >= target {
                ctx.set_reg(regs::DONE, done);
                ctx.set_reg(regs::RNG, rng);
                return StepOutcome::Exited;
            }
            rng = xorshift64(rng);
            let key = (rng >> 8) % self.key_space;
            let mut val = [0u8; VAL_LEN];
            val[..8].copy_from_slice(&rng.to_le_bytes());
            // Mixed read/insert/update/delete (the update is an insert of
            // an existing key).
            let r = match rng % 4 {
                0 => tree.get(ctx, key).map(|_| ()),
                1 | 2 => tree.insert(ctx, key, &val).map(|_| ()),
                _ => tree.delete(ctx, key).map(|_| ()),
            };
            if r.is_err() {
                return StepOutcome::Exited;
            }
            done += 1;
        }
        ctx.set_reg(regs::DONE, done);
        ctx.set_reg(regs::RNG, rng);
        StepOutcome::Ready
    }
}

/// A LevelDB-like single-threaded `fillbatch` worker: batched sequential
/// puts into an LSM tree (the dbbench workload the paper runs, §7.3).
#[derive(Debug)]
pub struct LsmFillBatch {
    /// LSM geometry.
    pub lsm: LsmConfig,
    /// Value length in bytes.
    pub val_len: usize,
    /// Puts per step (one "batch").
    pub batch: u64,
}

impl Program for LsmFillBatch {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        if ctx.pc() == 0 {
            if Lsm::format(ctx, self.lsm).is_err() {
                return StepOutcome::Exited;
            }
            ctx.set_pc(1);
            return StepOutcome::Ready;
        }
        let tree = Lsm::attach(self.lsm);
        let target = ctx.reg(regs::TARGET);
        let mut done = ctx.reg(regs::DONE);
        let value = vec![0xABu8; self.val_len];
        for _ in 0..self.batch {
            if done >= target {
                ctx.set_reg(regs::DONE, done);
                return StepOutcome::Exited;
            }
            if tree.put(ctx, done, &value).is_err() {
                return StepOutcome::Exited;
            }
            done += 1;
        }
        ctx.set_reg(regs::DONE, done);
        StepOutcome::Ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_never_zero_and_varies() {
        let mut x = 1u64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            x = xorshift64(x);
            assert_ne!(x, 0);
            seen.insert(x);
        }
        assert!(seen.len() > 990);
    }

    #[test]
    fn client_op_mix_follows_ratio() {
        let c = IpcKvClient {
            shard_slots: vec![0, 1],
            key_space: 100,
            val_len: 8,
            write_ratio_percent: 100,
        };
        let mut rng = 12345u64;
        for _ in 0..100 {
            rng = xorshift64(rng);
            assert!(c.build_op(rng).is_write());
        }
        let ro = IpcKvClient { write_ratio_percent: 0, ..c };
        for _ in 0..100 {
            rng = xorshift64(rng);
            assert!(!ro.build_op(rng).is_write());
        }
    }

    #[test]
    fn shard_routing_is_stable() {
        let c = IpcKvClient {
            shard_slots: vec![3, 7, 9],
            key_space: 1000,
            val_len: 8,
            write_ratio_percent: 50,
        };
        let rng = 999u64;
        assert_eq!(c.shard_for(rng), c.shard_for(rng));
        assert!(c.shard_slots.contains(&c.shard_for(rng)));
    }
}
