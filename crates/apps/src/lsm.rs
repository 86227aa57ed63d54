//! A log-structured merge (LSM) key-value store over abstract memory.
//!
//! The RocksDB/LevelDB stand-in for the paper's §7.5.2 experiments: an
//! in-memory memtable, sorted runs flushed to a storage region, n-way
//! merge compaction, and an optional write-ahead log whose appends issue a
//! persistence barrier ([`MemIo::flush`]) per write — the "double-write"
//! cost that TreeSLS's transparent checkpointing eliminates.
//!
//! Running inside TreeSLS the WAL is disabled (persistence comes from
//! checkpoints); running on the Aurora/Linux baselines the same code runs
//! with the WAL on, reproducing the Figure 14 comparison.
//!
//! Layout:
//!
//! ```text
//! memtable region:  { count u64, cap u64 } entries[cap]
//! storage region:   { nruns u64, alloc u64 } runs[MAX_RUNS]{off,count}
//!                   data area (sorted entries, bump-allocated)
//! wal region:       { len u64 } record bytes
//! entry:            { key u64, vlen u32, pad u32, value[val_cap] }
//! ```

use treesls_extsync::MemIo;
use treesls_kernel::types::KernelError;

/// Tombstone marker stored in the `vlen` field.
const TOMBSTONE: u32 = u32::MAX;

/// Maximum resident runs before compaction merges them.
pub const MAX_RUNS: u64 = 8;

/// Errors from LSM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// Value exceeds the configured capacity.
    ValueTooLarge,
    /// The storage area cannot hold the data set.
    StorageFull,
    /// The WAL region overflowed before a memtable flush reset it.
    WalFull,
    /// Underlying memory error.
    Mem(KernelError),
}

impl From<KernelError> for LsmError {
    fn from(e: KernelError) -> Self {
        LsmError::Mem(e)
    }
}

/// Placement and geometry of one LSM tree.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Memtable region base address.
    pub memtable_base: u64,
    /// Memtable capacity in entries.
    pub memtable_cap: u64,
    /// Storage region base address.
    pub storage_base: u64,
    /// Storage region length in bytes.
    pub storage_len: u64,
    /// WAL region base address; `None` disables the WAL.
    pub wal_base: Option<u64>,
    /// WAL region length in bytes.
    pub wal_len: u64,
    /// Maximum value bytes.
    pub val_cap: u64,
}

impl LsmConfig {
    fn entry_size(&self) -> u64 {
        16 + self.val_cap.div_ceil(8) * 8
    }
}

const RUNS_TABLE_OFF: u64 = 16;
const RUN_DESC: u64 = 16; // {off u64, count u64}
const DATA_OFF: u64 = RUNS_TABLE_OFF + MAX_RUNS * RUN_DESC;

/// An LSM tree handle.
#[derive(Debug, Clone, Copy)]
pub struct Lsm {
    cfg: LsmConfig,
}

impl Lsm {
    /// Formats a fresh (empty) tree.
    pub fn format<M: MemIo>(io: &M, cfg: LsmConfig) -> Result<Self, LsmError> {
        io.mem_write_u64(cfg.memtable_base, 0)?;
        io.mem_write_u64(cfg.memtable_base + 8, cfg.memtable_cap)?;
        io.mem_write_u64(cfg.storage_base, 0)?;
        io.mem_write_u64(cfg.storage_base + 8, DATA_OFF)?;
        if let Some(w) = cfg.wal_base {
            io.mem_write_u64(w, 0)?;
        }
        Ok(Self { cfg })
    }

    /// Attaches to an existing tree (restore path).
    pub fn attach(cfg: LsmConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    fn mem_entry(&self, i: u64) -> u64 {
        self.cfg.memtable_base + 16 + i * self.cfg.entry_size()
    }

    fn read_entry<M: MemIo>(&self, io: &M, addr: u64) -> Result<(u64, u32, Vec<u8>), LsmError> {
        let key = io.mem_read_u64(addr)?;
        let mut lb = [0u8; 4];
        io.mem_read(addr + 8, &mut lb)?;
        let vlen = u32::from_le_bytes(lb);
        let n = if vlen == TOMBSTONE { 0 } else { (vlen as u64).min(self.cfg.val_cap) as usize };
        let mut v = vec![0u8; n];
        io.mem_read(addr + 16, &mut v)?;
        Ok((key, vlen, v))
    }

    fn write_entry<M: MemIo>(
        &self,
        io: &M,
        addr: u64,
        key: u64,
        vlen: u32,
        value: &[u8],
    ) -> Result<(), LsmError> {
        io.mem_write_u64(addr, key)?;
        io.mem_write(addr + 8, &vlen.to_le_bytes())?;
        if !value.is_empty() {
            io.mem_write(addr + 16, value)?;
        }
        Ok(())
    }

    /// Inserts or updates `key`.
    pub fn put<M: MemIo>(&self, io: &M, key: u64, value: &[u8]) -> Result<(), LsmError> {
        if value.len() as u64 > self.cfg.val_cap {
            return Err(LsmError::ValueTooLarge);
        }
        self.write_internal(io, key, value.len() as u32, value)
    }

    /// Removes `key` (tombstone insert).
    pub fn delete<M: MemIo>(&self, io: &M, key: u64) -> Result<(), LsmError> {
        self.write_internal(io, key, TOMBSTONE, &[])
    }

    fn write_internal<M: MemIo>(
        &self,
        io: &M,
        key: u64,
        vlen: u32,
        value: &[u8],
    ) -> Result<(), LsmError> {
        // WAL first (crash consistency for the baselines): record is
        // {key u64, vlen u32} + value, followed by a persistence barrier.
        if let Some(w) = self.cfg.wal_base {
            let len = io.mem_read_u64(w)?;
            let rec = 12 + value.len() as u64;
            if 8 + len + rec > self.cfg.wal_len {
                return Err(LsmError::WalFull);
            }
            io.mem_write_u64(w + 8 + len, key)?;
            io.mem_write(w + 8 + len + 8, &vlen.to_le_bytes())?;
            if !value.is_empty() {
                io.mem_write(w + 8 + len + 12, value)?;
            }
            io.mem_write_u64(w, len + rec)?;
            io.flush();
        }
        let count = io.mem_read_u64(self.cfg.memtable_base)?;
        self.write_entry(io, self.mem_entry(count), key, vlen, value)?;
        io.mem_write_u64(self.cfg.memtable_base, count + 1)?;
        if count + 1 >= self.cfg.memtable_cap {
            self.flush_memtable(io)?;
        }
        Ok(())
    }

    /// Looks up `key` (memtable first, then runs newest→oldest).
    pub fn get<M: MemIo>(&self, io: &M, key: u64) -> Result<Option<Vec<u8>>, LsmError> {
        // Memtable: newest entry wins.
        let count = io.mem_read_u64(self.cfg.memtable_base)?;
        for i in (0..count).rev() {
            let addr = self.mem_entry(i);
            let k = io.mem_read_u64(addr)?;
            if k == key {
                let (_, vlen, v) = self.read_entry(io, addr)?;
                return Ok(if vlen == TOMBSTONE { None } else { Some(v) });
            }
        }
        // Runs, newest last in the table → search backwards.
        let nruns = io.mem_read_u64(self.cfg.storage_base)?;
        for r in (0..nruns).rev() {
            let desc = self.cfg.storage_base + RUNS_TABLE_OFF + r * RUN_DESC;
            let off = io.mem_read_u64(desc)?;
            let cnt = io.mem_read_u64(desc + 8)?;
            if let Some((vlen, v)) = self.search_run(io, off, cnt, key)? {
                return Ok(if vlen == TOMBSTONE { None } else { Some(v) });
            }
        }
        Ok(None)
    }

    fn search_run<M: MemIo>(
        &self,
        io: &M,
        off: u64,
        count: u64,
        key: u64,
    ) -> Result<Option<(u32, Vec<u8>)>, LsmError> {
        let es = self.cfg.entry_size();
        let base = self.cfg.storage_base + off;
        let (mut lo, mut hi) = (0u64, count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = io.mem_read_u64(base + mid * es)?;
            match k.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let (_, vlen, v) = self.read_entry(io, base + mid * es)?;
                    return Ok(Some((vlen, v)));
                }
            }
        }
        Ok(None)
    }

    /// Flushes the memtable into a new sorted run, deduplicating keys
    /// (latest write wins), then compacts if the run table is full.
    ///
    /// Runs within one program step: intra-step host buffers are legal
    /// because crashes only observe step boundaries.
    pub fn flush_memtable<M: MemIo>(&self, io: &M) -> Result<(), LsmError> {
        let count = io.mem_read_u64(self.cfg.memtable_base)?;
        if count == 0 {
            return Ok(());
        }
        let mut entries = Vec::with_capacity(count as usize);
        for i in 0..count {
            entries.push(self.read_entry(io, self.mem_entry(i))?);
        }
        // Stable sort + keep the last occurrence of each key.
        entries.sort_by_key(|(k, _, _)| *k);
        let mut dedup: Vec<(u64, u32, Vec<u8>)> = Vec::with_capacity(entries.len());
        for e in entries {
            if dedup.last().is_some_and(|(k, _, _)| *k == e.0) {
                *dedup.last_mut().expect("non-empty") = e;
            } else {
                dedup.push(e);
            }
        }
        self.append_run(io, &dedup)?;
        io.mem_write_u64(self.cfg.memtable_base, 0)?;
        if let Some(w) = self.cfg.wal_base {
            // The flushed data is in the (persistent) storage area; the
            // log can restart.
            io.mem_write_u64(w, 0)?;
            io.flush();
        }
        let nruns = io.mem_read_u64(self.cfg.storage_base)?;
        if nruns >= MAX_RUNS {
            self.compact(io)?;
        }
        Ok(())
    }

    fn append_run<M: MemIo>(
        &self,
        io: &M,
        entries: &[(u64, u32, Vec<u8>)],
    ) -> Result<(), LsmError> {
        let es = self.cfg.entry_size();
        let alloc = io.mem_read_u64(self.cfg.storage_base + 8)?;
        let need = entries.len() as u64 * es;
        if alloc + need > self.cfg.storage_len {
            return Err(LsmError::StorageFull);
        }
        for (i, (k, vlen, v)) in entries.iter().enumerate() {
            self.write_entry(io, self.cfg.storage_base + alloc + i as u64 * es, *k, *vlen, v)?;
        }
        let nruns = io.mem_read_u64(self.cfg.storage_base)?;
        let desc = self.cfg.storage_base + RUNS_TABLE_OFF + nruns * RUN_DESC;
        io.mem_write_u64(desc, alloc)?;
        io.mem_write_u64(desc + 8, entries.len() as u64)?;
        io.mem_write_u64(self.cfg.storage_base + 8, alloc + need)?;
        io.mem_write_u64(self.cfg.storage_base, nruns + 1)?;
        Ok(())
    }

    /// Merges all runs into one, dropping superseded versions and
    /// committed tombstones, and rewinds the bump allocator.
    pub fn compact<M: MemIo>(&self, io: &M) -> Result<(), LsmError> {
        let nruns = io.mem_read_u64(self.cfg.storage_base)?;
        if nruns <= 1 {
            return Ok(());
        }
        let es = self.cfg.entry_size();
        // Newest-wins merge: read runs oldest→newest into a map-like
        // sorted vec.
        let mut merged: std::collections::BTreeMap<u64, (u32, Vec<u8>)> =
            std::collections::BTreeMap::new();
        for r in 0..nruns {
            let desc = self.cfg.storage_base + RUNS_TABLE_OFF + r * RUN_DESC;
            let off = io.mem_read_u64(desc)?;
            let cnt = io.mem_read_u64(desc + 8)?;
            for i in 0..cnt {
                let (k, vlen, v) = self.read_entry(io, self.cfg.storage_base + off + i * es)?;
                merged.insert(k, (vlen, v));
            }
        }
        // Tombstones at the bottom level can be dropped entirely.
        merged.retain(|_, (vlen, _)| *vlen != TOMBSTONE);
        // Rewrite as the single run at the start of the data area.
        let entries: Vec<(u64, u32, Vec<u8>)> =
            merged.into_iter().map(|(k, (vlen, v))| (k, vlen, v)).collect();
        io.mem_write_u64(self.cfg.storage_base, 0)?;
        io.mem_write_u64(self.cfg.storage_base + 8, DATA_OFF)?;
        if !entries.is_empty() {
            self.append_run(io, &entries)?;
        }
        Ok(())
    }

    /// Number of resident runs.
    pub fn runs<M: MemIo>(&self, io: &M) -> Result<u64, LsmError> {
        Ok(io.mem_read_u64(self.cfg.storage_base)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_extsync::HeapMem;
    use std::sync::atomic::Ordering;

    fn cfg(wal: bool) -> LsmConfig {
        LsmConfig {
            memtable_base: 0,
            memtable_cap: 16,
            storage_base: 8192,
            storage_len: 512 * 1024,
            wal_base: wal.then_some(600 * 1024),
            wal_len: 64 * 1024,
            val_cap: 32,
        }
    }

    fn tree(wal: bool) -> (HeapMem, Lsm) {
        let m = HeapMem::new(1024 * 1024);
        let t = Lsm::format(&m, cfg(wal)).unwrap();
        (m, t)
    }

    #[test]
    fn put_get_within_memtable() {
        let (m, t) = tree(false);
        t.put(&m, 5, b"five").unwrap();
        t.put(&m, 9, b"nine").unwrap();
        assert_eq!(t.get(&m, 5).unwrap(), Some(b"five".to_vec()));
        assert_eq!(t.get(&m, 9).unwrap(), Some(b"nine".to_vec()));
        assert_eq!(t.get(&m, 7).unwrap(), None);
        // Update wins.
        t.put(&m, 5, b"FIVE").unwrap();
        assert_eq!(t.get(&m, 5).unwrap(), Some(b"FIVE".to_vec()));
    }

    #[test]
    fn flush_creates_sorted_runs() {
        let (m, t) = tree(false);
        for k in (0..40u64).rev() {
            t.put(&m, k, &k.to_le_bytes()).unwrap();
        }
        assert!(t.runs(&m).unwrap() >= 2);
        for k in 0..40u64 {
            assert_eq!(t.get(&m, k).unwrap(), Some(k.to_le_bytes().to_vec()), "key {k}");
        }
    }

    #[test]
    fn newest_version_wins_across_runs() {
        let (m, t) = tree(false);
        for round in 0..5u64 {
            for k in 0..16u64 {
                t.put(&m, k, &(round * 100 + k).to_le_bytes()).unwrap();
            }
        }
        for k in 0..16u64 {
            assert_eq!(
                t.get(&m, k).unwrap(),
                Some((400 + k).to_le_bytes().to_vec()),
                "key {k}"
            );
        }
    }

    #[test]
    fn deletes_shadow_older_versions() {
        let (m, t) = tree(false);
        for k in 0..32u64 {
            t.put(&m, k, b"v").unwrap();
        }
        t.delete(&m, 7).unwrap();
        t.delete(&m, 31).unwrap();
        // Force everything out of the memtable.
        t.flush_memtable(&m).unwrap();
        assert_eq!(t.get(&m, 7).unwrap(), None);
        assert_eq!(t.get(&m, 31).unwrap(), None);
        assert!(t.get(&m, 8).unwrap().is_some());
    }

    #[test]
    fn compaction_collapses_runs_and_data_survives() {
        let (m, t) = tree(false);
        // 16-entry memtable → one run per 16 puts; MAX_RUNS triggers
        // compaction.
        for round in 0..20u64 {
            for k in 0..16u64 {
                t.put(&m, k * 3, &(round).to_le_bytes()).unwrap();
            }
        }
        assert!(t.runs(&m).unwrap() <= MAX_RUNS);
        for k in 0..16u64 {
            assert_eq!(t.get(&m, k * 3).unwrap(), Some(19u64.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn wal_issues_flush_per_write() {
        let (m, t) = tree(true);
        for k in 0..10u64 {
            t.put(&m, k, b"x").unwrap();
        }
        assert!(m.flushes.load(Ordering::Relaxed) >= 10);
        let (m2, t2) = tree(false);
        for k in 0..10u64 {
            t2.put(&m2, k, b"x").unwrap();
        }
        assert_eq!(m2.flushes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn oversized_value_rejected() {
        let (m, t) = tree(false);
        assert_eq!(t.put(&m, 1, &[0u8; 33]), Err(LsmError::ValueTooLarge));
    }

    #[test]
    fn tombstone_then_reinsert() {
        let (m, t) = tree(false);
        t.put(&m, 42, b"a").unwrap();
        t.delete(&m, 42).unwrap();
        assert_eq!(t.get(&m, 42).unwrap(), None);
        t.put(&m, 42, b"b").unwrap();
        assert_eq!(t.get(&m, 42).unwrap(), Some(b"b".to_vec()));
    }
}
