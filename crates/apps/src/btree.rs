//! A page-based B+ tree over abstract memory (the SQLite stand-in).
//!
//! The paper's SQLite workload runs "a mixed read/insert/update/delete
//! benchmark" against a page-structured table store. This module provides
//! that shape: 4 KiB nodes, proactive splits on the way down, and lazy
//! deletion (no rebalancing — underfull leaves are permitted, as in many
//! real page stores). All state lives in [`MemIo`] memory so the store is
//! transparently persisted when run inside TreeSLS.

use treesls_extsync::MemIo;
use treesls_kernel::types::KernelError;

/// Node size (one page).
pub const NODE_SIZE: u64 = 4096;
/// Fixed value width stored in leaves.
pub const VAL_LEN: usize = 64;

const MAGIC: u64 = 0xB7EE_0001;
const HDR: u64 = 32;

// Node layout: { is_leaf u8, pad[1], nkeys u16, pad[4], payload ... }
const N_NKEYS: u64 = 2;
const N_PAYLOAD: u64 = 8;

/// Max keys in a leaf: (4096 - 8) / (8 + 64) = 56.
const LEAF_MAX: usize = 56;
/// Max keys in an inner node: children = keys + 1; (4096 - 8 - 8) / 16 = 255.
const INNER_MAX: usize = 255;

/// Errors from tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtError {
    /// The region ran out of node pages.
    Full,
    /// Value must be exactly [`VAL_LEN`] bytes.
    BadValueLen,
    /// Not a formatted tree.
    BadMagic,
    /// Underlying memory error.
    Mem(KernelError),
}

impl From<KernelError> for BtError {
    fn from(e: KernelError) -> Self {
        BtError::Mem(e)
    }
}

/// A B+ tree handle rooted in a [`MemIo`] region.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    base: u64,
    node_cap: u64,
}

impl BTree {
    /// Bytes needed for a tree with `node_cap` nodes.
    pub fn region_len(node_cap: u64) -> u64 {
        HDR + node_cap * NODE_SIZE
    }

    /// Formats an empty tree (root = empty leaf).
    pub fn format<M: MemIo>(io: &M, base: u64, node_cap: u64) -> Result<Self, BtError> {
        io.mem_write_u64(base, MAGIC)?;
        io.mem_write_u64(base + 8, 0)?; // root index
        io.mem_write_u64(base + 16, 1)?; // nodes allocated
        io.mem_write_u64(base + 24, node_cap)?;
        let t = Self { base, node_cap };
        t.init_node(io, 0, true)?;
        Ok(t)
    }

    /// Attaches to an existing tree.
    pub fn attach<M: MemIo>(io: &M, base: u64) -> Result<Self, BtError> {
        if io.mem_read_u64(base)? != MAGIC {
            return Err(BtError::BadMagic);
        }
        let node_cap = io.mem_read_u64(base + 24)?;
        Ok(Self { base, node_cap })
    }

    fn node(&self, idx: u64) -> u64 {
        self.base + HDR + idx * NODE_SIZE
    }

    fn init_node<M: MemIo>(&self, io: &M, idx: u64, leaf: bool) -> Result<(), BtError> {
        let n = self.node(idx);
        io.mem_write(n, &[leaf as u8, 0])?;
        io.mem_write(n + N_NKEYS, &0u16.to_le_bytes())?;
        Ok(())
    }

    fn alloc_node<M: MemIo>(&self, io: &M, leaf: bool) -> Result<u64, BtError> {
        let n = io.mem_read_u64(self.base + 16)?;
        if n >= self.node_cap {
            return Err(BtError::Full);
        }
        io.mem_write_u64(self.base + 16, n + 1)?;
        self.init_node(io, n, leaf)?;
        Ok(n)
    }

    fn is_leaf<M: MemIo>(&self, io: &M, idx: u64) -> Result<bool, BtError> {
        let mut b = [0u8];
        io.mem_read(self.node(idx), &mut b)?;
        Ok(b[0] != 0)
    }

    fn nkeys<M: MemIo>(&self, io: &M, idx: u64) -> Result<usize, BtError> {
        let mut b = [0u8; 2];
        io.mem_read(self.node(idx) + N_NKEYS, &mut b)?;
        Ok(u16::from_le_bytes(b) as usize)
    }

    fn set_nkeys<M: MemIo>(&self, io: &M, idx: u64, n: usize) -> Result<(), BtError> {
        io.mem_write(self.node(idx) + N_NKEYS, &(n as u16).to_le_bytes())?;
        Ok(())
    }

    // Leaf accessors: keys then values.
    fn leaf_key_addr(&self, idx: u64, i: usize) -> u64 {
        self.node(idx) + N_PAYLOAD + (i as u64) * 8
    }
    fn leaf_val_addr(&self, idx: u64, i: usize) -> u64 {
        self.node(idx) + N_PAYLOAD + (LEAF_MAX as u64) * 8 + (i as u64) * VAL_LEN as u64
    }
    // Inner accessors: keys then children.
    fn inner_key_addr(&self, idx: u64, i: usize) -> u64 {
        self.node(idx) + N_PAYLOAD + (i as u64) * 8
    }
    fn inner_child_addr(&self, idx: u64, i: usize) -> u64 {
        self.node(idx) + N_PAYLOAD + (INNER_MAX as u64) * 8 + (i as u64) * 8
    }

    fn leaf_keys<M: MemIo>(&self, io: &M, idx: u64) -> Result<Vec<u64>, BtError> {
        let n = self.nkeys(io, idx)?;
        let mut keys = Vec::with_capacity(n);
        for i in 0..n {
            keys.push(io.mem_read_u64(self.leaf_key_addr(idx, i))?);
        }
        Ok(keys)
    }

    /// Looks up `key`.
    pub fn get<M: MemIo>(&self, io: &M, key: u64) -> Result<Option<[u8; VAL_LEN]>, BtError> {
        let mut idx = io.mem_read_u64(self.base + 8)?;
        loop {
            if self.is_leaf(io, idx)? {
                let keys = self.leaf_keys(io, idx)?;
                return match keys.binary_search(&key) {
                    Ok(i) => {
                        let mut v = [0u8; VAL_LEN];
                        io.mem_read(self.leaf_val_addr(idx, i), &mut v)?;
                        Ok(Some(v))
                    }
                    Err(_) => Ok(None),
                };
            }
            let n = self.nkeys(io, idx)?;
            let mut child = n; // rightmost by default
            for i in 0..n {
                let k = io.mem_read_u64(self.inner_key_addr(idx, i))?;
                if key < k {
                    child = i;
                    break;
                }
            }
            idx = io.mem_read_u64(self.inner_child_addr(idx, child))?;
        }
    }

    /// Inserts or updates `key`. Returns `true` if the key was new.
    pub fn insert<M: MemIo>(&self, io: &M, key: u64, value: &[u8]) -> Result<bool, BtError> {
        if value.len() != VAL_LEN {
            return Err(BtError::BadValueLen);
        }
        let root = io.mem_read_u64(self.base + 8)?;
        // Proactive root split.
        if self.node_full(io, root)? {
            let new_root = self.alloc_node(io, false)?;
            let (sep, right) = self.split_child_of(io, root)?;
            self.set_nkeys(io, new_root, 1)?;
            io.mem_write_u64(self.inner_key_addr(new_root, 0), sep)?;
            io.mem_write_u64(self.inner_child_addr(new_root, 0), root)?;
            io.mem_write_u64(self.inner_child_addr(new_root, 1), right)?;
            io.mem_write_u64(self.base + 8, new_root)?;
        }
        let mut idx = io.mem_read_u64(self.base + 8)?;
        loop {
            if self.is_leaf(io, idx)? {
                return self.leaf_insert(io, idx, key, value);
            }
            let n = self.nkeys(io, idx)?;
            let mut ci = n;
            for i in 0..n {
                let k = io.mem_read_u64(self.inner_key_addr(idx, i))?;
                if key < k {
                    ci = i;
                    break;
                }
            }
            let mut child = io.mem_read_u64(self.inner_child_addr(idx, ci))?;
            if self.node_full(io, child)? {
                let (sep, right) = self.split_child_of(io, child)?;
                // Shift keys/children of `idx` to make room at ci.
                for i in (ci..n).rev() {
                    let k = io.mem_read_u64(self.inner_key_addr(idx, i))?;
                    io.mem_write_u64(self.inner_key_addr(idx, i + 1), k)?;
                    let c = io.mem_read_u64(self.inner_child_addr(idx, i + 1))?;
                    io.mem_write_u64(self.inner_child_addr(idx, i + 2), c)?;
                }
                io.mem_write_u64(self.inner_key_addr(idx, ci), sep)?;
                io.mem_write_u64(self.inner_child_addr(idx, ci + 1), right)?;
                self.set_nkeys(io, idx, n + 1)?;
                if key >= sep {
                    child = right;
                }
            }
            idx = child;
        }
    }

    fn node_full<M: MemIo>(&self, io: &M, idx: u64) -> Result<bool, BtError> {
        let n = self.nkeys(io, idx)?;
        Ok(if self.is_leaf(io, idx)? { n >= LEAF_MAX } else { n >= INNER_MAX })
    }

    /// Splits a full node, returning `(separator, right_index)`.
    fn split_child_of<M: MemIo>(&self, io: &M, idx: u64) -> Result<(u64, u64), BtError> {
        let leaf = self.is_leaf(io, idx)?;
        let n = self.nkeys(io, idx)?;
        let mid = n / 2;
        let right = self.alloc_node(io, leaf)?;
        if leaf {
            // Right gets keys[mid..]; separator is its first key.
            for (j, i) in (mid..n).enumerate() {
                let k = io.mem_read_u64(self.leaf_key_addr(idx, i))?;
                io.mem_write_u64(self.leaf_key_addr(right, j), k)?;
                let mut v = [0u8; VAL_LEN];
                io.mem_read(self.leaf_val_addr(idx, i), &mut v)?;
                io.mem_write(self.leaf_val_addr(right, j), &v)?;
            }
            self.set_nkeys(io, right, n - mid)?;
            self.set_nkeys(io, idx, mid)?;
            let sep = io.mem_read_u64(self.leaf_key_addr(right, 0))?;
            Ok((sep, right))
        } else {
            // Key at mid moves up; right gets keys[mid+1..].
            let sep = io.mem_read_u64(self.inner_key_addr(idx, mid))?;
            for (j, i) in (mid + 1..n).enumerate() {
                let k = io.mem_read_u64(self.inner_key_addr(idx, i))?;
                io.mem_write_u64(self.inner_key_addr(right, j), k)?;
            }
            for (j, i) in (mid + 1..=n).enumerate() {
                let c = io.mem_read_u64(self.inner_child_addr(idx, i))?;
                io.mem_write_u64(self.inner_child_addr(right, j), c)?;
            }
            self.set_nkeys(io, right, n - mid - 1)?;
            self.set_nkeys(io, idx, mid)?;
            Ok((sep, right))
        }
    }

    fn leaf_insert<M: MemIo>(
        &self,
        io: &M,
        idx: u64,
        key: u64,
        value: &[u8],
    ) -> Result<bool, BtError> {
        let keys = self.leaf_keys(io, idx)?;
        match keys.binary_search(&key) {
            Ok(i) => {
                io.mem_write(self.leaf_val_addr(idx, i), value)?;
                Ok(false)
            }
            Err(pos) => {
                let n = keys.len();
                debug_assert!(n < LEAF_MAX, "caller splits full leaves");
                for i in (pos..n).rev() {
                    let k = io.mem_read_u64(self.leaf_key_addr(idx, i))?;
                    io.mem_write_u64(self.leaf_key_addr(idx, i + 1), k)?;
                    let mut v = [0u8; VAL_LEN];
                    io.mem_read(self.leaf_val_addr(idx, i), &mut v)?;
                    io.mem_write(self.leaf_val_addr(idx, i + 1), &v)?;
                }
                io.mem_write_u64(self.leaf_key_addr(idx, pos), key)?;
                io.mem_write(self.leaf_val_addr(idx, pos), value)?;
                self.set_nkeys(io, idx, n + 1)?;
                Ok(true)
            }
        }
    }

    /// Deletes `key` from its leaf (no rebalancing). Returns `true` if the
    /// key existed.
    pub fn delete<M: MemIo>(&self, io: &M, key: u64) -> Result<bool, BtError> {
        let mut idx = io.mem_read_u64(self.base + 8)?;
        loop {
            if self.is_leaf(io, idx)? {
                let keys = self.leaf_keys(io, idx)?;
                return match keys.binary_search(&key) {
                    Err(_) => Ok(false),
                    Ok(pos) => {
                        let n = keys.len();
                        for i in pos..n - 1 {
                            let k = io.mem_read_u64(self.leaf_key_addr(idx, i + 1))?;
                            io.mem_write_u64(self.leaf_key_addr(idx, i), k)?;
                            let mut v = [0u8; VAL_LEN];
                            io.mem_read(self.leaf_val_addr(idx, i + 1), &mut v)?;
                            io.mem_write(self.leaf_val_addr(idx, i), &v)?;
                        }
                        self.set_nkeys(io, idx, n - 1)?;
                        Ok(true)
                    }
                };
            }
            let n = self.nkeys(io, idx)?;
            let mut ci = n;
            for i in 0..n {
                let k = io.mem_read_u64(self.inner_key_addr(idx, i))?;
                if key < k {
                    ci = i;
                    break;
                }
            }
            idx = io.mem_read_u64(self.inner_child_addr(idx, ci))?;
        }
    }

    /// Nodes currently allocated.
    pub fn node_count<M: MemIo>(&self, io: &M) -> Result<u64, BtError> {
        Ok(io.mem_read_u64(self.base + 16)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_extsync::HeapMem;

    fn val(tag: u64) -> [u8; VAL_LEN] {
        let mut v = [0u8; VAL_LEN];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v
    }

    fn tree(nodes: u64) -> (HeapMem, BTree) {
        let m = HeapMem::new(BTree::region_len(nodes) as usize);
        let t = BTree::format(&m, 0, nodes).unwrap();
        (m, t)
    }

    #[test]
    fn insert_get_small() {
        let (m, t) = tree(8);
        assert!(t.insert(&m, 10, &val(100)).unwrap());
        assert!(t.insert(&m, 5, &val(50)).unwrap());
        assert!(t.insert(&m, 20, &val(200)).unwrap());
        assert_eq!(t.get(&m, 5).unwrap(), Some(val(50)));
        assert_eq!(t.get(&m, 10).unwrap(), Some(val(100)));
        assert_eq!(t.get(&m, 20).unwrap(), Some(val(200)));
        assert_eq!(t.get(&m, 15).unwrap(), None);
        // Update.
        assert!(!t.insert(&m, 10, &val(999)).unwrap());
        assert_eq!(t.get(&m, 10).unwrap(), Some(val(999)));
    }

    #[test]
    fn thousands_of_keys_with_splits() {
        let (m, t) = tree(512);
        // Insert in a scrambled order.
        let n = 5000u64;
        for i in 0..n {
            let k = (i * 2_654_435_761) % 100_000;
            t.insert(&m, k, &val(k)).unwrap();
        }
        assert!(t.node_count(&m).unwrap() > 10, "splits happened");
        for i in 0..n {
            let k = (i * 2_654_435_761) % 100_000;
            assert_eq!(t.get(&m, k).unwrap(), Some(val(k)), "key {k}");
        }
        // Sorted order probes for misses.
        assert_eq!(t.get(&m, 100_001).unwrap(), None);
    }

    #[test]
    fn sequential_insert_then_delete_half() {
        let (m, t) = tree(256);
        for k in 0..2000u64 {
            t.insert(&m, k, &val(k)).unwrap();
        }
        for k in (0..2000u64).step_by(2) {
            assert!(t.delete(&m, k).unwrap());
        }
        assert!(!t.delete(&m, 0).unwrap());
        for k in 0..2000u64 {
            let got = t.get(&m, k).unwrap();
            if k % 2 == 0 {
                assert_eq!(got, None, "key {k}");
            } else {
                assert_eq!(got, Some(val(k)), "key {k}");
            }
        }
    }

    #[test]
    fn value_length_enforced() {
        let (m, t) = tree(4);
        assert_eq!(t.insert(&m, 1, &[0u8; 8]), Err(BtError::BadValueLen));
    }

    #[test]
    fn attach_finds_existing_tree() {
        let (m, t) = tree(8);
        t.insert(&m, 77, &val(7)).unwrap();
        let t2 = BTree::attach(&m, 0).unwrap();
        assert_eq!(t2.get(&m, 77).unwrap(), Some(val(7)));
    }

    #[test]
    fn node_exhaustion_reported() {
        let (m, t) = tree(2);
        let mut hit_full = false;
        for k in 0..200u64 {
            match t.insert(&m, k, &val(k)) {
                Ok(_) => {}
                Err(BtError::Full) => {
                    hit_full = true;
                    break;
                }
                Err(e) => panic!("{e:?}"),
            }
        }
        assert!(hit_full);
    }
}
