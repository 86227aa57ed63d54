//! B+ tree updated in place, in checkpointed service memory.
//!
//! The store keeps primary records and secondary-index entries in **one**
//! ordered tree over composite keys, so one commit covers both. A commit
//! edits the tree in place and stores only the bytes that change:
//!
//! * an overwrite stores the part of its leaf entry that differs;
//! * an insert or delete shifts entries inside its leaf and stores the
//!   shifted range plus the entry count;
//! * a split stores the new node, the split node's count and the parent's
//!   changed key and child slots; a root growth stores the new root.
//!
//! The header is one `{root, seq, alloc_next}` triple. Only a split
//! allocates a node (deletes are lazy: leaves may empty out, separators
//! stay), so nodes come from a bump watermark and are never freed.
//!
//! Two rules make a commit atomic without a log or a second copy:
//!
//! * **Step atomicity** covers crashes. The store lives in ordinary
//!   checkpointed process memory, and a service step never straddles a
//!   checkpoint round's cut: lockstep rounds run between steps, and the
//!   epoch flip waits out the steps in flight. A round therefore holds
//!   all of a commit or none of it, and a crash mid-commit restores the
//!   round before the commit began. The `txn.*` crash sites let fault
//!   enumeration check exactly that.
//! * **Undo on error** covers failed stores. Node capacity is checked
//!   before the first store, so [`TxnError::Full`] never leaves a partial
//!   commit. Every store logs the bytes it replaces; if a later store
//!   fails (NVM exhausted inside a CoW fault, say), the log is replayed in
//!   reverse and the region ends byte-identical to before the commit.

use treesls_extsync::MemIo;
use treesls_kernel::types::KernelError;

use crate::engine::TxnError;

/// Store magic (header word 0).
pub const MAGIC: u64 = 0x7A17_5713_0002;
/// Bytes per tree node (one page).
pub const NODE_SIZE: u64 = 4096;
/// Primary / secondary key length on the wire (matches the KV protocol).
pub const KEY_LEN: usize = 16;
/// Composite key length: space byte + 16-byte major + 16-byte minor.
pub const CKEY_LEN: usize = 33;
/// Value capacity per record.
pub const VAL_CAP: usize = 64;
/// Leaf entry: ckey + wseq + tag + vlen + val.
const ENTRY_LEN: usize = CKEY_LEN + 8 + KEY_LEN + 2 + VAL_CAP;
/// Max entries per leaf node.
pub const LEAF_MAX: usize = (NODE_SIZE as usize - 8) / ENTRY_LEN;
/// Max separator keys per inner node (children = keys + 1).
pub const INNER_MAX: usize = 99;
/// Byte offset of the child-pointer array inside an inner node.
const CHILD_OFF: usize = 8 + INNER_MAX * CKEY_LEN;

/// Key space tag for primary records (`ckey = [0x00, key, 0…]`).
pub const SPACE_PRIMARY: u8 = 0;
/// Key space tag for secondary-index entries (`ckey = [0x01, tag, key]`).
pub const SPACE_INDEX: u8 = 1;

/// Composite tree key: one space byte, a 16-byte major part and a
/// 16-byte minor part, compared lexicographically.
pub type CKey = [u8; CKEY_LEN];

/// Builds the primary-space composite key for `key`.
pub fn primary_key(key: &[u8; KEY_LEN]) -> CKey {
    let mut k = [0u8; CKEY_LEN];
    k[0] = SPACE_PRIMARY;
    k[1..1 + KEY_LEN].copy_from_slice(key);
    k
}

/// Builds the index-space composite key for `(tag, key)`: entries sort by
/// tag first, so an equal-tag range scan enumerates the tag's members.
pub fn index_key(tag: &[u8; KEY_LEN], key: &[u8; KEY_LEN]) -> CKey {
    let mut k = [0u8; CKEY_LEN];
    k[0] = SPACE_INDEX;
    k[1..1 + KEY_LEN].copy_from_slice(tag);
    k[1 + KEY_LEN..].copy_from_slice(key);
    k
}

/// The smallest and one-past-largest composite keys of a key space.
pub fn space_range(space: u8) -> (CKey, CKey) {
    let mut lo = [0u8; CKEY_LEN];
    lo[0] = space;
    let mut hi = [0xffu8; CKEY_LEN];
    hi[0] = space;
    (lo, hi)
}

/// Header offsets (all in page 0 of the store region).
mod off {
    /// Magic word.
    pub const MAGIC: u64 = 0;
    /// Node capacity.
    pub const NODE_CAP: u64 = 8;
    /// Root handle; the committed sequence and the allocator watermark
    /// follow it, so one read loads the whole [`super::Meta`].
    pub const ROOT: u64 = 16;
    /// Committed sequence number.
    pub const SEQ: u64 = 24;
    /// Allocator bump watermark.
    pub const ALLOC: u64 = 32;
}

/// One decoded record: composite key, last-writer sequence, index tag,
/// value bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The composite key this record is stored under.
    pub ckey: CKey,
    /// Sequence number of the transaction that last wrote it.
    pub wseq: u64,
    /// The secondary-index tag carried by primary records (zeros when
    /// unindexed; index-space entries keep it zeroed).
    pub tag: [u8; KEY_LEN],
    /// Value bytes (primary: the stored value; index: the member key).
    pub val: Vec<u8>,
}

/// One entry a commit writes into a leaf: key, writer sequence, index
/// tag, value.
struct PutEntry<'a> {
    ckey: &'a CKey,
    wseq: u64,
    tag: &'a [u8; KEY_LEN],
    val: &'a [u8],
}

/// One mutation of a commit's write set, in composite-key terms.
#[derive(Debug, Clone)]
pub enum StoreOp {
    /// Insert or overwrite a record.
    Put {
        /// Composite key to store under.
        ckey: CKey,
        /// Index tag recorded with the entry.
        tag: [u8; KEY_LEN],
        /// Value bytes (`len <= VAL_CAP`).
        val: Vec<u8>,
    },
    /// Remove a record if present.
    Del {
        /// Composite key to remove.
        ckey: CKey,
    },
}

impl StoreOp {
    fn ckey(&self) -> &CKey {
        match self {
            StoreOp::Put { ckey, .. } | StoreOp::Del { ckey } => ckey,
        }
    }
    /// True for index-space mutations (drives the `txn.index_update`
    /// crash site).
    pub fn is_index(&self) -> bool {
        self.ckey()[0] == SPACE_INDEX
    }
}

/// The store header: the committed tree and its allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Root node index + 1 (0 = empty tree).
    pub root: u64,
    /// Committed transaction sequence number.
    pub seq: u64,
    /// Allocator bump watermark (nodes below it are in use).
    pub alloc_next: u64,
}

/// Handle to a formatted store region inside one address space.
#[derive(Debug, Clone, Copy)]
pub struct TxnStore {
    /// Base address of the store region.
    pub base: u64,
    /// Maximum number of tree nodes.
    pub node_cap: u64,
}

/// Total bytes a store with `node_cap` nodes occupies (header page + the
/// node array).
pub fn region_len(node_cap: u64) -> u64 {
    4096 + node_cap * NODE_SIZE
}

/// Byte spans of a node a commit stores separately: the header, then the
/// entry array (leaf) or the key and child arrays (inner).
const LEAF_SPANS: [(usize, usize); 2] = [(0, 8), (8, NODE_SIZE as usize)];
const INNER_SPANS: [(usize, usize); 3] =
    [(0, 8), (8, CHILD_OFF), (CHILD_OFF, NODE_SIZE as usize)];

/// In-memory image of one node. A commit edits a copy and stores only
/// the bytes that differ from the image it read.
#[derive(Clone)]
struct Node {
    buf: Box<[u8; NODE_SIZE as usize]>,
}

impl Node {
    fn new_inner() -> Node {
        Node { buf: Box::new([0u8; NODE_SIZE as usize]) }
    }
    fn new_leaf() -> Node {
        let mut node = Node::new_inner();
        node.buf[0] = 1;
        node
    }
    fn is_leaf(&self) -> bool {
        self.buf[0] == 1
    }
    fn nkeys(&self) -> usize {
        u16::from_le_bytes([self.buf[2], self.buf[3]]) as usize
    }
    fn set_nkeys(&mut self, n: usize) {
        self.buf[2..4].copy_from_slice(&(n as u16).to_le_bytes());
    }
    fn is_full(&self) -> bool {
        self.nkeys() >= if self.is_leaf() { LEAF_MAX } else { INNER_MAX }
    }

    // ---- leaf accessors --------------------------------------------------
    fn entry_off(i: usize) -> usize {
        8 + i * ENTRY_LEN
    }
    fn leaf_key(&self, i: usize) -> &[u8] {
        let o = Self::entry_off(i);
        &self.buf[o..o + CKEY_LEN]
    }
    fn leaf_record(&self, i: usize) -> Record {
        let o = Self::entry_off(i);
        let wseq = u64::from_le_bytes(self.buf[o + CKEY_LEN..o + CKEY_LEN + 8].try_into().unwrap());
        let tag: [u8; KEY_LEN] =
            self.buf[o + CKEY_LEN + 8..o + CKEY_LEN + 8 + KEY_LEN].try_into().unwrap();
        let vo = o + CKEY_LEN + 8 + KEY_LEN;
        let vlen = u16::from_le_bytes(self.buf[vo..vo + 2].try_into().unwrap()) as usize;
        let vlen = vlen.min(VAL_CAP);
        Record {
            ckey: self.leaf_key(i).try_into().unwrap(),
            wseq,
            tag,
            val: self.buf[vo + 2..vo + 2 + vlen].to_vec(),
        }
    }
    fn set_leaf_entry(&mut self, i: usize, e: &PutEntry<'_>) {
        let o = Self::entry_off(i);
        self.buf[o..o + CKEY_LEN].copy_from_slice(e.ckey);
        self.buf[o + CKEY_LEN..o + CKEY_LEN + 8].copy_from_slice(&e.wseq.to_le_bytes());
        self.buf[o + CKEY_LEN + 8..o + CKEY_LEN + 8 + KEY_LEN].copy_from_slice(e.tag);
        let vo = o + CKEY_LEN + 8 + KEY_LEN;
        self.buf[vo..vo + 2].copy_from_slice(&(e.val.len() as u16).to_le_bytes());
        self.buf[vo + 2..vo + 2 + VAL_CAP].fill(0);
        self.buf[vo + 2..vo + 2 + e.val.len()].copy_from_slice(e.val);
    }
    /// The slot `ckey` occupies or would be inserted at, and whether it is
    /// present.
    fn leaf_find(&self, ckey: &CKey) -> (usize, bool) {
        let (mut lo, mut hi) = (0, self.nkeys());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.leaf_key(mid) < &ckey[..] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, lo < self.nkeys() && self.leaf_key(lo) == &ckey[..])
    }
    /// Inserts `e` at slot `i`, shifting later entries one slot back.
    fn leaf_insert(&mut self, i: usize, e: &PutEntry<'_>) {
        let n = self.nkeys();
        let src = Self::entry_off(i);
        self.buf.copy_within(src..Self::entry_off(n), src + ENTRY_LEN);
        self.set_leaf_entry(i, e);
        self.set_nkeys(n + 1);
    }
    /// Removes entry `i`, closing the gap.
    fn leaf_remove(&mut self, i: usize) {
        let n = self.nkeys();
        self.buf.copy_within(Self::entry_off(i + 1)..Self::entry_off(n), Self::entry_off(i));
        self.set_nkeys(n - 1);
    }

    // ---- inner accessors -------------------------------------------------
    fn key_off(i: usize) -> usize {
        8 + i * CKEY_LEN
    }
    fn child_off(i: usize) -> usize {
        CHILD_OFF + i * 8
    }
    fn inner_key(&self, i: usize) -> CKey {
        let o = Self::key_off(i);
        self.buf[o..o + CKEY_LEN].try_into().unwrap()
    }
    fn child(&self, i: usize) -> u64 {
        let o = Self::child_off(i);
        u64::from_le_bytes(self.buf[o..o + 8].try_into().unwrap())
    }
    fn set_child(&mut self, i: usize, c: u64) {
        let o = Self::child_off(i);
        self.buf[o..o + 8].copy_from_slice(&c.to_le_bytes());
    }
    /// Child slot covering `key`: the first separator greater than `key`
    /// selects its left child.
    fn route(&self, key: &CKey) -> usize {
        let (mut lo, mut hi) = (0, self.nkeys());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let o = Self::key_off(mid);
            if key[..] < self.buf[o..o + CKEY_LEN] {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
    /// Inserts separator `sep` at key slot `i` and child `right` at child
    /// slot `i + 1`, shifting later keys and children one slot back.
    fn inner_insert(&mut self, i: usize, sep: &CKey, right: u64) {
        let n = self.nkeys();
        let k = Self::key_off(i);
        self.buf.copy_within(k..Self::key_off(n), k + CKEY_LEN);
        self.buf[k..k + CKEY_LEN].copy_from_slice(sep);
        let c = Self::child_off(i + 1);
        self.buf.copy_within(c..Self::child_off(n + 1), c + 8);
        self.set_child(i + 1, right);
        self.set_nkeys(n + 1);
    }

    /// Moves the upper half of this full node into a new node. Returns the
    /// separator the parent gains and the new right node; this node keeps
    /// slots `[0, nkeys())`.
    fn split(&mut self) -> (CKey, Node) {
        let n = self.nkeys();
        let mid = n / 2;
        let (sep, mut right, kept) = if self.is_leaf() {
            let mut right = Node::new_leaf();
            let (src, end) = (Self::entry_off(mid), Self::entry_off(n));
            right.buf[8..8 + end - src].copy_from_slice(&self.buf[src..end]);
            (self.leaf_key(mid).try_into().unwrap(), right, n - mid)
        } else {
            // The middle key moves up; the right node takes the keys and
            // children after it.
            let mut right = Node::new_inner();
            let (src, end) = (Self::key_off(mid + 1), Self::key_off(n));
            right.buf[8..8 + end - src].copy_from_slice(&self.buf[src..end]);
            let (src, end) = (Self::child_off(mid + 1), Self::child_off(n + 1));
            right.buf[CHILD_OFF..CHILD_OFF + end - src].copy_from_slice(&self.buf[src..end]);
            (self.inner_key(mid), right, n - mid - 1)
        };
        right.set_nkeys(kept);
        self.set_nkeys(mid);
        (sep, right)
    }
}

impl TxnStore {
    fn node_base(&self, idx: u64) -> u64 {
        self.base + 4096 + idx * NODE_SIZE
    }

    /// Formats an empty store at `base` with room for `node_cap` nodes.
    pub fn format<M: MemIo>(io: &M, base: u64, node_cap: u64) -> Result<TxnStore, KernelError> {
        io.mem_write_u64(base + off::NODE_CAP, node_cap)?;
        io.mem_write(base + off::ROOT, &[0u8; 24])?;
        // Magic last, so a half-formatted region never attaches.
        io.mem_write_u64(base + off::MAGIC, MAGIC)?;
        Ok(TxnStore { base, node_cap })
    }

    /// Attaches to a previously formatted store.
    pub fn attach<M: MemIo>(io: &M, base: u64) -> Result<Option<TxnStore>, KernelError> {
        if io.mem_read_u64(base + off::MAGIC)? != MAGIC {
            return Ok(None);
        }
        let node_cap = io.mem_read_u64(base + off::NODE_CAP)?;
        Ok(Some(TxnStore { base, node_cap }))
    }

    /// Reads the header (the committed snapshot) in one access.
    pub fn meta<M: MemIo>(&self, io: &M) -> Result<Meta, KernelError> {
        let mut b = [0u8; 24];
        io.mem_read(self.base + off::ROOT, &mut b)?;
        let word = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        Ok(Meta { root: word(0), seq: word(1), alloc_next: word(2) })
    }

    fn root<M: MemIo>(&self, io: &M) -> Result<u64, KernelError> {
        io.mem_read_u64(self.base + off::ROOT)
    }

    fn read_node<M: MemIo>(&self, io: &M, idx: u64) -> Result<Node, KernelError> {
        let mut node = Node::new_inner();
        io.mem_read(self.node_base(idx), &mut node.buf[..])?;
        Ok(node)
    }

    /// Walks from `root` (non-zero) to the leaf covering `ckey`, pushing
    /// each inner node and the child slot taken onto `path`.
    fn descend<M: MemIo>(
        &self,
        io: &M,
        root: u64,
        ckey: &CKey,
        path: &mut Vec<(u64, Node, usize)>,
    ) -> Result<(u64, Node), KernelError> {
        let mut idx = root - 1;
        loop {
            let node = self.read_node(io, idx)?;
            if node.is_leaf() {
                return Ok((idx, node));
            }
            let slot = node.route(ckey);
            let child = node.child(slot);
            path.push((idx, node, slot));
            idx = child;
        }
    }

    /// Point lookup. Returns `None` when absent.
    pub fn get<M: MemIo>(&self, io: &M, ckey: &CKey) -> Result<Option<Record>, KernelError> {
        let root = self.root(io)?;
        if root == 0 {
            return Ok(None);
        }
        let (_, leaf) = self.descend(io, root, ckey, &mut Vec::new())?;
        let (i, found) = leaf.leaf_find(ckey);
        Ok(found.then(|| leaf.leaf_record(i)))
    }

    /// In-order range scan `[lo, hi)`, stopping after `limit` records.
    pub fn scan<M: MemIo>(
        &self,
        io: &M,
        lo: &CKey,
        hi: &CKey,
        limit: usize,
    ) -> Result<Vec<Record>, KernelError> {
        let root = self.root(io)?;
        let mut out = Vec::new();
        if root != 0 && limit > 0 {
            self.scan_node(io, root - 1, lo, hi, limit, &mut out)?;
        }
        Ok(out)
    }

    fn scan_node<M: MemIo>(
        &self,
        io: &M,
        idx: u64,
        lo: &CKey,
        hi: &CKey,
        limit: usize,
        out: &mut Vec<Record>,
    ) -> Result<(), KernelError> {
        let node = self.read_node(io, idx)?;
        if node.is_leaf() {
            for i in 0..node.nkeys() {
                if out.len() >= limit {
                    return Ok(());
                }
                let k = node.leaf_key(i);
                if k >= &hi[..] {
                    return Ok(());
                }
                if k >= &lo[..] {
                    out.push(node.leaf_record(i));
                }
            }
            return Ok(());
        }
        let n = node.nkeys();
        for i in 0..=n {
            if out.len() >= limit {
                return Ok(());
            }
            // Child i covers [key[i-1], key[i]): prune subtrees fully
            // outside the range.
            if i > 0 && node.inner_key(i - 1) >= *hi {
                return Ok(());
            }
            if i < n && node.inner_key(i) <= *lo {
                continue;
            }
            self.scan_node(io, node.child(i), lo, hi, limit, out)?;
        }
        Ok(())
    }

    /// Applies one commit's write set in place and publishes it as
    /// sequence `new_seq`. Fails with [`TxnError::Full`] before the first
    /// store when the nodes left might not cover the commit's splits; any
    /// other failed store undoes every store before it. Named crash sites
    /// fire before each index mutation and on either side of the `seq`
    /// store.
    pub fn commit_apply<M: MemIo>(
        &self,
        io: &M,
        ops: &[StoreOp],
        new_seq: u64,
    ) -> Result<(), TxnError> {
        let meta = self.meta(io).map_err(|_| TxnError::Io)?;
        // Every inner node has at least two children, so a tree of
        // `alloc_next` nodes is at most ⌊log2 alloc_next⌋ + 1 levels high,
        // and one put allocates at most a node per level plus a new root.
        let height = u64::from(u64::BITS - meta.alloc_next.leading_zeros());
        let puts = ops.iter().filter(|op| matches!(op, StoreOp::Put { .. })).count() as u64;
        if meta.alloc_next + puts * (height + 1) > self.node_cap {
            return Err(TxnError::Full);
        }
        let mut commit =
            Commit { tree: self, io, root: meta.root, alloc_next: meta.alloc_next, undo: Vec::new() };
        let res = commit.apply(ops, &meta, new_seq);
        if res.is_err() {
            commit.undo();
        }
        res
    }
}

/// One commit in progress: the header as the commit has changed it so
/// far, and the bytes every store replaced.
struct Commit<'a, M: MemIo> {
    tree: &'a TxnStore,
    io: &'a M,
    root: u64,
    alloc_next: u64,
    /// `(addr, replaced bytes)` per store, in store order.
    undo: Vec<(u64, Vec<u8>)>,
}

impl<M: MemIo> Commit<'_, M> {
    fn apply(&mut self, ops: &[StoreOp], meta: &Meta, new_seq: u64) -> Result<(), TxnError> {
        for op in ops {
            if op.is_index() {
                // An index entry is about to change: a crash here must never
                // surface a primary write without its index entry (or vice
                // versa).
                self.io.crash_hook("txn.index_update");
            }
            match op {
                StoreOp::Put { ckey, tag, val } => {
                    self.put(&PutEntry { ckey, wseq: new_seq, tag, val: val.as_slice() })?
                }
                StoreOp::Del { ckey } => self.del(ckey)?,
            }
        }
        self.store_word(off::ROOT, meta.root, self.root)?;
        self.store_word(off::ALLOC, meta.alloc_next, self.alloc_next)?;
        self.io.crash_hook("txn.pre_publish");
        self.store_word(off::SEQ, meta.seq, new_seq)?;
        self.io.crash_hook("txn.commit_visible");
        Ok(())
    }

    /// Stores `new` over `old` at `addr`, logging `old` first so a failed
    /// store is undone too.
    fn store(&mut self, addr: u64, old: &[u8], new: &[u8]) -> Result<(), TxnError> {
        self.undo.push((addr, old.to_vec()));
        self.io.mem_write(addr, new).map_err(|_| TxnError::Io)
    }

    fn store_word(&mut self, field: u64, old: u64, new: u64) -> Result<(), TxnError> {
        if old == new {
            return Ok(());
        }
        self.store(self.tree.base + field, &old.to_le_bytes(), &new.to_le_bytes())
    }

    /// Replays the undo log in reverse. A replayed store can fail only
    /// where the failed store never landed, so its error is moot.
    fn undo(self) {
        for (addr, old) in self.undo.iter().rev() {
            let _ = self.io.mem_write(*addr, old);
        }
    }

    /// Stores node `idx` as `after`, given `before`, its bytes in memory:
    /// per span, from the first to the last byte that differs.
    fn write_back(&mut self, idx: u64, before: &Node, after: &Node) -> Result<(), TxnError> {
        let spans: &[(usize, usize)] = if after.is_leaf() { &LEAF_SPANS } else { &INNER_SPANS };
        for &(start, end) in spans {
            let (old, new) = (&before.buf[start..end], &after.buf[start..end]);
            let Some(lo) = old.iter().zip(new).position(|(a, b)| a != b) else { continue };
            let tail = old.iter().rev().zip(new.iter().rev()).position(|(a, b)| a != b);
            let hi = old.len() - tail.unwrap_or(0);
            let addr = self.tree.node_base(idx) + (start + lo) as u64;
            self.store(addr, &old[lo..hi], &new[lo..hi])?;
        }
        Ok(())
    }

    /// Takes the next node off the watermark, with its current bytes.
    fn alloc(&mut self) -> Result<(u64, Node), TxnError> {
        if self.alloc_next >= self.tree.node_cap {
            return Err(TxnError::Full);
        }
        let idx = self.alloc_next;
        self.alloc_next += 1;
        Ok((idx, self.tree.read_node(self.io, idx).map_err(|_| TxnError::Io)?))
    }

    /// Applies `edit` at slot `pos` of node `idx` (memory image `before`),
    /// splitting the node first when it is full. Returns the separator and
    /// new node the parent gains from a split.
    fn insert_at(
        &mut self,
        idx: u64,
        before: &Node,
        pos: usize,
        edit: &dyn Fn(&mut Node, usize),
    ) -> Result<Option<(CKey, u64)>, TxnError> {
        let mut left = before.clone();
        if !before.is_full() {
            edit(&mut left, pos);
            return self.write_back(idx, before, &left).map(|()| None);
        }
        let (ridx, rbefore) = self.alloc()?;
        let (sep, mut right) = left.split();
        // The right node's first slot held slot `mid` of a leaf, but slot
        // `mid + 1` of an inner node (the middle key moved up).
        let mid = left.nkeys();
        if pos <= mid {
            edit(&mut left, pos);
        } else {
            edit(&mut right, pos - mid - usize::from(!left.is_leaf()));
        }
        self.write_back(ridx, &rbefore, &right)?;
        self.write_back(idx, before, &left)?;
        Ok(Some((sep, ridx)))
    }

    fn put(&mut self, e: &PutEntry<'_>) -> Result<(), TxnError> {
        if self.root == 0 {
            let (idx, before) = self.alloc()?;
            let mut leaf = Node::new_leaf();
            leaf.leaf_insert(0, e);
            self.root = idx + 1;
            return self.write_back(idx, &before, &leaf);
        }
        let mut path = Vec::new();
        let (idx, leaf) =
            self.tree.descend(self.io, self.root, e.ckey, &mut path).map_err(|_| TxnError::Io)?;
        let (pos, found) = leaf.leaf_find(e.ckey);
        if found {
            let mut after = leaf.clone();
            after.set_leaf_entry(pos, e);
            return self.write_back(idx, &leaf, &after);
        }
        // Insert bottom-up: each split hands a separator to the parent.
        let mut carry = self.insert_at(idx, &leaf, pos, &|n, i| n.leaf_insert(i, e))?;
        let mut left = idx;
        while let Some((sep, right)) = carry {
            let Some((pidx, parent, slot)) = path.pop() else {
                // The root split: grow a new root above both halves.
                let (top, before) = self.alloc()?;
                let mut node = Node::new_inner();
                node.set_child(0, left);
                node.inner_insert(0, &sep, right);
                self.root = top + 1;
                return self.write_back(top, &before, &node);
            };
            carry = self.insert_at(pidx, &parent, slot, &|n, i| n.inner_insert(i, &sep, right))?;
            left = pidx;
        }
        Ok(())
    }

    /// Lazy delete: leaves may empty out, separators stay.
    fn del(&mut self, ckey: &CKey) -> Result<(), TxnError> {
        if self.root == 0 {
            return Ok(());
        }
        let (idx, leaf) =
            self.tree.descend(self.io, self.root, ckey, &mut Vec::new()).map_err(|_| TxnError::Io)?;
        let (pos, found) = leaf.leaf_find(ckey);
        if !found {
            return Ok(());
        }
        let mut after = leaf.clone();
        after.leaf_remove(pos);
        self.write_back(idx, &leaf, &after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{check_index_consistency, txn_commit, TxnState, WriteOp};
    use crate::testio::{key, Flat};

    fn put(i: u64, tag: u64, v: u64) -> StoreOp {
        StoreOp::Put { ckey: primary_key(&key(i)), tag: key(tag), val: v.to_le_bytes().to_vec() }
    }

    fn store(node_cap: u64) -> (Flat, TxnStore) {
        let io = Flat::new(region_len(node_cap) as usize);
        let s = TxnStore::format(&io, 0, node_cap).unwrap();
        (io, s)
    }

    #[test]
    fn put_get_roundtrip_and_seq() {
        let (io, s) = store(64);
        s.commit_apply(&io, &[put(1, 0, 10), put(2, 0, 20)], 1).unwrap();
        let r = s.get(&io, &primary_key(&key(1))).unwrap().unwrap();
        assert_eq!(r.val, 10u64.to_le_bytes().to_vec());
        assert_eq!(r.wseq, 1);
        assert_eq!(s.meta(&io).unwrap().seq, 1);
        assert!(s.get(&io, &primary_key(&key(3))).unwrap().is_none());
    }

    #[test]
    fn overwrite_updates_wseq_and_value() {
        let (io, s) = store(64);
        s.commit_apply(&io, &[put(7, 0, 1)], 1).unwrap();
        s.commit_apply(&io, &[put(7, 0, 2)], 2).unwrap();
        let r = s.get(&io, &primary_key(&key(7))).unwrap().unwrap();
        assert_eq!(r.wseq, 2);
        assert_eq!(r.val, 2u64.to_le_bytes().to_vec());
    }

    #[test]
    fn delete_removes_and_survives_absent_delete() {
        let (io, s) = store(64);
        s.commit_apply(&io, &[put(1, 0, 1), put(2, 0, 2)], 1).unwrap();
        s.commit_apply(&io, &[StoreOp::Del { ckey: primary_key(&key(1)) }], 2).unwrap();
        assert!(s.get(&io, &primary_key(&key(1))).unwrap().is_none());
        assert!(s.get(&io, &primary_key(&key(2))).unwrap().is_some());
        // Deleting an absent key is a no-op, not an error.
        s.commit_apply(&io, &[StoreOp::Del { ckey: primary_key(&key(9)) }], 3).unwrap();
        assert_eq!(s.meta(&io).unwrap().seq, 3);
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let (io, s) = store(256);
        let ops: Vec<StoreOp> = (0..100).rev().map(|i| put(i, 0, i)).collect();
        s.commit_apply(&io, &ops, 1).unwrap();
        let (lo, hi) = space_range(SPACE_PRIMARY);
        let all = s.scan(&io, &lo, &hi, 1000).unwrap();
        assert_eq!(all.len(), 100);
        for w in all.windows(2) {
            assert!(w[0].ckey < w[1].ckey);
        }
        let some = s.scan(&io, &primary_key(&key(10)), &primary_key(&key(20)), 1000).unwrap();
        assert_eq!(some.len(), 10);
        let capped = s.scan(&io, &lo, &hi, 7).unwrap();
        assert_eq!(capped.len(), 7);
    }

    #[test]
    fn splits_preserve_every_key() {
        let (io, s) = store(512);
        let mut expect: std::collections::BTreeMap<u64, u64> = Default::default();
        for seq in 1..=3000u64 {
            let k = seq * 7919 % 5000;
            s.commit_apply(&io, &[put(k, 0, seq)], seq).unwrap();
            expect.insert(k, seq);
        }
        // 3000 random-order inserts into 33-entry leaves split inner
        // nodes too, not only leaves.
        assert!(s.meta(&io).unwrap().alloc_next > INNER_MAX as u64 + 2);
        for (k, v) in &expect {
            let r = s.get(&io, &primary_key(&key(*k))).unwrap().unwrap();
            assert_eq!(r.val, v.to_le_bytes().to_vec(), "key {k}");
        }
        let (lo, hi) = space_range(SPACE_PRIMARY);
        let all = s.scan(&io, &lo, &hi, usize::MAX).unwrap();
        let keys: Vec<CKey> = expect.keys().map(|k| primary_key(&key(*k))).collect();
        assert_eq!(all.iter().map(|r| r.ckey).collect::<Vec<_>>(), keys);
    }

    #[test]
    fn index_entries_share_the_commit() {
        let (io, s) = store(128);
        let k = key(1);
        let tag = key(77);
        let ops = vec![
            StoreOp::Put { ckey: primary_key(&k), tag, val: vec![9] },
            StoreOp::Put { ckey: index_key(&tag, &k), tag: [0; KEY_LEN], val: k.to_vec() },
        ];
        s.commit_apply(&io, &ops, 1).unwrap();
        let idx = s.get(&io, &index_key(&tag, &k)).unwrap().unwrap();
        assert_eq!(idx.val, k.to_vec());
        // Index range scan by tag prefix finds the member.
        let lo = index_key(&tag, &[0u8; KEY_LEN]);
        let hi = index_key(&tag, &[0xffu8; KEY_LEN]);
        let hits = s.scan(&io, &lo, &hi, 10).unwrap();
        assert_eq!(hits.len(), 1);
    }

    /// Commits `writes` as one auto-commit transaction.
    fn commit(s: &TxnStore, io: &Flat, writes: &[WriteOp]) -> Result<u64, TxnError> {
        let mut t = TxnState::new(u64::MAX);
        t.writes = writes.to_vec();
        txn_commit(s, io, &t)
    }

    fn tagged(i: u64, tag: u64, v: u64) -> WriteOp {
        WriteOp { key: key(i), tag: key(tag), val: Some(v.to_le_bytes().to_vec()) }
    }

    /// A store whose next ascending insert splits a full leaf, splits the
    /// full inner root and grows a new root above it. Key 0 carries tag 5,
    /// keys `1..n` are untagged.
    fn store_on_the_verge_of_growing() -> (Flat, TxnStore, u64) {
        let (io, s) = store(512);
        commit(&s, &io, &[tagged(0, 5, 0)]).unwrap();
        let mut n = 1;
        loop {
            let root = s.read_node(&io, s.meta(&io).unwrap().root - 1).unwrap();
            if !root.is_leaf() && root.is_full() {
                // Ascending primary keys land in the rightmost leaf, just
                // before key 0's index entry.
                let last = s.read_node(&io, root.child(root.nkeys())).unwrap();
                if last.is_full() {
                    return (io, s, n);
                }
            }
            commit(&s, &io, &[WriteOp { key: key(n), tag: [0; KEY_LEN], val: Some(vec![1]) }])
                .unwrap();
            n += 1;
        }
    }

    /// Fails every store of every kind of commit in turn: each failure
    /// must leave the region byte-identical and the index consistent.
    #[test]
    fn a_failed_store_leaves_the_region_byte_identical() {
        let (io, s, n) = store_on_the_verge_of_growing();
        let cases: [(&str, Vec<WriteOp>); 4] = [
            ("overwrite", vec![tagged(0, 5, 99)]),
            ("retag", vec![tagged(0, 6, 99)]),
            ("split+grow", vec![tagged(n, 3, 1)]),
            ("delete", vec![WriteOp { key: key(0), tag: [0; KEY_LEN], val: None }]),
        ];
        for (name, writes) in cases {
            let dry = io.clone();
            dry.stores.set(0);
            commit(&s, &dry, &writes).unwrap();
            let stores = dry.stores.get();
            eprintln!("txn {name}: {stores} stores, {} B", dry.bytes.get() - io.bytes.get());
            if name == "split+grow" {
                let grown = s.meta(&dry).unwrap().alloc_next - s.meta(&io).unwrap().alloc_next;
                assert_eq!(grown, 3, "leaf split, root split and a new root");
            }
            for k in 0..stores {
                let run = io.clone();
                run.stores.set(0);
                run.fail_at.set(k);
                assert_eq!(commit(&s, &run, &writes), Err(TxnError::Io), "{name}: store {k}");
                assert!(*run.mem.borrow() == *io.mem.borrow(), "{name}: store {k} left bytes");
                check_index_consistency(&s, &run).unwrap();
            }
        }
    }

    /// A commit whose overwrite would store before its insert runs out of
    /// nodes must fail before the overwrite, not undo it afterwards.
    #[test]
    fn full_store_reports_full_before_any_store() {
        let (io, s, n) = store_on_the_verge_of_growing();
        let writes = [tagged(0, 5, 99), tagged(n, 0, 1)];
        // One node short of the split, the root split and the new root.
        let short = TxnStore { node_cap: s.meta(&io).unwrap().alloc_next + 2, ..s };
        let run = io.clone();
        assert_eq!(commit(&short, &run, &writes), Err(TxnError::Full));
        assert_eq!(run.stores.get(), io.stores.get(), "Full after a store");
        commit(&s, &run, &writes).unwrap();
        assert_eq!(check_index_consistency(&s, &run), Ok(n as usize + 1));
    }

    /// The write-cost guard: an overwrite stores the entry bytes that
    /// changed, not nodes, and never allocates.
    #[test]
    fn overwrite_commits_store_bytes_not_nodes() {
        let (io, s) = store(128);
        for i in 0..40 {
            commit(&s, &io, &[tagged(i, i % 5, i)]).unwrap();
        }
        let alloc_next = s.meta(&io).unwrap().alloc_next;
        let bytes = io.bytes.get();
        commit(&s, &io, &[tagged(7, 7 % 5, 1000)]).unwrap();
        let one = io.bytes.get() - bytes;
        eprintln!("txn tagged overwrite commit: {one} B");
        assert!(one <= 256, "a tagged overwrite commit stored {one} B");
        for seq in 0..500u64 {
            commit(&s, &io, &[tagged(seq % 40, seq % 40 % 5, seq)]).unwrap();
        }
        assert_eq!(s.meta(&io).unwrap().alloc_next, alloc_next);
        assert_eq!(check_index_consistency(&s, &io), Ok(40));
    }
}
