//! Version-tagged ring buffers in eternal PMOs (Figure 8 of the paper).
//!
//! A ring lives entirely inside an *eternal* PMO, so its contents and
//! pointers survive a power failure unmodified. Each message is tagged
//! with the committed global version at append time; a message becomes
//! externally visible only once a *later* checkpoint commits (its
//! producing state is then persistent), which is the paper's
//! `visible_writer` discipline:
//!
//! * [`push`] appends at `writer` with the current version tag;
//! * the checkpoint callback advances `visible_writer` past every message
//!   whose tag precedes the newly committed version;
//! * the restore callback truncates messages whose tag equals the restored
//!   version — their producing state was rolled back and the application
//!   "will re-send the message".
//!
//! Ring operations are expressed over the [`MemIo`] trait so the same code
//! runs from inside the SLS (a program's `UserCtx`, playing the modified
//! driver) and from the host (the external NIC/client side, playing DMA).

use treesls_kernel::types::KernelError;

/// Byte layout of the ring header (little-endian `u64` fields).
pub mod hdr {
    /// Consumer index (monotone message count).
    pub const READER: u64 = 0;
    /// Producer index (monotone message count).
    pub const WRITER: u64 = 8;
    /// Externally visible bound: messages below it may leave the system.
    pub const VISIBLE_WRITER: u64 = 16;
    /// Consumer acknowledgement used for overwrite protection (see
    /// `NetPort`): slots below it may be reused.
    pub const ACK: u64 = 24;
    /// Total header bytes before the slot array.
    pub const SIZE: u64 = 32;
}

/// Per-slot layout: `[version u64][seq u64][len u32][crc u32][payload ...]`.
///
/// The CRC-32 covers the version, sequence, length and payload bytes; it is
/// written last in [`push`], so a slot torn mid-write (or hit by media
/// faults) fails validation in [`read_at`] instead of yielding a
/// plausible-but-wrong message.
const SLOT_HDR: u64 = 24;

/// Checksum of a slot's contents (`version ++ seq ++ len ++ payload`).
fn slot_crc(version: u64, seq: u64, payload: &[u8]) -> u32 {
    use treesls_nvm::{crc32, crc32_update};
    let mut hdr = [0u8; 20];
    hdr[..8].copy_from_slice(&version.to_le_bytes());
    hdr[8..16].copy_from_slice(&seq.to_le_bytes());
    hdr[16..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    crc32_update(crc32(&hdr), payload)
}

/// Abstract byte-addressed memory: implemented by `UserCtx` (in-SLS
/// driver code) and by the host-side port (external DMA).
pub trait MemIo {
    /// Reads bytes at `addr`.
    fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError>;
    /// Writes bytes at `addr`.
    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError>;
    /// The committed global checkpoint version.
    fn version(&self) -> u64;

    /// Issues a synchronous persistence barrier (e.g. an `fsync` on a
    /// DAX file). A no-op for memory that needs no explicit flushing;
    /// baseline backends charge their WAL-flush latency here.
    fn flush(&self) {}

    /// Crash-injection hook: implementations backed by an
    /// [`treesls_nvm::CrashSchedule`] forward `site` to it so a fault
    /// schedule can cut execution between any two ring stores. The
    /// default is a no-op, so plain backends pay nothing.
    fn crash_hook(&self, _site: &'static str) {}

    /// Reads a little-endian `u64` at `addr`.
    fn mem_read_u64(&self, addr: u64) -> Result<u64, KernelError> {
        let mut b = [0u8; 8];
        self.mem_read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    fn mem_write_u64(&self, addr: u64, v: u64) -> Result<(), KernelError> {
        self.mem_write(addr, &v.to_le_bytes())
    }
}

/// Placement of one ring inside an address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingLayout {
    /// Base virtual address of the ring header (page-aligned by
    /// convention; must live in an eternal PMO).
    pub base: u64,
    /// Number of slots (any positive count).
    pub nslots: u64,
    /// Bytes per slot including the slot header.
    pub slot_size: u64,
}

impl RingLayout {
    /// Total bytes the ring occupies.
    pub fn byte_len(&self) -> u64 {
        hdr::SIZE + self.nslots * self.slot_size
    }

    /// Maximum payload bytes per message.
    pub fn max_payload(&self) -> usize {
        (self.slot_size - SLOT_HDR) as usize
    }

    fn slot_addr(&self, index: u64) -> u64 {
        self.base + hdr::SIZE + (index % self.nslots) * self.slot_size
    }
}

/// A message read from a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingMsg {
    /// Monotone sequence number (the message's ring index).
    pub seq: u64,
    /// Version tag at append time.
    pub version: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Metadata of a slot read by [`read_into`]; the payload itself lives in
/// the caller's reusable buffer (`buf[..info.len]`), so the hot path never
/// allocates a per-message `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// Monotone sequence number (the message's ring index).
    pub seq: u64,
    /// Version tag at append time.
    pub version: u64,
    /// Payload length in bytes (valid prefix of the caller's buffer).
    pub len: usize,
}

/// Errors from ring operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// No free slot (consumer/ack too far behind).
    Full,
    /// Payload exceeds the slot size.
    TooLarge,
    /// Ring header or slot metadata is self-inconsistent (e.g. `ack`
    /// ahead of `writer`, or a slot length beyond the slot capacity).
    /// Unlike [`RingError::Full`] this is not retryable: the eternal
    /// PMO's contents violate an invariant.
    Corrupt(&'static str),
    /// Underlying memory access failed.
    Mem(KernelError),
}

impl From<KernelError> for RingError {
    fn from(e: KernelError) -> Self {
        RingError::Mem(e)
    }
}

/// Initializes an empty ring at `layout` (all pointers zero).
pub fn init<M: MemIo>(io: &M, layout: &RingLayout) -> Result<(), KernelError> {
    io.mem_write_u64(layout.base + hdr::READER, 0)?;
    io.mem_write_u64(layout.base + hdr::WRITER, 0)?;
    io.mem_write_u64(layout.base + hdr::VISIBLE_WRITER, 0)?;
    io.mem_write_u64(layout.base + hdr::ACK, 0)
}

/// Appends a message tagged with the current version and `seq`.
///
/// The slot is reusable only when the consumer's acknowledgement has
/// passed it, protecting unprocessed (or un-checkpointed) messages from
/// overwrite.
pub fn push<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    seq: u64,
    payload: &[u8],
) -> Result<u64, RingError> {
    if payload.len() > layout.max_payload() {
        return Err(RingError::TooLarge);
    }
    let writer = io.mem_read_u64(layout.base + hdr::WRITER)?;
    let ack = io.mem_read_u64(layout.base + hdr::ACK)?;
    // `ack` trails `writer` by construction; an ack ahead of the writer
    // means the header was corrupted (and `writer - ack` would wrap to a
    // huge in-use count, wedging the ring as permanently full).
    let in_use = writer
        .checked_sub(ack)
        .ok_or(RingError::Corrupt("ring ack ahead of writer"))?;
    if in_use >= layout.nslots {
        return Err(RingError::Full);
    }
    write_slot(io, layout, writer, seq, payload)?;
    publish(io, layout, writer + 1)?;
    Ok(writer)
}

/// Writes a complete slot (header + payload) at ring index `index`
/// WITHOUT publishing it: the writer bump is deferred to [`publish`].
///
/// The slot header (version tag, sequence, length, CRC) goes out as one
/// contiguous store and the payload as a second — two `MemIo` round trips
/// per message instead of five, which matters when every access crosses
/// the soft-MMU translation layer.
fn write_slot<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    index: u64,
    seq: u64,
    payload: &[u8],
) -> Result<(), RingError> {
    let slot = layout.slot_addr(index);
    let version = io.version();
    let mut h = [0u8; SLOT_HDR as usize];
    h[..8].copy_from_slice(&version.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[20..24].copy_from_slice(&slot_crc(version, seq, payload).to_le_bytes());
    io.mem_write(slot, &h)?;
    io.mem_write(slot + SLOT_HDR, payload)?;
    Ok(())
}

/// Stages a message at ring index `index` without bumping the writer, for
/// batched producers: a poll server stages one response per request in a
/// round and then calls [`publish`] once, so the whole batch shares a
/// single persistence barrier and a single linearizing writer store.
///
/// `ack` is the consumer acknowledgement the caller already read for the
/// round (re-reading it per message would defeat the batching). Staged
/// slots are invisible until published: a crash before [`publish`] leaves
/// the writer untouched and the batch is simply re-staged on replay.
pub fn stage_at<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    index: u64,
    ack: u64,
    seq: u64,
    payload: &[u8],
) -> Result<(), RingError> {
    if payload.len() > layout.max_payload() {
        return Err(RingError::TooLarge);
    }
    let in_use = index
        .checked_sub(ack)
        .ok_or(RingError::Corrupt("ring ack ahead of writer"))?;
    if in_use >= layout.nslots {
        return Err(RingError::Full);
    }
    write_slot(io, layout, index, seq, payload)
}

/// Publishes every slot staged below `new_writer`: one persistence
/// barrier covering all staged slot contents, then a single writer store
/// as the batch's linearization point.
///
/// Ordering point: the slot contents (including checksums) must be
/// durable before the writer bump publishes them — under ADR an unflushed
/// slot line could otherwise be dropped while the bump survives, leaving
/// a published-but-torn slot. A crash between the flush and the store
/// leaves fully written slots that were never published.
pub fn publish<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    new_writer: u64,
) -> Result<(), RingError> {
    io.flush();
    io.crash_hook("ring.slot_written");
    io.mem_write_u64(layout.base + hdr::WRITER, new_writer)?;
    Ok(())
}

/// Reads the message at ring index `index` without consuming it.
///
/// A recorded length larger than the slot's payload capacity means the
/// slot header is corrupt; silently clamping would hand the caller a
/// truncated payload that parses as a shorter (wrong) message, so it is
/// reported as [`RingError::Corrupt`] instead.
pub fn read_at<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    index: u64,
) -> Result<RingMsg, RingError> {
    let mut payload = Vec::new();
    let info = read_into(io, layout, index, &mut payload)?;
    payload.truncate(info.len);
    Ok(RingMsg { seq: info.seq, version: info.version, payload })
}

/// Zero-copy variant of [`read_at`]: reads the slot at `index` into the
/// caller's reusable buffer and returns the validated metadata.
///
/// The buffer is grown to the ring's payload capacity on first use and
/// never shrunk, so a poll loop reading requests round after round does a
/// single allocation for the life of the server. The payload occupies
/// `buf[..info.len]`; the CRC is validated in place against exactly those
/// bytes before the caller sees them. Two `MemIo` round trips (one
/// 24-byte slot-header read, one payload read) replace the five of the
/// old per-field path.
pub fn read_into<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    index: u64,
    buf: &mut Vec<u8>,
) -> Result<SlotInfo, RingError> {
    let slot = layout.slot_addr(index);
    let mut h = [0u8; SLOT_HDR as usize];
    io.mem_read(slot, &mut h)?;
    let version = u64::from_le_bytes(h[..8].try_into().unwrap());
    let seq = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(h[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(h[20..24].try_into().unwrap());
    if len > layout.max_payload() {
        return Err(RingError::Corrupt("slot length exceeds payload capacity"));
    }
    if buf.len() < len {
        buf.resize(layout.max_payload(), 0);
    }
    io.mem_read(slot + SLOT_HDR, &mut buf[..len])?;
    if crc != slot_crc(version, seq, &buf[..len]) {
        return Err(RingError::Corrupt("slot checksum mismatch"));
    }
    Ok(SlotInfo { seq, version, len })
}

/// Pops the next message if one is available below `limit` (pass the
/// writer for internal consumption, the visible writer for external).
pub fn pop_below<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    limit_field: u64,
) -> Result<Option<RingMsg>, RingError> {
    let reader = io.mem_read_u64(layout.base + hdr::READER)?;
    let limit = io.mem_read_u64(layout.base + limit_field)?;
    if reader >= limit {
        return Ok(None);
    }
    let msg = read_at(io, layout, reader)?;
    io.mem_write_u64(layout.base + hdr::READER, reader + 1)?;
    Ok(Some(msg))
}

/// Reads a header field.
pub fn header<M: MemIo>(io: &M, layout: &RingLayout, field: u64) -> Result<u64, KernelError> {
    io.mem_read_u64(layout.base + field)
}

/// Writes a header field.
pub fn set_header<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    field: u64,
    v: u64,
) -> Result<(), KernelError> {
    io.mem_write_u64(layout.base + field, v)
}

/// Checkpoint callback body: advances `visible_writer` past every message
/// whose producing interval is now committed (`tag < committed`).
pub fn advance_visible<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    committed: u64,
) -> Result<u64, KernelError> {
    let visible = advance_visible_unfenced(io, layout, committed)?;
    // The visibility bound must be durable before any message below it
    // leaves the system.
    io.flush();
    Ok(visible)
}

/// [`advance_visible`] without the trailing persistence barrier, for
/// callers advancing *many* rings under one commit: a multi-queue NIC
/// advances every queue's bound and then issues a single barrier — the
/// cross-queue visibility barrier.
///
/// Deferring the fence is safe because the visible-writer store is
/// *derived* state: the tags it covers are already `< committed`, so a
/// crash that drops the unfenced store merely re-derives the same bound at
/// the next commit. No message leaves the system until the caller's
/// barrier completes, because consumers only pop below the visible writer
/// the caller publishes after flushing.
pub fn advance_visible_unfenced<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    committed: u64,
) -> Result<u64, KernelError> {
    advance_visible_capped_unfenced(io, layout, committed, u64::MAX)
}

/// [`advance_visible_unfenced`] with an upper index bound.
///
/// Under the epoch flip, producers keep running through the checkpoint's
/// copy phase: a message they append *after* the flip carries the
/// still-committed version tag, but its producing state belongs to the
/// **next** checkpoint interval. The caller snapshots the writer inside
/// the flip and passes it as `cap`; messages at indices `>= cap` stay
/// invisible until the commit that actually covers them.
pub fn advance_visible_capped_unfenced<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    committed: u64,
    cap: u64,
) -> Result<u64, KernelError> {
    let writer = io.mem_read_u64(layout.base + hdr::WRITER)?.min(cap);
    let mut visible = io.mem_read_u64(layout.base + hdr::VISIBLE_WRITER)?;
    while visible < writer {
        let slot = layout.slot_addr(visible);
        let tag = io.mem_read_u64(slot)?;
        if tag >= committed {
            break;
        }
        visible += 1;
    }
    // A crash here loses only the visibility advance; the committed tags
    // are still below `committed`, so the next checkpoint re-derives the
    // same bound.
    io.crash_hook("ring.pre_visible_store");
    io.mem_write_u64(layout.base + hdr::VISIBLE_WRITER, visible)?;
    Ok(visible)
}

/// Restore callback body: discards messages whose producing state was
/// rolled back (tag `>= restored`), as in Figure 8(d).
pub fn truncate_uncommitted<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    restored: u64,
) -> Result<u64, KernelError> {
    let writer = truncate_uncommitted_unfenced(io, layout, restored)?;
    // The truncation must be durable before the restored system resumes
    // producing messages into the reclaimed slots.
    io.flush();
    Ok(writer)
}

/// [`truncate_uncommitted`] without the trailing persistence barrier, for
/// restore paths reconciling many rings before one barrier. Truncation is
/// idempotent (re-running the walk reproduces the same writer), so the
/// deferred fence only delays, never weakens, the reconciliation.
pub fn truncate_uncommitted_unfenced<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    restored: u64,
) -> Result<u64, KernelError> {
    let reader = io.mem_read_u64(layout.base + hdr::READER)?;
    let mut writer = io.mem_read_u64(layout.base + hdr::WRITER)?;
    let visible = io.mem_read_u64(layout.base + hdr::VISIBLE_WRITER)?;
    // Walk back over rolled-back messages (never past what was already
    // made visible — those may have left the system).
    while writer > visible.max(reader) {
        let slot = layout.slot_addr(writer - 1);
        let tag = io.mem_read_u64(slot)?;
        if tag < restored {
            break;
        }
        writer -= 1;
    }
    // A crash here leaves the rolled-back slots published; re-running the
    // restore callback walks them back again (truncation is idempotent).
    io.crash_hook("ring.pre_truncate_store");
    io.mem_write_u64(layout.base + hdr::WRITER, writer)?;
    if visible > writer {
        io.mem_write_u64(layout.base + hdr::VISIBLE_WRITER, writer)?;
    }
    Ok(writer)
}

/// Checks the external-synchrony ring invariants after a restore to
/// version `restored`:
///
/// * pointer order `ack ≤ reader ≤ visible ≤ writer` (with ext-sync the
///   consumer only pops below the visible writer, so the reader can never
///   pass it);
/// * no still-published slot carries a tag from the rolled-back interval
///   (`tag ≥ restored`) — the restore callback must have truncated them.
///
/// Together these are the machine-checkable form of the §5 contract: a
/// message can leave the system only if its producing state survived.
pub fn check_ext_sync_invariants<M: MemIo>(
    io: &M,
    layout: &RingLayout,
    restored: u64,
) -> Result<(), String> {
    let reader = io.mem_read_u64(layout.base + hdr::READER).map_err(|e| format!("{e:?}"))?;
    let writer = io.mem_read_u64(layout.base + hdr::WRITER).map_err(|e| format!("{e:?}"))?;
    let visible =
        io.mem_read_u64(layout.base + hdr::VISIBLE_WRITER).map_err(|e| format!("{e:?}"))?;
    let ack = io.mem_read_u64(layout.base + hdr::ACK).map_err(|e| format!("{e:?}"))?;
    if ack > reader {
        return Err(format!("ack {ack} ahead of reader {reader}"));
    }
    if reader > visible {
        return Err(format!("reader {reader} ahead of visible writer {visible}"));
    }
    if visible > writer {
        return Err(format!("visible writer {visible} ahead of writer {writer}"));
    }
    for idx in reader..writer {
        let msg = match read_at(io, layout, idx) {
            Ok(m) => m,
            Err(e) => return Err(format!("slot {idx} unreadable: {e:?}")),
        };
        if msg.version >= restored {
            return Err(format!(
                "slot {idx} (seq {}) tagged v{} survived a restore to v{restored}",
                msg.seq, msg.version
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// A plain in-memory MemIo with a settable version, for unit tests.
    struct TestMem {
        bytes: Mutex<Vec<u8>>,
        version: std::sync::atomic::AtomicU64,
    }

    impl TestMem {
        fn new(len: usize) -> Self {
            Self {
                bytes: Mutex::new(vec![0; len]),
                version: std::sync::atomic::AtomicU64::new(0),
            }
        }
        fn set_version(&self, v: u64) {
            self.version.store(v, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl MemIo for TestMem {
        fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
            let g = self.bytes.lock();
            let a = addr as usize;
            buf.copy_from_slice(&g[a..a + buf.len()]);
            Ok(())
        }
        fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError> {
            let mut g = self.bytes.lock();
            let a = addr as usize;
            g[a..a + data.len()].copy_from_slice(data);
            Ok(())
        }
        fn version(&self) -> u64 {
            self.version.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    fn layout() -> RingLayout {
        RingLayout { base: 0, nslots: 4, slot_size: 84 }
    }

    fn mem() -> TestMem {
        let l = layout();
        TestMem::new(l.byte_len() as usize)
    }

    #[test]
    fn push_pop_roundtrip() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        let s0 = push(&m, &l, 100, b"hello").unwrap();
        assert_eq!(s0, 0);
        // Not yet visible externally...
        assert_eq!(pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap(), None);
        // ...but internally poppable below the writer.
        let msg = pop_below(&m, &l, hdr::WRITER).unwrap().unwrap();
        assert_eq!(msg.seq, 100);
        assert_eq!(msg.payload, b"hello");
        assert_eq!(msg.version, 0);
    }

    #[test]
    fn visibility_follows_commits() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        m.set_version(5);
        push(&m, &l, 1, b"a").unwrap(); // tag 5
        m.set_version(6);
        push(&m, &l, 2, b"b").unwrap(); // tag 6
        // Commit of version 6 makes only tag-5 messages visible.
        advance_visible(&m, &l, 6).unwrap();
        let msg = pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap().unwrap();
        assert_eq!(msg.seq, 1);
        assert_eq!(pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap(), None);
        // Commit of 7 releases the rest.
        advance_visible(&m, &l, 7).unwrap();
        assert_eq!(pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap().unwrap().seq, 2);
    }

    #[test]
    fn capped_advance_holds_back_post_epoch_messages() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        m.set_version(5);
        push(&m, &l, 1, b"pre").unwrap(); // tag 5, before the pause
        let cap = header(&m, &l, hdr::WRITER).unwrap(); // epoch snapshot
        push(&m, &l, 2, b"post").unwrap(); // tag 5, clean core after pause
        // Commit of 6 covers only the pre-pause message despite both tags
        // preceding it.
        advance_visible_capped_unfenced(&m, &l, 6, cap).unwrap();
        assert_eq!(header(&m, &l, hdr::VISIBLE_WRITER).unwrap(), 1);
        assert_eq!(pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap().unwrap().seq, 1);
        assert_eq!(pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap(), None);
        // The next commit (no cap in force) releases it.
        advance_visible(&m, &l, 7).unwrap();
        assert_eq!(pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap().unwrap().seq, 2);
    }

    #[test]
    fn truncate_discards_rolled_back_messages() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        m.set_version(3);
        push(&m, &l, 1, b"committed").unwrap(); // tag 3
        advance_visible(&m, &l, 4).unwrap(); // v4 committed, msg visible
        m.set_version(4);
        push(&m, &l, 2, b"lost").unwrap(); // tag 4, v5 never commits
        // Crash; restore to version 4.
        truncate_uncommitted(&m, &l, 4).unwrap();
        assert_eq!(header(&m, &l, hdr::WRITER).unwrap(), 1);
        let msg = pop_below(&m, &l, hdr::VISIBLE_WRITER).unwrap().unwrap();
        assert_eq!(msg.seq, 1);
        assert_eq!(pop_below(&m, &l, hdr::WRITER).unwrap(), None);
    }

    #[test]
    fn truncate_never_recalls_visible_messages() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        m.set_version(3);
        push(&m, &l, 1, b"sent").unwrap();
        // Force-visible (e.g. the commit raced the crash but the NIC
        // already transmitted): truncation must not move writer below it.
        set_header(&m, &l, hdr::VISIBLE_WRITER, 1).unwrap();
        truncate_uncommitted(&m, &l, 3).unwrap();
        assert_eq!(header(&m, &l, hdr::WRITER).unwrap(), 1);
    }

    #[test]
    fn full_ring_rejects_until_acked() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        for i in 0..4 {
            push(&m, &l, i, b"x").unwrap();
        }
        assert_eq!(push(&m, &l, 9, b"x"), Err(RingError::Full));
        set_header(&m, &l, hdr::ACK, 2).unwrap();
        push(&m, &l, 9, b"x").unwrap();
        push(&m, &l, 10, b"x").unwrap();
        assert_eq!(push(&m, &l, 11, b"x"), Err(RingError::Full));
    }

    #[test]
    fn ack_ahead_of_writer_is_corruption_not_full() {
        // Regression: `writer - ack` used to underflow (panic in debug,
        // wrap to a huge in-use count in release — a permanently "full"
        // ring) when a corrupted header put ack ahead of the writer.
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        push(&m, &l, 1, b"x").unwrap(); // writer = 1
        set_header(&m, &l, hdr::ACK, 5).unwrap(); // ack > writer
        assert_eq!(
            push(&m, &l, 2, b"y"),
            Err(RingError::Corrupt("ring ack ahead of writer"))
        );
    }

    #[test]
    fn oversize_slot_len_is_corruption_not_truncation() {
        // Regression: a slot whose recorded length exceeds the payload
        // capacity was silently clamped, handing the consumer a truncated
        // payload that parses as a different (shorter) message.
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        push(&m, &l, 7, b"payload").unwrap();
        // Corrupt the length field of slot 0.
        let slot = l.base + hdr::SIZE;
        m.mem_write(slot + 16, &(l.max_payload() as u32 + 1).to_le_bytes()).unwrap();
        assert_eq!(
            read_at(&m, &l, 0),
            Err(RingError::Corrupt("slot length exceeds payload capacity"))
        );
        // The error propagates through pop_below without consuming.
        assert!(matches!(
            pop_below(&m, &l, hdr::WRITER),
            Err(RingError::Corrupt(_))
        ));
        assert_eq!(header(&m, &l, hdr::READER).unwrap(), 0);
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        push(&m, &l, 3, b"checksummed").unwrap();
        // Flip one payload bit in slot 0.
        let off = l.base + hdr::SIZE + SLOT_HDR;
        let mut b = [0u8; 1];
        m.mem_read(off, &mut b).unwrap();
        m.mem_write(off, &[b[0] ^ 0x40]).unwrap();
        assert_eq!(
            read_at(&m, &l, 0),
            Err(RingError::Corrupt("slot checksum mismatch"))
        );
        // The error propagates through pop_below without consuming.
        assert!(matches!(pop_below(&m, &l, hdr::WRITER), Err(RingError::Corrupt(_))));
        assert_eq!(header(&m, &l, hdr::READER).unwrap(), 0);
    }

    #[test]
    fn corrupt_slot_header_fails_checksum() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        m.set_version(9);
        push(&m, &l, 4, b"tagged").unwrap();
        // Tamper with the version tag (would otherwise change visibility).
        m.mem_write_u64(l.base + hdr::SIZE, 2).unwrap();
        assert_eq!(
            read_at(&m, &l, 0),
            Err(RingError::Corrupt("slot checksum mismatch"))
        );
    }

    #[test]
    fn oversize_payload_rejected() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        let big = vec![0u8; l.max_payload() + 1];
        assert_eq!(push(&m, &l, 0, &big), Err(RingError::TooLarge));
    }

    #[test]
    fn read_into_reuses_buffer_without_allocating() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        m.set_version(2);
        push(&m, &l, 11, b"first message").unwrap();
        push(&m, &l, 12, b"2nd").unwrap();
        let mut buf = Vec::new();
        let a = read_into(&m, &l, 0, &mut buf).unwrap();
        assert_eq!(a, SlotInfo { seq: 11, version: 2, len: 13 });
        assert_eq!(&buf[..a.len], b"first message");
        // Buffer grew to the slot capacity once; the second read reuses it.
        let cap = buf.capacity();
        let b = read_into(&m, &l, 1, &mut buf).unwrap();
        assert_eq!(b, SlotInfo { seq: 12, version: 2, len: 3 });
        assert_eq!(&buf[..b.len], b"2nd");
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn read_into_validates_crc_over_exact_length() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        push(&m, &l, 5, b"checked").unwrap();
        // Flip a payload bit: the in-place validation must catch it even
        // though the buffer may hold stale bytes beyond `len`.
        let off = l.base + hdr::SIZE + SLOT_HDR;
        let mut b = [0u8; 1];
        m.mem_read(off, &mut b).unwrap();
        m.mem_write(off, &[b[0] ^ 0x01]).unwrap();
        let mut buf = vec![0xAA; 64];
        assert_eq!(
            read_into(&m, &l, 0, &mut buf),
            Err(RingError::Corrupt("slot checksum mismatch"))
        );
    }

    #[test]
    fn staged_slots_invisible_until_published() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        m.set_version(3);
        let writer = header(&m, &l, hdr::WRITER).unwrap();
        let ack = header(&m, &l, hdr::ACK).unwrap();
        stage_at(&m, &l, writer, ack, 20, b"a").unwrap();
        stage_at(&m, &l, writer + 1, ack, 21, b"b").unwrap();
        stage_at(&m, &l, writer + 2, ack, 22, b"c").unwrap();
        // Nothing published yet: consumers see an empty ring.
        assert_eq!(header(&m, &l, hdr::WRITER).unwrap(), 0);
        assert_eq!(pop_below(&m, &l, hdr::WRITER).unwrap(), None);
        // One publish releases the whole batch in order.
        publish(&m, &l, writer + 3).unwrap();
        for (i, seq) in [20u64, 21, 22].iter().enumerate() {
            let msg = pop_below(&m, &l, hdr::WRITER).unwrap().unwrap();
            assert_eq!(msg.seq, *seq, "message {i}");
            assert_eq!(msg.version, 3);
        }
    }

    #[test]
    fn stage_respects_capacity_against_snapshotted_ack() {
        let m = mem();
        let l = layout(); // 4 slots
        init(&m, &l).unwrap();
        let ack = 0;
        for i in 0..4 {
            stage_at(&m, &l, i, ack, i, b"x").unwrap();
        }
        assert_eq!(stage_at(&m, &l, 4, ack, 4, b"x"), Err(RingError::Full));
        // A fresher ack frees slots for staging.
        assert_eq!(stage_at(&m, &l, 4, 1, 4, b"x"), Ok(()));
        // Corrupt ack (ahead of index) is corruption, not Full.
        assert_eq!(
            stage_at(&m, &l, 2, 7, 9, b"x"),
            Err(RingError::Corrupt("ring ack ahead of writer"))
        );
    }

    #[test]
    fn slots_wrap_around() {
        let m = mem();
        let l = layout();
        init(&m, &l).unwrap();
        for round in 0..3u64 {
            for i in 0..4u64 {
                let seq = round * 4 + i;
                push(&m, &l, seq, format!("m{seq}").as_bytes()).unwrap();
            }
            for i in 0..4u64 {
                let seq = round * 4 + i;
                let msg = pop_below(&m, &l, hdr::WRITER).unwrap().unwrap();
                assert_eq!(msg.seq, seq);
                assert_eq!(msg.payload, format!("m{seq}").as_bytes());
            }
            set_header(&m, &l, hdr::ACK, (round + 1) * 4).unwrap();
        }
    }
}
