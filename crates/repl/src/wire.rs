//! The checkpoint-shipping wire format.
//!
//! Every frame is a self-contained byte string pushed into one
//! [`treesls_net::ReplChannel`] slot (the slot codec adds its own CRC, so
//! a flipped bit on the wire surfaces as `RingError::Corrupt` before the
//! frame is ever decoded; the decoder here only has to deal with
//! *structurally* bad frames, e.g. from a software bug, and it does so
//! with errors, never panics).
//!
//! Backup records travel as [`WireRecord`]: the kernel's own
//! `BackupObject`, each `OrootId` encoded as its raw `u64` (slot ids are
//! machine-local — the receiving machine re-assigns them on promotion),
//! except that a PMO's page radix is replaced by a page *manifest* of
//! `(index, version, crc)`. Page images travel in separate
//! [`Frame::Page`] frames so a delta only carries the pages whose content
//! actually changed.

use treesls_kernel::cap::CapRights;
use treesls_kernel::object::ObjType;
use treesls_kernel::oroot::{BackupObject, BkCap, BkRegion, BkThreadState};
use treesls_kernel::thread::ThreadContext;
use treesls_kernel::types::OrootId;

/// A replication frame. Deltas stream as `DeltaBegin · (Record | Page |
/// Tombstone)* · DeltaCommit`; snapshots as `SnapBegin · (Record | Page)*
/// · SnapCommit`. `Ack` and `ResyncRequest` flow on the ack ring.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Opens the delta for `round`; the counts let the replica verify it
    /// saw every frame before applying (a dropped frame fails the check).
    DeltaBegin {
        /// Primary's shipping epoch (bumped on failover/promotion).
        epoch: u64,
        /// Checkpoint round the delta carries the state of.
        round: u64,
        /// Number of `Record` frames in the delta.
        records: u32,
        /// Number of `Tombstone` frames in the delta.
        tombstones: u32,
        /// Number of `Page` frames in the delta.
        pages: u32,
    },
    /// One rewritten backup record.
    Record {
        /// Raw ORoot id of the record on the primary.
        oroot: u64,
        /// The record body in wire form.
        rec: WireRecord,
    },
    /// One 4 KiB page image of a PMO record in the same round.
    Page {
        /// Raw ORoot id of the owning PMO.
        oroot: u64,
        /// Page index within the PMO.
        idx: u64,
        /// Checkpoint version of the image.
        version: u64,
        /// CRC of `data`, cross-checked against the PMO's page manifest.
        crc: u32,
        /// The page image.
        data: Box<[u8; 4096]>,
    },
    /// An ORoot deleted this round.
    Tombstone {
        /// Raw ORoot id being deleted.
        oroot: u64,
    },
    /// Closes the delta; `root` is the root cap group's raw ORoot id.
    /// Applying is atomic at this frame.
    DeltaCommit {
        /// Primary's shipping epoch.
        epoch: u64,
        /// Round being committed.
        round: u64,
        /// Raw ORoot id of the root cap group.
        root: u64,
    },
    /// Opens a full-state transfer (resync) at `round`.
    SnapBegin {
        /// Primary's shipping epoch.
        epoch: u64,
        /// Round the snapshot captures.
        round: u64,
        /// Number of `Record` frames in the snapshot.
        records: u32,
        /// Number of `Page` frames in the snapshot.
        pages: u32,
    },
    /// Closes a full-state transfer; replaces the replica's store whole.
    SnapCommit {
        /// Primary's shipping epoch.
        epoch: u64,
        /// Round the snapshot captures.
        round: u64,
        /// Raw ORoot id of the root cap group.
        root: u64,
    },
    /// Replica → primary: `round` is durably applied on this replica.
    Ack {
        /// Epoch the ack belongs to (stale-epoch acks are ignored).
        epoch: u64,
        /// Highest round durably applied.
        round: u64,
    },
    /// Replica → primary: the delta stream is unusable (gap, corruption,
    /// fresh boot); ship a snapshot.
    ResyncRequest {
        /// Epoch the request was issued under.
        epoch: u64,
        /// Round the replica last applied (0 for a fresh store).
        applied_round: u64,
    },
}

/// A backup record in wire form.
///
/// Every object but a PMO travels as the kernel's own [`BackupObject`],
/// its ORoot references being the *primary's* ids (slot ids are
/// machine-local — promotion re-assigns them with
/// [`BackupObject::map_refs`]). A PMO travels as a page *manifest*
/// instead of its page radix; the images follow in separate
/// [`Frame::Page`] frames.
#[derive(Debug, Clone)]
pub enum WireRecord {
    /// Any non-PMO object; never a `BackupObject::Pmo`.
    Object(BackupObject),
    /// A physical memory object: geometry plus the page manifest
    /// `(index, version, crc)` the delta's `Page` frames must satisfy.
    Pmo {
        /// Page count.
        npages: u64,
        /// Whether the PMO is eternal (NVM-direct, never rolled back).
        eternal: bool,
        /// Checkpoint tick of the PMO's last sync.
        synced_tick: u64,
        /// Per-page manifest entries `(index, version, crc)`.
        pages: Vec<(u64, u64, u32)>,
    },
}

/// Two records are equal when they put the same bytes on the wire.
impl PartialEq for WireRecord {
    fn eq(&self, other: &Self) -> bool {
        let bytes = |r: &WireRecord| {
            let mut b = Vec::new();
            r.encode_into(&mut b);
            b
        };
        bytes(self) == bytes(other)
    }
}

/// Structural decode failures (distinct from wire corruption, which the
/// ring slot CRC catches before decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before its structure did.
    Truncated,
    /// Unknown frame or record tag.
    BadTag(u8),
    /// Bytes left over after a complete decode.
    Trailing,
}

// Frame tags.
const T_DELTA_BEGIN: u8 = 1;
const T_RECORD: u8 = 2;
const T_PAGE: u8 = 3;
const T_TOMBSTONE: u8 = 4;
const T_DELTA_COMMIT: u8 = 5;
const T_SNAP_BEGIN: u8 = 6;
const T_SNAP_COMMIT: u8 = 7;
const T_ACK: u8 = 8;
const T_RESYNC: u8 = 9;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// A bounds-checked little-endian reader over a frame.
struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let v = *self.buf.get(self.off).ok_or(WireError::Truncated)?;
        self.off += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.buf.get(self.off..self.off + 4).ok_or(WireError::Truncated)?;
        self.off += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.buf.get(self.off..self.off + 8).ok_or(WireError::Truncated)?;
        self.off += 8;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        let s = self.buf.get(self.off..self.off + n).ok_or(WireError::Truncated)?;
        self.off += n;
        Ok(s.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::Truncated)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

impl Frame {
    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match self {
            Frame::DeltaBegin { epoch, round, records, tombstones, pages } => {
                b.push(T_DELTA_BEGIN);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u32(&mut b, *records);
                put_u32(&mut b, *tombstones);
                put_u32(&mut b, *pages);
            }
            Frame::Record { oroot, rec } => {
                b.push(T_RECORD);
                put_u64(&mut b, *oroot);
                rec.encode_into(&mut b);
            }
            Frame::Page { oroot, idx, version, crc, data } => {
                b.reserve(4096 + 32);
                b.push(T_PAGE);
                put_u64(&mut b, *oroot);
                put_u64(&mut b, *idx);
                put_u64(&mut b, *version);
                put_u32(&mut b, *crc);
                b.extend_from_slice(&data[..]);
            }
            Frame::Tombstone { oroot } => {
                b.push(T_TOMBSTONE);
                put_u64(&mut b, *oroot);
            }
            Frame::DeltaCommit { epoch, round, root } => {
                b.push(T_DELTA_COMMIT);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u64(&mut b, *root);
            }
            Frame::SnapBegin { epoch, round, records, pages } => {
                b.push(T_SNAP_BEGIN);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u32(&mut b, *records);
                put_u32(&mut b, *pages);
            }
            Frame::SnapCommit { epoch, round, root } => {
                b.push(T_SNAP_COMMIT);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
                put_u64(&mut b, *root);
            }
            Frame::Ack { epoch, round } => {
                b.push(T_ACK);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *round);
            }
            Frame::ResyncRequest { epoch, applied_round } => {
                b.push(T_RESYNC);
                put_u64(&mut b, *epoch);
                put_u64(&mut b, *applied_round);
            }
        }
        b
    }

    /// Decodes one frame, rejecting truncation and trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader { buf, off: 0 };
        let frame = match r.u8()? {
            T_DELTA_BEGIN => Frame::DeltaBegin {
                epoch: r.u64()?,
                round: r.u64()?,
                records: r.u32()?,
                tombstones: r.u32()?,
                pages: r.u32()?,
            },
            T_RECORD => {
                let oroot = r.u64()?;
                let rec = WireRecord::decode_from(&mut r)?;
                Frame::Record { oroot, rec }
            }
            T_PAGE => {
                let oroot = r.u64()?;
                let idx = r.u64()?;
                let version = r.u64()?;
                let crc = r.u32()?;
                let s = r.buf.get(r.off..r.off + 4096).ok_or(WireError::Truncated)?;
                let mut data = Box::new([0u8; 4096]);
                data.copy_from_slice(s);
                r.off += 4096;
                Frame::Page { oroot, idx, version, crc, data }
            }
            T_TOMBSTONE => Frame::Tombstone { oroot: r.u64()? },
            T_DELTA_COMMIT => {
                Frame::DeltaCommit { epoch: r.u64()?, round: r.u64()?, root: r.u64()? }
            }
            T_SNAP_BEGIN => Frame::SnapBegin {
                epoch: r.u64()?,
                round: r.u64()?,
                records: r.u32()?,
                pages: r.u32()?,
            },
            T_SNAP_COMMIT => {
                Frame::SnapCommit { epoch: r.u64()?, round: r.u64()?, root: r.u64()? }
            }
            T_ACK => Frame::Ack { epoch: r.u64()?, round: r.u64()? },
            T_RESYNC => Frame::ResyncRequest { epoch: r.u64()?, applied_round: r.u64()? },
            t => return Err(WireError::BadTag(t)),
        };
        r.done()?;
        Ok(frame)
    }
}

// Record tags follow `ObjType::ALL` order.
const R_CAP_GROUP: u8 = 1;
const R_THREAD: u8 = 2;
const R_VMSPACE: u8 = 3;
const R_PMO: u8 = 4;
const R_IPC: u8 = 5;
const R_NOTIF: u8 = 6;
const R_IRQ: u8 = 7;

const TS_RUNNABLE: u8 = 0;
const TS_NOTIF: u8 = 1;
const TS_RECV: u8 = 2;
const TS_REPLY: u8 = 3;
const TS_EXITED: u8 = 4;

fn put_id(buf: &mut Vec<u8>, id: OrootId) {
    put_u64(buf, id.to_raw());
}

/// A `u32` count followed by each item.
fn put_list<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(buf, items.len() as u32);
    for item in items {
        put(buf, item);
    }
}

fn put_opt_id(buf: &mut Vec<u8>, id: Option<OrootId>) {
    match id {
        Some(id) => {
            buf.push(1);
            put_id(buf, id);
        }
        None => buf.push(0),
    }
}

impl Reader<'_> {
    fn id(&mut self) -> Result<OrootId, WireError> {
        Ok(OrootId::from_raw(self.u64()?))
    }

    /// The inverse of [`put_list`].
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.u32()? as usize;
        // Every item takes at least one byte: a count beyond the bytes left
        // is truncation, so it must not size the allocation.
        let mut out = Vec::with_capacity(n.min(self.buf.len() - self.off));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

impl WireRecord {
    /// The object type of the record.
    pub(crate) fn otype(&self) -> ObjType {
        match self {
            WireRecord::Object(rec) => rec.otype(),
            WireRecord::Pmo { .. } => ObjType::Pmo,
        }
    }

    fn encode_into(&self, b: &mut Vec<u8>) {
        let rec = match self {
            WireRecord::Pmo { npages, eternal, synced_tick, pages } => {
                b.push(R_PMO);
                put_u64(b, *npages);
                b.push(u8::from(*eternal));
                put_u64(b, *synced_tick);
                put_list(b, pages, |b, &(idx, version, crc)| {
                    put_u64(b, idx);
                    put_u64(b, version);
                    put_u32(b, crc);
                });
                return;
            }
            WireRecord::Object(rec) => rec,
        };
        let msg = |b: &mut Vec<u8>, (o, m): &(OrootId, Vec<u8>)| {
            put_id(b, *o);
            put_bytes(b, m);
        };
        match rec {
            BackupObject::CapGroup { name, caps } => {
                b.push(R_CAP_GROUP);
                put_bytes(b, name.as_bytes());
                put_list(b, caps, |b, c| {
                    put_opt_id(b, c.map(|c| c.oroot));
                    if let Some(c) = c {
                        put_u32(b, c.rights.0);
                    }
                });
            }
            BackupObject::Thread { ctx, state, program, cap_group, vmspace } => {
                b.push(R_THREAD);
                for r in ctx.regs {
                    put_u64(b, r);
                }
                put_u64(b, ctx.pc);
                let (tag, on) = match *state {
                    BkThreadState::Runnable => (TS_RUNNABLE, None),
                    BkThreadState::BlockedNotification(o) => (TS_NOTIF, Some(o)),
                    BkThreadState::BlockedIpcRecv(o) => (TS_RECV, Some(o)),
                    BkThreadState::BlockedIpcReply(o) => (TS_REPLY, Some(o)),
                    BkThreadState::Exited => (TS_EXITED, None),
                };
                b.push(tag);
                if let Some(o) = on {
                    put_id(b, o);
                }
                put_bytes(b, program.as_bytes());
                put_id(b, *cap_group);
                put_id(b, *vmspace);
            }
            BackupObject::VmSpace { regions } => {
                b.push(R_VMSPACE);
                put_list(b, regions, |b, rg| {
                    put_u64(b, rg.base);
                    put_u64(b, rg.npages);
                    put_id(b, rg.pmo);
                    put_u64(b, rg.pmo_off);
                    put_u32(b, rg.perm.0);
                });
            }
            BackupObject::Pmo { .. } => unreachable!("PMOs travel as WireRecord::Pmo"),
            BackupObject::IpcConnection { recv_waiter, queue, replies } => {
                b.push(R_IPC);
                put_opt_id(b, *recv_waiter);
                put_list(b, queue, msg);
                put_list(b, replies, msg);
            }
            BackupObject::Notification { count, waiters } => {
                b.push(R_NOTIF);
                put_u64(b, *count);
                put_list(b, waiters, |b, w| put_id(b, *w));
            }
            BackupObject::IrqNotification { line, count, waiters } => {
                b.push(R_IRQ);
                put_u32(b, *line);
                put_u64(b, *count);
                put_list(b, waiters, |b, w| put_id(b, *w));
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<WireRecord, WireError> {
        let opt_id = |r: &mut Reader<'_>| match r.u8()? {
            0 => Ok(None),
            _ => r.id().map(Some),
        };
        let msg = |r: &mut Reader<'_>| Ok((r.id()?, r.bytes()?));
        let rec = match r.u8()? {
            R_CAP_GROUP => BackupObject::CapGroup {
                name: r.string()?,
                caps: r.list(|r| {
                    let Some(oroot) = opt_id(r)? else { return Ok(None) };
                    Ok(Some(BkCap { oroot, rights: CapRights(r.u32()?) }))
                })?,
            },
            R_THREAD => {
                let mut ctx = ThreadContext::new();
                for reg in &mut ctx.regs {
                    *reg = r.u64()?;
                }
                ctx.pc = r.u64()?;
                let state = match r.u8()? {
                    TS_RUNNABLE => BkThreadState::Runnable,
                    TS_NOTIF => BkThreadState::BlockedNotification(r.id()?),
                    TS_RECV => BkThreadState::BlockedIpcRecv(r.id()?),
                    TS_REPLY => BkThreadState::BlockedIpcReply(r.id()?),
                    TS_EXITED => BkThreadState::Exited,
                    t => return Err(WireError::BadTag(t)),
                };
                let program = r.string()?;
                BackupObject::Thread { ctx, state, program, cap_group: r.id()?, vmspace: r.id()? }
            }
            R_VMSPACE => BackupObject::VmSpace {
                regions: r.list(|r| {
                    Ok(BkRegion {
                        base: r.u64()?,
                        npages: r.u64()?,
                        pmo: r.id()?,
                        pmo_off: r.u64()?,
                        perm: CapRights(r.u32()?),
                    })
                })?,
            },
            R_PMO => {
                return Ok(WireRecord::Pmo {
                    npages: r.u64()?,
                    eternal: r.u8()? != 0,
                    synced_tick: r.u64()?,
                    pages: r.list(|r| Ok((r.u64()?, r.u64()?, r.u32()?)))?,
                })
            }
            R_IPC => BackupObject::IpcConnection {
                recv_waiter: opt_id(r)?,
                queue: r.list(msg)?,
                replies: r.list(msg)?,
            },
            R_NOTIF => BackupObject::Notification { count: r.u64()?, waiters: r.list(Reader::id)? },
            R_IRQ => BackupObject::IrqNotification {
                line: r.u32()?,
                count: r.u64()?,
                waiters: r.list(Reader::id)?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        Ok(WireRecord::Object(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f, "roundtrip failed");
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(Frame::DeltaBegin { epoch: 1, round: 7, records: 3, tombstones: 1, pages: 9 });
        roundtrip(Frame::Tombstone { oroot: 0xdead });
        roundtrip(Frame::DeltaCommit { epoch: 1, round: 7, root: 42 });
        roundtrip(Frame::SnapBegin { epoch: 2, round: 9, records: 100, pages: 400 });
        roundtrip(Frame::SnapCommit { epoch: 2, round: 9, root: 42 });
        roundtrip(Frame::Ack { epoch: 2, round: 9 });
        roundtrip(Frame::ResyncRequest { epoch: 2, applied_round: 4 });
    }

    #[test]
    fn page_frame_roundtrips() {
        let mut data = Box::new([0u8; 4096]);
        data[0] = 0xab;
        data[4095] = 0xcd;
        roundtrip(Frame::Page { oroot: 5, idx: 17, version: 3, crc: 0x1234_5678, data });
    }

    fn id(raw: u64) -> OrootId {
        OrootId::from_raw(raw)
    }

    /// One record per variant, every reference a distinct raw id.
    fn records() -> Vec<WireRecord> {
        let mut ctx = ThreadContext::new();
        ctx.regs = [7; 16];
        ctx.pc = 3;
        let objects = vec![
            BackupObject::CapGroup {
                name: "root".into(),
                caps: vec![
                    Some(BkCap { oroot: id(1), rights: CapRights(0b111) }),
                    None,
                    Some(BkCap { oroot: id(9 | 3 << 32), rights: CapRights(0b1) }),
                ],
            },
            BackupObject::Thread {
                ctx,
                state: BkThreadState::BlockedIpcReply(id(12)),
                program: "kv-server".into(),
                cap_group: id(1),
                vmspace: id(2),
            },
            BackupObject::VmSpace {
                regions: vec![BkRegion {
                    base: 0x1000,
                    npages: 4,
                    pmo: id(8),
                    pmo_off: 0,
                    perm: CapRights(3),
                }],
            },
            BackupObject::IpcConnection {
                recv_waiter: Some(id(4)),
                queue: vec![(id(5), vec![1, 2, 3])],
                replies: vec![(id(6), vec![]), (id(7), vec![9])],
            },
            BackupObject::Notification { count: 2, waiters: vec![id(10), id(11)] },
            BackupObject::IrqNotification { line: 33, count: 0, waiters: vec![] },
        ];
        let mut recs: Vec<WireRecord> = objects.into_iter().map(WireRecord::Object).collect();
        recs.push(WireRecord::Pmo {
            npages: 16,
            eternal: true,
            synced_tick: 5,
            pages: vec![(0, 3, 0xaa), (7, 2, 0xbb)],
        });
        recs
    }

    #[test]
    fn every_record_variant_roundtrips() {
        for rec in records() {
            let Ok(Frame::Record { oroot: 99, rec: back }) =
                Frame::decode(&Frame::Record { oroot: 99, rec: rec.clone() }.encode())
            else {
                panic!("{rec:?} did not decode as a record");
            };
            assert_eq!(back.otype(), rec.otype());
            if let (WireRecord::Object(a), WireRecord::Object(b)) = (&back, &rec) {
                assert_eq!(a.edges(), b.edges(), "references survive the wire");
            }
            assert_eq!(back, rec, "roundtrip moved the bytes");
        }
    }

    #[test]
    fn truncation_and_bad_tags_are_errors_not_panics() {
        let control = Frame::DeltaCommit { epoch: 1, round: 2, root: 3 }.encode();
        let records = records().into_iter().map(|rec| Frame::Record { oroot: 99, rec }.encode());
        for full in std::iter::once(control.clone()).chain(records) {
            for cut in 0..full.len() {
                assert!(Frame::decode(&full[..cut]).is_err());
            }
        }
        assert_eq!(Frame::decode(&[0xff]), Err(WireError::BadTag(0xff)));
        let mut trailing = control;
        trailing.push(0);
        assert_eq!(Frame::decode(&trailing), Err(WireError::Trailing));
    }
}
