//! The committed image: one read-only view of the backup capability tree
//! at the committed version (§4.4, Figure 5 ❼).
//!
//! Every reader of a committed checkpoint — [`restore`](crate::restore()),
//! [`verify_checkpoint`](crate::CheckpointManager::verify_checkpoint),
//! [`scrub`](crate::CheckpointManager::scrub) and the replication shipper
//! — makes the same three decisions, and makes them here:
//!
//! * which record of an ORoot is the committed one
//!   ([`CommittedImage::record`]);
//! * which objects the root reaches ([`CommittedImage::walk`]);
//! * which bytes are a page's committed image, and whether they are intact
//!   ([`CommittedImage::page`], [`CommittedImage::read`],
//!   [`CommittedImage::check`]).
//!
//! Opening an image is O(1): it reads the commit version and the root and
//! nothing else, so the per-round delta shipper never pays for a walk.

use std::collections::HashSet;

use treesls_kernel::kernel::Persistent;
use treesls_kernel::object::ObjType;
use treesls_kernel::oroot::{BackupObject, VersionedBackup};
use treesls_kernel::pmo::{PageMeta, PagePtr};
use treesls_kernel::types::{KernelError, OrootId};
use treesls_nvm::{FrameId, PAGE_SIZE};

pub use treesls_kernel::pmo::PageSource;

/// Why a committed image cannot be read (or revived) as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageError {
    /// No checkpoint has committed: there is no root to read from.
    NoCommit,
    /// A reachable reference names an ORoot that is gone or was deleted
    /// by a committed checkpoint.
    Dangling(OrootId),
    /// A live ORoot has no committed backup record.
    MissingRecord(OrootId),
    /// The committed record's type differs from its ORoot's.
    TypeMismatch {
        /// The ORoot whose record is wrong.
        oroot: OrootId,
        /// The ORoot's (fixed) object type.
        expected: ObjType,
        /// The type of the record its committed slot holds.
        found: ObjType,
    },
}

impl From<ImageError> for KernelError {
    fn from(e: ImageError) -> Self {
        match e {
            ImageError::NoCommit => KernelError::InvalidState("no committed checkpoint to restore"),
            ImageError::Dangling(_) => KernelError::DeadObject,
            ImageError::MissingRecord(_) | ImageError::TypeMismatch { .. } => {
                KernelError::InvalidState("committed record missing or of the wrong type")
            }
        }
    }
}

/// The integrity verdict on one page of a committed image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCheck {
    /// The committed source is intact (or carries no checksum to check).
    Intact(PageSource),
    /// The committed source failed; this [`PageSource::Pair`], a committed
    /// generation that validates, stands in for it.
    FellBack(PageSource),
    /// No candidate validates; the frame of the failed source.
    Quarantined(FrameId),
}

/// A read-only view of the backup tree at the committed version.
#[derive(Debug)]
pub struct CommittedImage<'a> {
    pers: &'a Persistent,
    version: u64,
    root: OrootId,
}

impl<'a> CommittedImage<'a> {
    /// Opens the image `pers` committed last. O(1): reads only the commit
    /// version and the root ORoot.
    pub fn open(pers: &'a Persistent) -> Result<Self, ImageError> {
        let root = pers.root_oroot().ok_or(ImageError::NoCommit)?;
        Ok(Self { pers, version: pers.global_version(), root })
    }

    /// The committed version this image reads.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The root cap group's ORoot.
    pub fn root(&self) -> OrootId {
        self.root
    }

    /// Looks up `id`'s committed record and applies `f` to it under the
    /// record's lock. `Ok(None)` when a committed checkpoint deleted `id`.
    fn with_record<R>(
        &self,
        id: OrootId,
        f: impl FnOnce(&BackupObject) -> R,
    ) -> Result<Option<(ObjType, VersionedBackup, R)>, ImageError> {
        let picked = self
            .pers
            .oroots
            .with(id, |r| {
                if !r.live_at(self.version) {
                    return Ok(None);
                }
                let vb = r.restore_pick(self.version).and_then(|k| r.backups[k]);
                vb.map(|vb| Some((r.otype, vb))).ok_or(ImageError::MissingRecord(id))
            })
            .ok_or(ImageError::Dangling(id))??;
        let Some((otype, vb)) = picked else { return Ok(None) };
        let out = self
            .pers
            .backups
            .with(vb.slot, |rec| match rec.otype() {
                found if found != otype => {
                    Err(ImageError::TypeMismatch { oroot: id, expected: otype, found })
                }
                _ => Ok(f(rec)),
            })
            .ok_or(ImageError::MissingRecord(id))??;
        Ok(Some((otype, vb, out)))
    }

    /// The committed record of `id`: the backup slot `ORoot::restore_pick`
    /// selects at the committed version, type-checked against the ORoot.
    /// `Ok(None)` when a committed checkpoint deleted the object.
    pub fn record(&self, id: OrootId) -> Result<Option<BackupObject>, ImageError> {
        Ok(self.with_record(id, BackupObject::clone)?.map(|(_, _, rec)| rec))
    }

    /// Every object the root reaches over [`BackupObject::edges`], in walk
    /// order (the root first), as `(ORoot, type, committed backup slot)`.
    /// A reachable reference to an object that is missing, deleted or has
    /// no well-typed committed record is an error: such an image cannot be
    /// revived.
    pub fn walk(&self) -> Result<Vec<(OrootId, ObjType, VersionedBackup)>, ImageError> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let (otype, vb, edges) =
                self.with_record(id, BackupObject::edges)?.ok_or(ImageError::Dangling(id))?;
            out.push((id, otype, vb));
            stack.extend(edges);
        }
        Ok(out)
    }

    /// Where the page's committed bytes are, under
    /// [`PageMeta::restore_image`]'s rule: a not-yet-folded capture, a pair
    /// entry, or the runtime frame minus its in-line undo log. `None` when
    /// the page holds no recoverable data.
    pub fn page(&self, meta: &PageMeta) -> Option<PageSource> {
        meta.restore_image(self.version)
    }

    /// Whether `frame` lies on the device.
    pub(crate) fn on_device(&self, frame: FrameId) -> bool {
        (frame.0 as usize) < self.pers.dev.frame_count()
    }

    /// Whether one stored image is intact: its frame lies on the device
    /// (checked first) and, when it carries a checksum, its bytes still
    /// match it.
    pub(crate) fn validates(&self, p: &PagePtr) -> bool {
        self.on_device(p.frame) && p.crc.is_none_or(|crc| self.pers.dev.page_crc(p.frame) == crc)
    }

    /// Reads the bytes of `src` — a source [`page`](Self::page) or
    /// [`check`](Self::check) returned — into `buf`. For a logged page
    /// this is the reconstruction runtime ⊖ reverse(undo records). The
    /// source's frames must lie on the device.
    pub fn read(&self, src: PageSource, buf: &mut [u8; PAGE_SIZE]) {
        src.read(&self.pers.dev, buf)
    }

    /// The integrity verdict on a page's committed image. The source is
    /// intact when it validates; a logged page has no checksum of its own
    /// (each undo record carries one, and a torn tail parses as absent),
    /// so it only has to lie on the device. Otherwise the page falls back
    /// to another committed pair entry that validates — a failed pair to
    /// its partner, a failed capture or log to the pairs' own pick first —
    /// and is quarantined when none does. `None` when the page holds no
    /// recoverable data.
    pub fn check(&self, meta: &PageMeta) -> Option<PageCheck> {
        let src = self.page(meta)?;
        let (intact, frame) = match src {
            PageSource::Capture(p) | PageSource::Pair(_, p) => (self.validates(&p), p.frame),
            PageSource::Log { runtime, log } => {
                (self.on_device(runtime) && self.on_device(log.frame), runtime)
            }
        };
        if intact {
            return Some(PageCheck::Intact(src));
        }
        let order = meta.restore_pick(self.version).map(|k| [k, 1 - k]);
        let fallback = order
            .into_iter()
            .flatten()
            .filter(|&i| !matches!(src, PageSource::Pair(j, _) if j == i))
            .find_map(|i| {
                let p = meta.pairs[i].filter(|p| p.version <= self.version && self.validates(p))?;
                Some(PageSource::Pair(i, p))
            });
        Some(fallback.map_or(PageCheck::Quarantined(frame), PageCheck::FellBack))
    }
}
