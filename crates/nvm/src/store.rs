//! Generational slot arena for persistent typed records.
//!
//! The checkpoint manager stores backup kernel objects in slab space on NVM.
//! In this reproduction those records are typed Rust values rather than raw
//! bytes (see DESIGN.md, "Reproduction strategy"); [`ObjectStore`] provides
//! the stable-identity arena they live in. An `ObjectStore` placed on the
//! persistent side of the machine survives crashes together with the
//! [`NvmDevice`](crate::NvmDevice); one placed on the volatile side is
//! dropped, mirroring the runtime/backup split of the capability tree.
//!
//! Identifiers are generational: a [`SlotId`] from a removed entry never
//! aliases a later insertion, which turns use-after-free of kernel object
//! references into a detectable `None` instead of silent corruption.

/// Identifier of a record in an [`ObjectStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    index: u32,
    gen: u32,
}

impl SlotId {
    /// A sentinel id that is never live in any store.
    pub const INVALID: SlotId = SlotId { index: u32::MAX, gen: u32::MAX };

    /// Packs the id into a `u64` (for persistence in NVM byte areas).
    pub fn to_raw(self) -> u64 {
        ((self.gen as u64) << 32) | self.index as u64
    }

    /// Unpacks an id previously produced by [`to_raw`](Self::to_raw).
    pub fn from_raw(raw: u64) -> SlotId {
        SlotId { index: raw as u32, gen: (raw >> 32) as u32 }
    }

    /// Returns the slot index (diagnostics only; not stable across removal).
    pub fn index(self) -> u32 {
        self.index
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// A generational arena with stable identifiers.
#[derive(Debug, Clone)]
pub struct ObjectStore<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for ObjectStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ObjectStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self { slots: Vec::new(), free: Vec::new(), len: 0 }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a record and returns its id.
    pub fn insert(&mut self, val: T) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.val.is_none());
            slot.val = Some(val);
            SlotId { index, gen: slot.gen }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot { gen: 0, val: Some(val) });
            SlotId { index, gen: 0 }
        }
    }

    /// Removes a record, returning it if `id` was live.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.gen != id.gen || slot.val.is_none() {
            return None;
        }
        let val = slot.val.take();
        // Bump the generation so stale ids cannot alias the next insert.
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.index);
        self.len -= 1;
        val
    }

    /// Returns a shared reference to the record, if live.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.gen == id.gen {
            slot.val.as_ref()
        } else {
            None
        }
    }

    /// Returns an exclusive reference to the record, if live.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.gen == id.gen {
            slot.val.as_mut()
        } else {
            None
        }
    }

    /// Returns `true` if `id` refers to a live record.
    pub fn contains(&self, id: SlotId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates over `(id, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.val.as_ref().map(|v| (SlotId { index: i as u32, gen: s.gen }, v))
        })
    }

    /// Iterates mutably over `(id, record)` pairs of live records.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SlotId, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let gen = s.gen;
            s.val.as_mut().map(move |v| (SlotId { index: i as u32, gen }, v))
        })
    }

    /// Removes every record, keeping capacity.
    pub fn clear(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.val.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = ObjectStore::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_id_does_not_alias() {
        let mut s = ObjectStore::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // The slot index is reused but the generation differs.
        assert_eq!(b.index(), a.index());
        assert_ne!(a, b);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), Some(&2));
        assert_eq!(s.remove(a), None);
    }

    #[test]
    fn raw_roundtrip() {
        let mut s = ObjectStore::new();
        let a = s.insert(());
        s.remove(a);
        let b = s.insert(());
        assert_eq!(SlotId::from_raw(b.to_raw()), b);
        assert_ne!(SlotId::from_raw(a.to_raw()), b);
    }

    #[test]
    fn iter_sees_only_live() {
        let mut s = ObjectStore::new();
        let a = s.insert(10);
        let _b = s.insert(20);
        s.remove(a);
        let vals: Vec<i32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![20]);
    }

    #[test]
    fn get_mut_mutates() {
        let mut s = ObjectStore::new();
        let a = s.insert(vec![1]);
        s.get_mut(a).unwrap().push(2);
        assert_eq!(s.get(a), Some(&vec![1, 2]));
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut s = ObjectStore::new();
        let ids: Vec<_> = (0..10).map(|i| s.insert(i)).collect();
        s.clear();
        assert!(s.is_empty());
        for id in ids {
            assert!(!s.contains(id));
        }
        // Reuse after clear works.
        let x = s.insert(99);
        assert_eq!(s.get(x), Some(&99));
    }

    #[test]
    fn invalid_sentinel_is_never_live() {
        let mut s = ObjectStore::new();
        for i in 0..100 {
            s.insert(i);
        }
        assert!(!s.contains(SlotId::INVALID));
    }
}
