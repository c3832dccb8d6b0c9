//! A slab arena with generation-tagged indices, backing the in-flight
//! session table.
//!
//! Sessions used to live in a `BTreeMap<u64, AttestSession>`: every
//! event popped from the engine paid an O(log n) pointer chase to find
//! its session, and every session spawn/retire allocated and freed tree
//! nodes plus the session's own buffers. Here a [`SessionId`] is a slot
//! index plus a generation tag, so lookup is one bounds-checked array
//! index, and a retired slot **keeps its value** — the next allocation
//! reuses the retained buffers (sealed/inbox/late capacity) instead of
//! round-tripping the allocator. That retention is what makes the warm
//! Msg1–Msg6 round allocation-free (pinned by `tests/zero_alloc.rs`).
//!
//! The slots live in fixed chunks of [`CHUNK`], each allocated once and
//! never moved, so the table grows a chunk at a time, never copies a
//! slot, and holds at most `CHUNK − 1` never-used slots.
//!
//! ## Generations against stale ids
//!
//! Retry timers and late-arrival events in the engine carry the
//! [`SessionId`] they were scheduled for; they can fire long after the
//! session retired and its slot was recycled. Freeing a slot bumps its
//! generation, so a stale id's generation no longer matches and the
//! lookup misses — exactly like the map lookup missing a removed key,
//! but without the possibility of aliasing a new tenant. (A slot would
//! need 2³² retire cycles between a timer's scheduling and firing to
//! false-match; the engine's u64 virtual clock runs out first.)

/// Identifier of an in-flight attestation session: a slot index plus
/// the slot generation at allocation time. Stale ids (outlived by their
/// session) miss on lookup instead of aliasing the slot's next tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SessionId {
    index: u32,
    generation: u32,
}

/// Slots per chunk.
const CHUNK: usize = 32;

impl SessionId {
    /// The slot index and the generation.
    pub(crate) fn parts(self) -> (u32, u32) {
        (self.index, self.generation)
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    occupied: bool,
    /// Retained across free/alloc cycles so a recycled slot's buffers
    /// keep their capacity. `None` only before the slot's first tenant.
    value: Option<T>,
}

/// A slab of `T` with generational indices and capacity-retaining free
/// slots. See the module docs.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    /// Slot `i` is `chunks[i / CHUNK][i % CHUNK]`. Every chunk but the
    /// last is full, and none grows past its first allocation.
    chunks: Vec<Vec<Slot<T>>>,
    /// Indices of unoccupied slots, most recently freed last (LIFO
    /// reuse keeps the hot slots hot).
    free: Vec<u32>,
    live: usize,
}

impl<T> Arena<T> {
    pub(crate) fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Claims a slot and returns its id plus the value in it. A
    /// recycled slot returns its **retained previous tenant** — the
    /// caller must fully re-initialize it (that is the point: resetting
    /// in place reuses the buffers). A never-used slot is seeded with
    /// `vacant()`. Returns `None` only if the slab index space (2³²) is
    /// exhausted.
    pub(crate) fn alloc_with(&mut self, vacant: impl FnOnce() -> T) -> Option<(SessionId, &mut T)> {
        let index = match self.free.pop() {
            Some(i) => i,
            None => self.push_slot()?,
        };
        // Borrowed field by field: `live` is bumped while the slot is held.
        let i = index as usize;
        let slot = self.chunks.get_mut(i / CHUNK)?.get_mut(i % CHUNK)?;
        slot.occupied = true;
        self.live += 1;
        let sid = SessionId {
            index,
            generation: slot.generation,
        };
        Some((sid, slot.value.get_or_insert_with(vacant)))
    }

    /// Appends a never-used slot, opening a chunk when the last is full,
    /// and returns its index. Runs only when more sessions are in flight
    /// than ever before.
    #[cold]
    fn push_slot(&mut self) -> Option<u32> {
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let full_chunks = self.chunks.len() - 1;
        let chunk = self.chunks.last_mut()?;
        let index = u32::try_from(full_chunks * CHUNK + chunk.len()).ok()?;
        chunk.push(Slot {
            generation: 0,
            occupied: false,
            value: None,
        });
        Some(index)
    }

    fn slot(&self, index: u32) -> Option<&Slot<T>> {
        let i = index as usize;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    fn slot_mut(&mut self, index: u32) -> Option<&mut Slot<T>> {
        let i = index as usize;
        self.chunks.get_mut(i / CHUNK)?.get_mut(i % CHUNK)
    }

    /// The value behind `sid`, if its session is still live.
    pub(crate) fn get(&self, sid: SessionId) -> Option<&T> {
        self.slot(sid.index)
            .filter(|s| s.occupied && s.generation == sid.generation)
            .and_then(|s| s.value.as_ref())
    }

    /// Mutable access to the value behind `sid`, if still live.
    pub(crate) fn get_mut(&mut self, sid: SessionId) -> Option<&mut T> {
        self.slot_mut(sid.index)
            .filter(|s| s.occupied && s.generation == sid.generation)
            .and_then(|s| s.value.as_mut())
    }

    /// Whether `sid` refers to a live entry.
    pub(crate) fn contains(&self, sid: SessionId) -> bool {
        self.get(sid).is_some()
    }

    /// Retires `sid`'s slot: the id goes stale (generation bump) and
    /// the slot joins the free list, **keeping its value** for the next
    /// tenant to reset. Returns whether anything was removed.
    pub(crate) fn remove(&mut self, sid: SessionId) -> bool {
        match self.slot_mut(sid.index) {
            Some(slot) if slot.occupied && slot.generation == sid.generation => {
                slot.occupied = false;
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(sid.index);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Iterates over live entries in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SessionId, &T)> {
        let slots = self.chunks.iter().flatten();
        slots.enumerate().filter_map(|(i, s)| {
            if !s.occupied {
                return None;
            }
            let sid = SessionId {
                index: i as u32,
                generation: s.generation,
            };
            s.value.as_ref().map(|v| (sid, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_remove_roundtrip() {
        let mut a: Arena<String> = Arena::new();
        let (sid, v) = a.alloc_with(String::new).expect("alloc");
        v.push_str("hello");
        assert_eq!(a.len(), 1);
        assert!(a.contains(sid));
        assert_eq!(a.get(sid).map(String::as_str), Some("hello"));
        assert!(a.remove(sid));
        assert_eq!(a.len(), 0);
        assert!(!a.contains(sid));
        assert!(a.get(sid).is_none());
        assert!(!a.remove(sid), "double remove must be a no-op");
    }

    #[test]
    fn stale_id_misses_recycled_slot() {
        let mut a: Arena<u64> = Arena::new();
        let (old, v) = a.alloc_with(|| 0).expect("alloc");
        *v = 1;
        a.remove(old);
        let (new, v) = a.alloc_with(|| 0).expect("alloc");
        *v = 2;
        // Same slot, different generation: the stale id must miss.
        assert!(a.get(old).is_none());
        assert!(!a.remove(old));
        assert_eq!(a.get(new), Some(&2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn recycled_slot_retains_previous_value() {
        let mut a: Arena<Vec<u8>> = Arena::new();
        let (sid, v) = a.alloc_with(Vec::new).expect("alloc");
        v.extend_from_slice(&[1, 2, 3, 4]);
        let cap = v.capacity();
        a.remove(sid);
        let (_, v) = a.alloc_with(Vec::new).expect("alloc");
        // The retained tenant comes back as-is (caller resets it), with
        // its buffer capacity intact — the zero-alloc property.
        assert_eq!(v, &[1, 2, 3, 4]);
        assert_eq!(v.capacity(), cap);
    }

    #[test]
    fn iter_yields_live_entries_only() {
        let mut a: Arena<u32> = Arena::new();
        let mut ids = Vec::new();
        for i in 0..5u32 {
            let (sid, v) = a.alloc_with(|| 0).expect("alloc");
            *v = i;
            ids.push(sid);
        }
        a.remove(ids[1]);
        a.remove(ids[3]);
        let live: Vec<u32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, [0, 2, 4]);
        for (sid, v) in a.iter() {
            assert_eq!(a.get(sid), Some(v));
        }
    }

    #[test]
    fn free_slots_are_reused_lifo() {
        let mut a: Arena<()> = Arena::new();
        let (s0, _) = a.alloc_with(|| ()).expect("alloc");
        let (s1, _) = a.alloc_with(|| ()).expect("alloc");
        a.remove(s0);
        a.remove(s1);
        // s1 freed last, reused first; no new slots appear.
        let (r0, _) = a.alloc_with(|| ()).expect("alloc");
        let (r1, _) = a.alloc_with(|| ()).expect("alloc");
        assert_eq!(r0.index, s1.index);
        assert_eq!(r1.index, s0.index);
        assert_eq!(a.chunks.iter().flatten().count(), 2);
    }

    #[test]
    fn slots_grow_a_chunk_at_a_time_and_never_move() {
        let mut a: Arena<u32> = Arena::new();
        let n = CHUNK as u32 * 2 + 1;
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let (sid, v) = a.alloc_with(|| 0).expect("alloc");
                *v = i;
                sid
            })
            .collect();
        let caps: Vec<_> = a.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [CHUNK; 3]);
        for (i, sid) in (0..n).zip(&ids) {
            assert_eq!(sid.index, i);
            assert_eq!(a.get(*sid), Some(&i));
        }
        let live: Vec<u32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, (0..n).collect::<Vec<_>>());
    }
}
