//! Duplicate suppression.
//!
//! Paper §9: "News items are uniquely identified by the publisher as part
//! of the news item meta-data; this can be used to remove duplicates, when
//! … we use multiple representatives to forward a new item, to increase the
//! robustness of the delivery." A bounded window keeps memory constant on
//! long-running forwarders.

use std::collections::BTreeMap;

use filters::mix;

/// An empty index slot.
const EMPTY: u32 = u32::MAX;

/// The depth column's mark for a depth it cannot hold: the depth is in
/// [`CoverageWindow::deep`].
const DEEP: u8 = u8::MAX;

/// Depth-aware duplicate suppression for forwarding duty.
///
/// With `k`-redundant representatives a forwarder can legitimately receive
/// the same item twice: once for a narrow zone and once for a wider
/// (ancestor) zone whose other children it must still cover. Suppressing by
/// id alone would leave those children unserved, so the window remembers
/// the *shallowest* zone depth already processed per id and only admits
/// strictly wider duty. At a single depth (every admit at `0`) it is a
/// plain sliding window of recently seen ids: a duplicate is refused and
/// does not refresh its position, and the oldest id is evicted first.
///
/// The ids sit in a FIFO ring beside a byte-wide depth column, and an
/// open-addressing index twice the ring's length (linear probing, hashed
/// with [`filters::mix`]) maps an id to its ring slot: 17 bytes a ring slot,
/// and a layout that depends on nothing but the admits, so a footprint read
/// from it is exact.
///
/// ```
/// let mut w = amcast::CoverageWindow::new(2);
/// assert!(w.admit(1, 0), "first sighting");
/// assert!(!w.admit(1, 0), "duplicate");
/// w.admit(2, 0);
/// w.admit(3, 0); // evicts 1
/// assert!(w.admit(1, 0), "forgotten after eviction");
/// ```
#[derive(Debug, Clone)]
pub struct CoverageWindow {
    /// Remembered ids in arrival order from `head`, once the ring holds
    /// `capacity`; in arrival order from 0 while it grows.
    ids: Vec<u64>,
    /// Each id's shallowest depth so far, [`DEEP`] from 255 up.
    depths: Vec<u8>,
    /// Ring slot of the oldest id once the ring is full.
    head: usize,
    /// Ring slots by hash of their id, [`EMPTY`] where none; twice as long
    /// as the ring's allocation, so never more than half full.
    index: Vec<u32>,
    /// The depths the column marks [`DEEP`], by id.
    deep: BTreeMap<u64, usize>,
    capacity: usize,
}

impl CoverageWindow {
    /// Creates a window remembering up to `capacity` ids (an eviction
    /// bound; nothing is allocated until the first duty arrives).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "coverage window needs capacity");
        CoverageWindow {
            ids: Vec::new(),
            depths: Vec::new(),
            head: 0,
            index: Vec::new(),
            deep: BTreeMap::new(),
            capacity,
        }
    }

    /// Heap bytes the window has allocated, capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u64>()
            + self.depths.capacity()
            + self.index.capacity() * std::mem::size_of::<u32>()
            + simnet::heap::btree_map_bytes::<u64, usize>(self.deep.len(), !self.deep.is_empty())
    }

    /// The index slot `id` hashes to: its mix scaled to the index length,
    /// which need not be a power of two.
    fn home(&self, id: u64) -> usize {
        ((u128::from(mix(id)) * self.index.len() as u128) >> 64) as usize
    }

    /// How many slots a probe from `from` walks to reach `to`, wrapping.
    fn dist(&self, from: usize, to: usize) -> usize {
        if to >= from {
            to - from
        } else {
            to + self.index.len() - from
        }
    }

    /// The index slot after `at`, wrapping.
    fn next(&self, at: usize) -> usize {
        if at + 1 == self.index.len() {
            0
        } else {
            at + 1
        }
    }

    /// The index slot holding `id`'s ring slot (`Ok`), or the empty slot
    /// its probe ends at.
    fn probe(&self, id: u64) -> Result<usize, usize> {
        let mut at = self.home(id);
        loop {
            match self.index[at] {
                EMPTY => return Err(at),
                slot if self.ids[slot as usize] == id => return Ok(at),
                _ => at = self.next(at),
            }
        }
    }

    /// Empties index slot `hole`, shifting back each entry after it whose
    /// probe passed it, so no probe meets an empty slot before its id.
    /// Returns the slot left empty: the only one on any probe path that was
    /// not empty before.
    fn unindex(&mut self, mut hole: usize) -> usize {
        let mut at = hole;
        loop {
            at = self.next(at);
            let slot = self.index[at];
            if slot == EMPTY {
                break;
            }
            // Probed from `home` to `at`: it may move back unless `home`
            // lies after the hole.
            let home = self.home(self.ids[slot as usize]);
            if self.dist(home, at) >= self.dist(hole, at) {
                self.index[hole] = slot;
                hole = at;
            }
        }
        self.index[hole] = EMPTY;
        hole
    }

    /// Rebuilds the index `len` slots long over every ring slot.
    fn reindex(&mut self, len: usize) {
        self.index = vec![EMPTY; len];
        for slot in 0..self.ids.len() {
            let at = self.probe(self.ids[slot]).expect_err("ring ids are distinct");
            self.index[at] = u32::try_from(slot).expect("a ring slot fits the index");
        }
    }

    /// Records forwarding duty for `id` at `zone_depth`; returns `true`
    /// when the caller should process it (first sighting, or a strictly
    /// wider zone than anything processed before).
    pub fn admit(&mut self, id: u64, zone_depth: usize) -> bool {
        let mut at = if self.index.is_empty() { None } else { Some(self.probe(id)) };
        if let Some(Ok(found)) = at {
            let slot = self.index[found] as usize;
            if self.depth(slot) <= zone_depth {
                return false;
            }
            self.set_depth(slot, id, zone_depth);
            return true;
        }
        let slot = if self.ids.len() < self.capacity {
            // Grow the ring by doubling, never past `capacity`, and the
            // index with it to twice the ring's length.
            if self.ids.len() == self.ids.capacity() {
                let more = self.ids.len().max(4).min(self.capacity - self.ids.len());
                self.ids.reserve_exact(more);
                self.depths.reserve_exact(more);
                self.reindex(2 * (self.ids.len() + more));
                at = Some(self.probe(id));
            }
            self.ids.push(id);
            self.depths.push(0);
            self.ids.len() - 1
        } else {
            // Evict the oldest, then reuse its ring slot.
            let slot = self.head;
            let old = self.ids[slot];
            let hole = self.unindex(self.probe(old).expect("a ring id is indexed"));
            if self.depths[slot] == DEEP {
                self.deep.remove(&old);
            }
            self.head = if slot + 1 == self.capacity { 0 } else { slot + 1 };
            self.ids[slot] = id;
            // The newcomer's probe now ends at the hole the shift left, if
            // the hole lies on it.
            if let Some(Err(end)) = at {
                let home = self.home(id);
                if self.dist(home, hole) < self.dist(home, end) {
                    at = Some(Err(hole));
                }
            }
            slot
        };
        let Some(Err(at)) = at else { unreachable!("a new id's probe ends at an empty slot") };
        self.index[at] = u32::try_from(slot).expect("a ring slot fits the index");
        self.set_depth(slot, id, zone_depth);
        true
    }

    /// The depth ring slot `slot` remembers.
    fn depth(&self, slot: usize) -> usize {
        match self.depths[slot] {
            DEEP => self.deep[&self.ids[slot]],
            narrow => usize::from(narrow),
        }
    }

    /// Remembers `depth` for `id` in ring slot `slot`.
    fn set_depth(&mut self, slot: usize, id: u64, depth: usize) {
        let narrow = u8::try_from(depth).unwrap_or(DEEP);
        if narrow == DEEP {
            self.deep.insert(id, depth);
        } else if self.depths[slot] == DEEP {
            self.deep.remove(&id);
        }
        self.depths[slot] = narrow;
    }

    /// Membership test without recording.
    pub fn contains(&self, id: u64) -> bool {
        !self.index.is_empty() && self.probe(id).is_ok()
    }

    /// Number of ids currently remembered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_admits_wider_zone_only() {
        let mut w = CoverageWindow::new(8);
        assert!(w.admit(1, 2), "first duty at depth 2");
        assert!(!w.admit(1, 2), "same depth is duplicate");
        assert!(!w.admit(1, 3), "narrower duty already covered");
        assert!(w.admit(1, 1), "wider duty must be served");
        assert!(!w.admit(1, 2), "now covered at depth 1");
    }

    #[test]
    fn coverage_evicts_oldest() {
        let mut w = CoverageWindow::new(2);
        w.admit(1, 0);
        w.admit(2, 0);
        w.admit(3, 0);
        assert!(w.admit(1, 0), "evicted id admitted again");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn suppresses_duplicates() {
        let mut w = CoverageWindow::new(8);
        assert!(w.admit(7, 0));
        assert!(!w.admit(7, 0));
        assert!(w.contains(7));
        assert!(!w.contains(8), "contains records nothing");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let mut w = CoverageWindow::new(3);
        for id in 1..=5 {
            assert!(w.admit(id, 0));
        }
        assert!(!w.contains(1) && !w.contains(2));
        assert!(w.contains(3) && w.contains(5));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn duplicate_does_not_refresh_position() {
        let mut w = CoverageWindow::new(2);
        w.admit(1, 0);
        w.admit(2, 0);
        w.admit(1, 0); // duplicate, must not move 1 to the back
        w.admit(3, 0); // evicts 1
        assert!(!w.contains(1));
    }

    #[test]
    fn windows_allocate_nothing_until_first_use() {
        let c = CoverageWindow::new(8192);
        assert_eq!(c.heap_bytes(), 0);
        assert!(!c.contains(1));
    }

    #[test]
    fn a_full_window_keeps_its_ring_at_capacity_in_18_bytes_an_id() {
        for capacity in [1, 3, 64, 100, 1_000, 8_192] {
            let mut c = CoverageWindow::new(capacity);
            for id in 0..capacity as u64 {
                c.admit(id.wrapping_mul(0x9e37_79b9_7f4a_7c15), 0);
            }
            let bytes = c.heap_bytes();
            for id in capacity as u64..4 * capacity as u64 {
                c.admit(id.wrapping_mul(0x9e37_79b9_7f4a_7c15), 0);
            }
            assert_eq!(c.len(), capacity);
            assert_eq!(c.ids.capacity(), capacity, "the ring stops at capacity");
            assert_eq!(c.heap_bytes(), bytes, "evict-then-insert never holds capacity + 1");
            let per_id = bytes as f64 / capacity as f64;
            assert!(per_id <= 18.0, "{capacity}: {per_id} B an id");
        }
    }

    /// The window as it was kept before: a map from id to depth and a
    /// queue of ids in arrival order.
    struct Model {
        seen: BTreeMap<u64, usize>,
        order: std::collections::VecDeque<u64>,
        capacity: usize,
    }

    impl Model {
        fn admit(&mut self, id: u64, zone_depth: usize) -> bool {
            match self.seen.get_mut(&id) {
                Some(depth) if *depth <= zone_depth => false,
                Some(depth) => {
                    *depth = zone_depth;
                    true
                }
                None => {
                    if self.order.len() == self.capacity {
                        let old = self.order.pop_front().expect("full");
                        self.seen.remove(&old);
                    }
                    self.seen.insert(id, zone_depth);
                    self.order.push_back(id);
                    true
                }
            }
        }
    }

    proptest::proptest! {
        /// The ring and its index answer every admit and membership test as
        /// the map and queue did, at depths a byte holds and past them,
        /// with ids that collide in the index as well as spread ones.
        #[test]
        fn the_window_matches_a_queue_and_a_map(
            capacity in 1usize..40,
            ops in proptest::collection::vec((0u64..60, 0usize..6, 0u8..4), 1..300),
        ) {
            let mut w = CoverageWindow::new(capacity);
            let mut model = Model { seen: BTreeMap::new(), order: Default::default(), capacity };
            for (n, depth, kind) in ops {
                let id = match kind {
                    0 => n << 40,
                    1 => u64::MAX - n,
                    _ => n,
                };
                let depth = match depth {
                    4 => 255 + n as usize % 3,
                    5 => usize::MAX - n as usize % 2,
                    d => d,
                };
                proptest::prop_assert_eq!(w.admit(id, depth), model.admit(id, depth), "{} at {}", id, depth);
                proptest::prop_assert_eq!(w.len(), model.order.len());
                for probe in [id, n, n << 40, u64::MAX - n] {
                    proptest::prop_assert_eq!(w.contains(probe), model.seen.contains_key(&probe));
                }
                let deep = model.seen.values().filter(|&&d| d >= 255).count();
                proptest::prop_assert_eq!(w.deep.len(), deep);
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        CoverageWindow::new(0);
    }
}
