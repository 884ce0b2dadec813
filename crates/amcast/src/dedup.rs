//! Duplicate suppression.
//!
//! Paper §9: "News items are uniquely identified by the publisher as part
//! of the news item meta-data; this can be used to remove duplicates, when
//! … we use multiple representatives to forward a new item, to increase the
//! robustness of the delivery." A bounded window keeps memory constant on
//! long-running forwarders.

use std::collections::{HashMap, VecDeque};

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
    seen: HashMap<u64, usize>,
    order: VecDeque<u64>,
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
        CoverageWindow { seen: HashMap::new(), order: VecDeque::new(), capacity }
    }

    /// Heap bytes the window has allocated, capacity included.
    pub fn heap_bytes(&self) -> usize {
        crate::heap::hash_map_bytes::<u64, usize>(self.seen.capacity())
            + self.order.capacity() * std::mem::size_of::<u64>()
    }

    /// Records forwarding duty for `id` at `zone_depth`; returns `true`
    /// when the caller should process it (first sighting, or a strictly
    /// wider zone than anything processed before).
    pub fn admit(&mut self, id: u64, zone_depth: usize) -> bool {
        match self.seen.get_mut(&id) {
            Some(depth) if *depth <= zone_depth => false,
            Some(depth) => {
                *depth = zone_depth;
                true
            }
            None => {
                // Evict before inserting, so a full window never grows its
                // tables past `capacity` entries.
                if self.order.len() == self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.seen.remove(&old);
                    }
                }
                self.seen.insert(id, zone_depth);
                self.order.push_back(id);
                true
            }
        }
    }

    /// Membership test without recording.
    pub fn contains(&self, id: u64) -> bool {
        self.seen.contains_key(&id)
    }

    /// Number of ids currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
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
        assert_eq!((c.seen.capacity(), c.order.capacity()), (0, 0));
    }

    #[test]
    fn full_window_keeps_its_ring_at_capacity() {
        let mut c = CoverageWindow::new(64);
        for id in 0..64 {
            c.admit(id, 0);
        }
        let ring = c.order.capacity();
        for id in 64..1024 {
            c.admit(id, 0);
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.order.capacity(), ring, "evict-then-insert never holds capacity + 1");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        CoverageWindow::new(0);
    }
}
