//! The ring as it was before records were packed: one 32-byte
//! [`TraceEvent`] per slot of a `Vec`. Kept as the model the packed
//! [`TraceRing`](super::TraceRing) is driven against in lockstep.

use super::TraceEvent;

/// A bounded ring of unpacked records with a drop-oldest overflow policy.
#[derive(Debug, Clone)]
pub struct VecRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl VecRing {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        VecRing { buf: Vec::new(), capacity: capacity.max(1), head: 0, dropped: 0 }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Records discarded by the drop-oldest policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Pushes a record, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// The retained records, oldest first.
    pub fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Empties the ring (drop counter included) and returns the records that
    /// were held, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.ordered();
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        out
    }

    /// Changes the capacity. Existing records beyond the new capacity are
    /// discarded oldest-first (counted as dropped).
    pub fn set_capacity(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut ordered = self.ordered();
        if ordered.len() > capacity {
            let shed = ordered.len() - capacity;
            ordered.drain(..shed);
            self.dropped += shed as u64;
        }
        self.buf = ordered;
        self.head = 0;
        self.capacity = capacity;
    }
}
