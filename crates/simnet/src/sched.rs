//! The calendar-queue event scheduler (Brown, CACM 1988).
//!
//! Event bodies live in a slab and never move while queued. Two
//! slab-parallel arrays carry everything the ordering needs: `key` (the
//! `(t, a, b)` ordering key) and `next` (an intrusive list link), so a
//! bucket or a slot is one `u32` list head however many entries it holds,
//! and no tier keeps a per-bucket allocation:
//!
//! * **Near-future events** (within ~4 simulated seconds) are linked onto
//!   one of 4096 ring buckets of 1024 µs each — a push is O(1).
//! * **The cursor's bucket** is spread over 1024 one-µs slots with a
//!   1024-bit occupancy mask. When the cursor reaches a slot, the slot's
//!   entries (which all share `t`) are copied into one reused buffer and
//!   sorted once by `(a, b)`; pops take them from the buffer's end. A
//!   microsecond holding `k` events costs one `O(k log k)` sort, and an
//!   empty one costs a mask scan.
//! * **Late entries** — pushed at or behind the cursor's microsecond: an
//!   event at the instant being handled (a zero-latency link, an input
//!   scheduled for `now`), or an input behind a window that `peek_time`
//!   jumped ahead — wait in a small heap that `pop` merges with the buffer
//!   by full `(t, a, b)`.
//! * **Far-future events** (beyond the ring's horizon) wait in an overflow
//!   heap ordered by time and are re-filed when their epoch arrives — each
//!   entry is touched at most once more.
//!
//! Pops follow the exact `(t, a, b)` total order the engine's determinism
//! contract requires; the engine's node-derived keys are described in
//! `sim.rs`. The queue itself only requires that no key is pushed twice and
//! none lands before the last popped time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width: 1024 µs ≈ 1 ms per bucket.
const SHIFT: u32 = 10;
/// One-µs slots per bucket.
const SLOTS: usize = 1 << SHIFT;
/// Number of buckets in the ring (power of two).
const NBUCKETS: usize = 4096;
const MASK: u64 = (NBUCKETS as u64) - 1;
/// Simulated time covered by one full ring rotation, µs (~4.2 s).
const SPAN: u64 = (NBUCKETS as u64) << SHIFT;
/// The end of an intrusive list.
const NIL: u32 = u32::MAX;

/// A deterministic min-priority event queue keyed by `(t_us, a, b)`, with
/// event bodies of type `T` parked in a slab until their entry pops.
///
/// Exported so the micro-benchmarks can measure it; protocol code should
/// drive [`crate::Simulation`] instead of using this directly.
#[derive(Debug)]
pub struct EventQueue<T> {
    slab: Vec<Option<T>>,
    /// `(t, a, b)` of the entry at each slab index.
    key: Vec<(u64, u64, u64)>,
    /// The next entry in the same bucket or slot list, or the next free
    /// index, for each slab index.
    next: Vec<u32>,
    /// Head of the free-index list.
    free: u32,
    /// The ring: `buckets[i]` heads the unsorted entries whose time maps to
    /// bucket `i` of the current epoch window.
    buckets: Vec<u32>,
    cur_bucket: usize,
    /// The cursor bucket's entries later than `cur_t`, by `t % SLOTS`.
    slots: Vec<u32>,
    /// Bit `s % 64` of word `s / 64` is set while `slots[s]` is non-empty.
    occupied: [u64; SLOTS / 64],
    /// The cursor's microsecond: the time of every entry in `run`.
    cur_t: u64,
    /// The entries at `cur_t` as `(a, b, idx)`, sorted so that the next to
    /// pop is last.
    run: Vec<(u64, u64, u32)>,
    /// Entries pushed at or behind `cur_t`.
    late: BinaryHeap<Reverse<(u64, u64, u64, u32)>>,
    /// Exclusive end (µs) of the epoch window the ring currently covers;
    /// always SPAN-aligned.
    epoch_end: u64,
    /// Entries at or beyond `epoch_end`, as `(t, idx)`.
    far: BinaryHeap<Reverse<(u64, u32)>>,
    /// Time of the last popped entry; no push may land before it.
    popped_t: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            key: Vec::new(),
            next: Vec::new(),
            free: NIL,
            buckets: vec![NIL; NBUCKETS],
            cur_bucket: 0,
            slots: vec![NIL; SLOTS],
            occupied: [0; SLOTS / 64],
            cur_t: 0,
            run: Vec::new(),
            late: BinaryHeap::new(),
            epoch_end: SPAN,
            far: BinaryHeap::new(),
            popped_t: 0,
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued (test/diagnostic convenience).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, key: (u64, u64, u64), body: T) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let i = idx as usize;
            self.free = self.next[i];
            self.slab[i] = Some(body);
            self.key[i] = key;
            idx
        } else {
            let idx = self.slab.len() as u32;
            assert!(idx != NIL, "event queue slab is full");
            self.slab.push(Some(body));
            self.key.push(key);
            self.next.push(NIL);
            idx
        }
    }

    /// Start (µs) of the bucket the cursor is parked on.
    fn bucket_start(&self) -> u64 {
        self.epoch_end - SPAN + ((self.cur_bucket as u64) << SHIFT)
    }

    /// Inserts an event. `t_us` must not be earlier than the last popped
    /// entry's time (the engine never schedules into the past).
    pub fn push(&mut self, t_us: u64, a: u64, b: u64, body: T) {
        debug_assert!(
            t_us >= self.popped_t,
            "push at {t_us} µs lands before the last pop at {} µs",
            self.popped_t
        );
        let idx = self.alloc((t_us, a, b), body);
        self.len += 1;
        self.file(idx);
    }

    /// Files a slab entry into the tier its time belongs to. Comparisons are
    /// on *time*, never on a mod-SPAN bucket index: after an idle queue's
    /// window jumped to a far epoch, an entry can be earlier than the whole
    /// window, and its bucket index would park it a rotation late.
    fn file(&mut self, idx: u32) {
        let (t, a, b) = self.key[idx as usize];
        if t >= self.epoch_end {
            self.far.push(Reverse((t, idx)));
        } else if t <= self.cur_t {
            self.late.push(Reverse((t, a, b, idx)));
        } else if t < self.bucket_start() + SLOTS as u64 {
            let s = (t as usize) & (SLOTS - 1);
            self.next[idx as usize] = self.slots[s];
            self.slots[s] = idx;
            self.occupied[s / 64] |= 1 << (s % 64);
        } else {
            let bi = ((t >> SHIFT) & MASK) as usize;
            self.next[idx as usize] = self.buckets[bi];
            self.buckets[bi] = idx;
        }
    }

    /// Re-files every far-heap entry whose time now falls inside the epoch
    /// window.
    fn refill_from_far(&mut self) {
        while let Some(&Reverse((t, idx))) = self.far.peek() {
            if t >= self.epoch_end {
                break;
            }
            self.far.pop();
            self.file(idx);
        }
    }

    /// Loads the earliest occupied slot into `run`, or returns `false` when
    /// the cursor's bucket has none left.
    fn load_next_slot(&mut self) -> bool {
        let Some(w) = self.occupied.iter().position(|&bits| bits != 0) else { return false };
        let s = w * 64 + self.occupied[w].trailing_zeros() as usize;
        self.occupied[w] &= self.occupied[w] - 1;
        self.cur_t = self.bucket_start() + s as u64;
        let mut i = std::mem::replace(&mut self.slots[s], NIL);
        while i != NIL {
            let (_, a, b) = self.key[i as usize];
            self.run.push((a, b, i));
            i = self.next[i as usize];
        }
        self.run.sort_unstable_by_key(|&(a, b, _)| Reverse((a, b)));
        true
    }

    /// Loads the next microsecond into `run` once `run` and `late` are both
    /// drained, moving the cursor through the ring (and the window through
    /// epochs) as far as it takes.
    fn advance(&mut self) {
        if !self.run.is_empty() || !self.late.is_empty() {
            return;
        }
        while self.len > 0 && !self.load_next_slot() {
            if self.far.len() == self.len {
                // Ring empty: jump the window straight to the far heap's
                // earliest epoch instead of rotating through empty buckets.
                let t = self.far.peek().expect("len > 0 but no tier holds it").0 .0;
                self.epoch_end = (t / SPAN + 1) * SPAN;
                self.cur_bucket = ((t >> SHIFT) & MASK) as usize;
                self.refill_from_far();
            } else {
                self.cur_bucket += 1;
                if self.cur_bucket == NBUCKETS {
                    self.cur_bucket = 0;
                    self.epoch_end += SPAN;
                    self.refill_from_far();
                }
            }
            // Spread the new cursor bucket over the slots.
            let mut i = std::mem::replace(&mut self.buckets[self.cur_bucket], NIL);
            while i != NIL {
                let after = self.next[i as usize];
                self.file(i);
                i = after;
            }
        }
    }

    /// Time of the earliest queued event (advances the internal cursor, but
    /// never pops).
    pub fn peek_time(&mut self) -> Option<u64> {
        self.advance();
        match self.late.peek() {
            // Every late entry is at or behind `cur_t`.
            Some(&Reverse((t, ..))) => Some(t),
            None => (!self.run.is_empty()).then_some(self.cur_t),
        }
    }

    /// Pops the earliest event in strict `(t, a, b)` order.
    pub fn pop(&mut self) -> Option<(u64, u64, u64, T)> {
        self.advance();
        let late_first = match (self.late.peek(), self.run.last()) {
            (Some(&Reverse((t, a, b, _))), Some(&(ra, rb, _))) => (t, a, b) < (self.cur_t, ra, rb),
            (late, _) => late.is_some(),
        };
        let (t, a, b, idx) = if late_first {
            self.late.pop()?.0
        } else {
            let (a, b, idx) = self.run.pop()?;
            (self.cur_t, a, b, idx)
        };
        self.len -= 1;
        self.popped_t = t;
        let body = self.slab[idx as usize].take().expect("slab entry vanished");
        self.next[idx as usize] = self.free;
        self.free = idx;
        Some((t, a, b, body))
    }

    /// Bytes the queue owns on the heap, by capacity.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<Option<T>>()
            + self.key.capacity() * size_of::<(u64, u64, u64)>()
            + (self.next.capacity() + self.buckets.capacity() + self.slots.capacity()) * 4
            + self.run.capacity() * size_of::<(u64, u64, u32)>()
            + self.late.capacity() * size_of::<(u64, u64, u64, u32)>()
            + self.far.capacity() * size_of::<(u64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A small LCG, so the tests draw no crate randomness.
    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *x >> 33
    }

    proptest! {
        /// Interleaved push / pop / `peek_time` steps pop in exactly the
        /// order, and keep exactly the length, of a `BinaryHeap` over
        /// `(t, a, b)` — through dense ties, pushes at the last popped
        /// instant, bucket edges, epoch crossings and jumped windows.
        #[test]
        fn pops_like_a_binary_heap(steps in proptest::collection::vec((0u8..8, 0u64..1 << 20), 1..300)) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            // `floor` is the last popped time, `b` the next unique b-key.
            let (mut floor, mut b) = (0u64, 0u64);
            let mut push = |q: &mut EventQueue<u64>, model: &mut BinaryHeap<_>, t: u64, a: u64| {
                b += 1;
                q.push(t, a, b, t ^ a ^ b);
                model.push(Reverse((t, a, b)));
            };
            let pop = |q: &mut EventQueue<u64>, model: &mut BinaryHeap<_>, floor: &mut u64| {
                let got = q.pop().map(|(t, a, b, body)| {
                    assert_eq!(body, t ^ a ^ b, "the body follows its key through the slab");
                    (t, a, b)
                });
                let want = model.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
                *floor = got.map_or(*floor, |(t, ..)| t);
            };
            for (op, x) in steps {
                let a = x % 3;
                match op {
                    // At the last popped instant.
                    0 => push(&mut q, &mut model, floor, a),
                    // A link's worth later.
                    1 => push(&mut q, &mut model, floor + x % 40, a),
                    // The last µs of this bucket or one of the next two.
                    2 => push(&mut q, &mut model, (((floor >> SHIFT) + x % 3) << SHIFT) | 1023, a),
                    // One to three epochs out, at or off a bucket edge.
                    3 => push(&mut q, &mut model, floor + (x % 3 + 1) * SPAN - x % 2 * (floor % 1024 + 1), a),
                    // Hundreds of ties in one µs.
                    4 => {
                        let t = floor + x % 16;
                        for i in 0..300 {
                            push(&mut q, &mut model, t, (i * 7 + x) % 5);
                        }
                    }
                    // Drain, let `peek_time` jump the window to a far epoch,
                    // then push behind it.
                    5 => {
                        while !model.is_empty() {
                            pop(&mut q, &mut model, &mut floor);
                        }
                        push(&mut q, &mut model, floor + 3 * SPAN + x, a);
                        prop_assert_eq!(q.peek_time(), Some(floor + 3 * SPAN + x));
                        push(&mut q, &mut model, floor + x % 2048, a);
                    }
                    6 => prop_assert_eq!(q.peek_time(), model.peek().map(|Reverse((t, ..))| *t)),
                    _ => {
                        for _ in 0..=x % 64 {
                            pop(&mut q, &mut model, &mut floor);
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            while !model.is_empty() {
                pop(&mut q, &mut model, &mut floor);
            }
            prop_assert!(q.pop().is_none() && q.is_empty());
        }
    }

    #[test]
    fn a_push_at_the_last_popped_time_pops_before_anything_later() {
        let mut q = EventQueue::new();
        q.push(100, 0, 1, 1);
        q.push(100, 9, 2, 2);
        q.push(101, 0, 3, 3);
        assert_eq!(q.pop().map(|e| e.3), Some(1));
        // At the popped instant, keyed ahead of the entry still queued
        // there: it pops first, and before the later one.
        q.push(100, 5, 4, 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.3)).collect();
        assert_eq!(order, vec![4, 2, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the last pop")]
    fn a_push_before_the_last_popped_time_is_refused() {
        let mut q = EventQueue::new();
        q.push(100, 0, 1, ());
        q.pop();
        q.push(99, 0, 2, ());
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            for i in 0..100u64 {
                let t = round * 1_000 + i;
                q.push(t, 0, i, t ^ i);
            }
            while q.pop().is_some() {}
        }
        assert!(q.slab.len() <= 100, "slab grew past the high-water mark: {}", q.slab.len());
    }

    /// A dense burst the way `engine_ring` drives the engine: 4,096 events
    /// within 15 µs, each popped and re-pushed 5–15 µs later, over several
    /// buckets. The queue may own at most 80 bytes per peak live event, its
    /// fixed ring and slot heads included (it reads 59; with a `u64` body
    /// the slab and its key and link arrays take 44 per entry): a design
    /// that kept capacity per slot or per bucket would hold a burst's width
    /// once per slot or bucket.
    #[test]
    fn a_dense_burst_costs_bytes_per_live_event_not_per_slot() {
        const LIVE: u64 = 4096;
        let mut q = EventQueue::new();
        let mut x = 7u64;
        for i in 0..LIVE {
            q.push(lcg(&mut x) % 15, 0, i, i);
        }
        let mut b = LIVE;
        for _ in 0..LIVE * 400 {
            let (t, _, _, body) = q.pop().expect("the burst stays live");
            b += 1;
            q.push(t + 5 + lcg(&mut x) % 11, lcg(&mut x) % 4, b, body);
        }
        assert!(q.popped_t > 3 * SLOTS as u64, "the burst crossed several buckets");
        assert_eq!(q.len(), LIVE as usize);
        let bytes = q.heap_bytes();
        assert!(bytes <= 80 * LIVE as usize, "{bytes} B for {LIVE} live events");
    }
}
