//! Forwarding queues.
//!
//! Paper §9: "Each forwarding component maintains a log file and a set of
//! forwarding queues, one for each of the representatives at a child zone.
//! The best strategy to fill queues is still under research. We are
//! experimenting with weighted round-robin strategies, as well as some more
//! aggressive techniques." Experiment E10 compares the strategies
//! implemented here under heterogeneous load.

use std::collections::VecDeque;

use simnet::SimDuration;

/// Queue discipline of every forwarding component (a NewsWire node's).
pub const FORWARD_STRATEGY: Strategy = Strategy::WeightedRoundRobin;

/// Service time per forwarded message (models forwarding bandwidth; queues
/// build up when the offered load exceeds it).
pub const SERVICE_INTERVAL: SimDuration = SimDuration::from_micros(500);

/// One queued forward, generic in the payload `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Queued<T> {
    /// Which child-zone queue this entry belongs to.
    pub child: u16,
    /// Enqueue time (simulated microseconds), for delay accounting.
    pub enqueued_us: u64,
    /// Priority class; smaller is more urgent (NITF urgency scale).
    pub priority: u8,
    /// The payload to forward.
    pub item: T,
}

/// Queue service disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Global FIFO over all children.
    Fifo,
    /// Weighted round-robin across child queues (weight = configured per
    /// child, typically the subtree size, so bigger subtrees get
    /// proportionally more service).
    WeightedRoundRobin,
    /// Strict priority by item urgency, FIFO within a class — one of the
    /// paper's "more aggressive techniques".
    Priority,
}

/// The forwarding queue set of one forwarding component.
#[derive(Debug)]
pub struct ForwardingQueues<T> {
    strategy: Strategy,
    queues: Vec<(u16, u32, VecDeque<Queued<T>>)>, // (child, weight, queue)
    rr_cursor: usize,
    rr_credit: i64,
    len: usize,
    seq: u64,
    /// Global arrival order as `(seq, child)` pairs, consulted by FIFO.
    seqs: VecDeque<(u64, u16)>,
}

impl<T> ForwardingQueues<T> {
    /// Creates an empty queue set with the given discipline.
    pub fn new(strategy: Strategy) -> Self {
        ForwardingQueues {
            strategy,
            queues: Vec::new(),
            rr_cursor: 0,
            rr_credit: 0,
            len: 0,
            seq: 0,
            seqs: VecDeque::new(),
        }
    }

    /// The configured discipline.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Declares a child queue and its scheduling weight. Re-declaring a
    /// child updates its weight.
    pub fn declare_child(&mut self, child: u16, weight: u32) {
        let weight = weight.max(1);
        match self.queues.binary_search_by_key(&child, |(c, _, _)| *c) {
            Ok(i) => self.queues[i].1 = weight,
            Err(i) => self.queues.insert(i, (child, weight, VecDeque::new())),
        }
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues an item for `child` (declared implicitly with weight 1 if
    /// unknown).
    pub fn push(&mut self, child: u16, enqueued_us: u64, priority: u8, item: T) {
        if self.queues.binary_search_by_key(&child, |(c, _, _)| *c).is_err() {
            self.declare_child(child, 1);
        }
        let i = self.queues.binary_search_by_key(&child, |(c, _, _)| *c).expect("just declared");
        self.seq += 1;
        self.queues[i].2.push_back(Queued { child, enqueued_us, priority, item });
        self.seqs.push_back((self.seq, child));
        self.len += 1;
    }

    /// Dequeues the next item under the configured discipline.
    pub fn pop(&mut self) -> Option<Queued<T>> {
        if self.len == 0 {
            return None;
        }
        let out = match self.strategy {
            Strategy::Fifo => self.pop_fifo(),
            Strategy::WeightedRoundRobin => self.pop_wrr(),
            Strategy::Priority => self.pop_priority(),
        };
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    fn pop_fifo(&mut self) -> Option<Queued<T>> {
        // Oldest arrival across all queues.
        while let Some((_, child)) = self.seqs.pop_front() {
            let i = self.queues.binary_search_by_key(&child, |(c, _, _)| *c).ok()?;
            if let Some(q) = self.queues[i].2.pop_front() {
                return Some(q);
            }
        }
        None
    }

    fn pop_wrr(&mut self) -> Option<Queued<T>> {
        let n = self.queues.len();
        for _ in 0..2 * n {
            if self.rr_cursor >= n {
                self.rr_cursor = 0;
            }
            let (_, weight, queue) = &mut self.queues[self.rr_cursor];
            if self.rr_credit <= 0 {
                self.rr_credit = i64::from(*weight);
            }
            if let Some(item) = queue.pop_front() {
                self.rr_credit -= 1;
                if self.rr_credit <= 0 {
                    self.rr_cursor += 1;
                }
                self.drop_seq_of(item.child);
                return Some(item);
            }
            self.rr_cursor += 1;
            self.rr_credit = 0;
        }
        None
    }

    fn pop_priority(&mut self) -> Option<Queued<T>> {
        // Global scan: the most urgent item anywhere, ties broken by
        // enqueue time. Queues here are short (bounded by service rate), so
        // the linear scan is cheaper than maintaining a heap per strategy.
        let mut best: Option<(usize, usize, u8, u64)> = None;
        for (qi, (_, _, q)) in self.queues.iter().enumerate() {
            for (pi, item) in q.iter().enumerate() {
                let key = (item.priority, item.enqueued_us);
                if best.is_none_or(|(_, _, p, t)| key < (p, t)) {
                    best = Some((qi, pi, item.priority, item.enqueued_us));
                }
            }
        }
        let (qi, pi, _, _) = best?;
        let item = self.queues[qi].2.remove(pi)?;
        self.drop_seq_of(item.child);
        Some(item)
    }

    fn drop_seq_of(&mut self, child: u16) {
        if let Some(pos) = self.seqs.iter().position(|&(_, c)| c == child) {
            self.seqs.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut ForwardingQueues<&'static str>) -> Vec<&'static str> {
        std::iter::from_fn(|| q.pop().map(|i| i.item)).collect()
    }

    #[test]
    fn fifo_preserves_global_arrival_order() {
        let mut q = ForwardingQueues::new(Strategy::Fifo);
        q.push(2, 10, 5, "a");
        q.push(0, 20, 1, "b");
        q.push(2, 30, 8, "c");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn wrr_respects_weights() {
        let mut q = ForwardingQueues::new(Strategy::WeightedRoundRobin);
        q.declare_child(0, 3);
        q.declare_child(1, 1);
        for i in 0..12 {
            q.push(0, i, 5, "big");
        }
        for i in 0..4 {
            q.push(1, i, 5, "small");
        }
        // First 8 pops: child 0 should get ~3x the service of child 1.
        let first8: Vec<_> = (0..8).filter_map(|_| q.pop()).map(|i| i.child).collect();
        let big = first8.iter().filter(|&&c| c == 0).count();
        let small = first8.iter().filter(|&&c| c == 1).count();
        assert_eq!(big + small, 8);
        assert!(big == 6 && small == 2, "split {big}/{small}");
        // Everything eventually drains.
        assert_eq!((0..16).filter_map(|_| q.pop()).count(), 8);
    }

    #[test]
    fn wrr_skips_empty_queues() {
        let mut q = ForwardingQueues::new(Strategy::WeightedRoundRobin);
        q.declare_child(0, 5);
        q.declare_child(1, 5);
        q.push(1, 0, 5, "only");
        assert_eq!(q.pop().unwrap().item, "only");
        assert!(q.pop().is_none());
    }

    #[test]
    fn priority_takes_urgent_first_then_fifo() {
        let mut q = ForwardingQueues::new(Strategy::Priority);
        q.push(0, 10, 5, "routine-early");
        q.push(1, 20, 1, "flash");
        q.push(2, 30, 5, "routine-late");
        q.push(3, 5, 1, "flash-earlier");
        let order = drain(&mut q);
        assert_eq!(order, vec!["flash-earlier", "flash", "routine-early", "routine-late"]);
    }

    #[test]
    fn pop_on_empty_is_none() {
        let mut q: ForwardingQueues<()> = ForwardingQueues::new(Strategy::Fifo);
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = ForwardingQueues::new(Strategy::WeightedRoundRobin);
        for i in 0..5 {
            q.push(i % 2, u64::from(i), 5, i);
        }
        assert_eq!(q.len(), 5);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn redeclaring_child_updates_weight() {
        let mut q = ForwardingQueues::new(Strategy::WeightedRoundRobin);
        q.declare_child(0, 1);
        q.declare_child(0, 4);
        q.declare_child(1, 1);
        for i in 0..8 {
            q.push(0, i, 5, "h");
            q.push(1, i, 5, "l");
        }
        let first5: Vec<_> = (0..5).filter_map(|_| q.pop()).map(|i| i.child).collect();
        let heavy = first5.iter().filter(|&&c| c == 0).count();
        assert_eq!(heavy, 4, "order {first5:?}");
    }
}
