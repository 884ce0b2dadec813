//! Epoch/sequence-numbered article logs with compact range summaries.
//!
//! The `obs` trace records forwarding *decisions*; [`SeqLog`] records
//! *possession*: which sequence numbers of some totally-ordered per-source
//! stream (articles from one publisher, say) a node currently holds. Its
//! [`RangeSummary`] is a fixed-size digest — four integers, regardless of
//! log size — cheap enough to piggyback on every gossip round, yet precise
//! enough that two nodes can detect holes in each other's coverage without
//! exchanging per-item state.
//!
//! Epochs order incomparable histories: a source that restarts with fresh
//! sequence numbering bumps its epoch, and a summary from a newer epoch
//! supersedes anything known about an older one.

use std::collections::VecDeque;

/// A compact, fixed-size summary of a [`SeqLog`]'s coverage.
///
/// `floor..next` is the *window of knowledge*: sequence numbers below
/// `floor` have been evicted or truncated (the log can no longer vouch for
/// them), `next` is one past the highest sequence number ever observed, and
/// `present` counts the retained entries inside the window. The window is
/// contiguous (hole-free) exactly when `present == next - floor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeSummary {
    /// History epoch; summaries from different epochs are incomparable.
    pub epoch: u32,
    /// Lowest sequence number the log can still vouch for.
    pub floor: u64,
    /// One past the highest sequence number ever observed.
    pub next: u64,
    /// Retained entries in `floor..next`.
    pub present: u64,
}

impl RangeSummary {
    /// True when the window is hole-free (every seq in `floor..next` held).
    pub fn contiguous(&self) -> bool {
        self.present == self.next.saturating_sub(self.floor)
    }

    /// True when nothing has ever been observed.
    pub fn is_empty(&self) -> bool {
        self.next <= self.floor
    }
}

/// A requester-held baseline for one story line, piggybacked on repair and
/// reconcile requests next to the [`RangeSummary`].
///
/// The summary tells a responder *which sequence numbers* the requester
/// lacks; a baseline hint additionally tells it *which revision of the
/// story* the requester already holds, so the reply can ship a chunk delta
/// against that revision instead of the full body. `key` is a stable
/// 64-bit hash of `(publisher, slug)` (see `newsml::cdc::slug_key`);
/// `body_len` rides along because the synthetic body derivation — shared
/// by both endpoints — is a function of revision *and* length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineHint {
    /// Stable hash of the story line `(publisher, slug)`.
    pub key: u64,
    /// Highest revision of the story the requester holds.
    pub revision: u32,
    /// Body length of that held revision, in bytes.
    pub body_len: u32,
}

impl BaselineHint {
    /// Serialized size: key + revision + length.
    pub const WIRE_SIZE: usize = 16;
}

/// A bounded, epoch-aware log of sequence-numbered entries from one source.
///
/// Entries are keyed by sequence number; capacity eviction removes the
/// lowest numbers first and raises [`SeqLog::floor`] so the summary never
/// claims knowledge the log no longer has. Sequence number `u64::MAX` is
/// never logged: `next` is one past the highest, and could not name it.
#[derive(Debug, Clone)]
pub struct SeqLog<T> {
    epoch: u32,
    floor: u64,
    next: u64,
    /// Retained entries in ascending sequence order, all inside
    /// `floor..next`. Arrivals run mostly in order and eviction takes the
    /// lowest, so the common cases are a push at the back and a pop at the
    /// front; a late arrival is placed by binary search.
    entries: VecDeque<(u64, T)>,
    capacity: usize,
    total: u64,
}

impl<T> SeqLog<T> {
    /// Creates a log retaining up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log needs capacity");
        SeqLog { epoch: 0, floor: 0, next: 0, entries: VecDeque::new(), capacity, total: 0 }
    }

    /// Current history epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Lowest sequence number the log can still vouch for.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// One past the highest sequence number ever observed.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries ever inserted (including evicted ones).
    pub fn total_written(&self) -> u64 {
        self.total
    }

    /// Where `seq` is retained (`Ok`), or where it would be inserted.
    fn search(&self, seq: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&seq, |&(s, _)| s)
    }

    /// The index of the first retained entry at or above `seq`.
    fn lower_bound(&self, seq: u64) -> usize {
        self.entries.partition_point(|&(s, _)| s < seq)
    }

    /// Inserts `value` at `seq`. Returns `false` (and keeps the existing
    /// entry) for duplicates and for sequence numbers below the floor —
    /// those were already evicted, and readmitting them would make the
    /// summary lie — and for `u64::MAX`, which no window can hold.
    pub fn insert(&mut self, seq: u64, value: T) -> bool {
        if seq < self.floor || seq == u64::MAX {
            return false;
        }
        match self.entries.back() {
            Some(&(last, _)) if last >= seq => match self.search(seq) {
                Ok(_) => return false,
                Err(at) => self.entries.insert(at, (seq, value)),
            },
            _ => self.entries.push_back((seq, value)),
        }
        self.next = self.next.max(seq + 1);
        self.total += 1;
        while self.entries.len() > self.capacity {
            let (lowest, _) = self.entries.pop_front().expect("non-empty over capacity");
            self.floor = lowest + 1;
        }
        true
    }

    /// True when `seq` is retained.
    pub fn contains(&self, seq: u64) -> bool {
        self.search(seq).is_ok()
    }

    /// The retained entry at `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.search(seq).ok().map(|at| &self.entries[at].1)
    }

    /// Iterates retained `(seq, entry)` pairs in the inclusive range, in
    /// sequence order. An empty range (`lo > hi`) yields nothing.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &T)> {
        let start = self.lower_bound(lo);
        let end = self.entries.partition_point(|&(s, _)| s <= hi).max(start);
        self.entries.range(start..end).map(|(s, v)| (*s, v))
    }

    /// Drops all entries below `seq` and raises the floor to at least `seq`.
    pub fn prune_below(&mut self, seq: u64) {
        let cut = self.lower_bound(seq);
        self.entries.drain(..cut);
        self.floor = self.floor.max(seq);
        self.next = self.next.max(self.floor);
    }

    /// Starts a new history epoch, forgetting all prior coverage. Used when
    /// a source restarts with fresh sequence numbering.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.floor = 0;
        self.next = 0;
        self.entries.clear();
    }

    /// Adopts `epoch` (forgetting prior coverage) if it is newer than ours.
    pub fn adopt_epoch(&mut self, epoch: u32) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.floor = 0;
            self.next = 0;
            self.entries.clear();
        }
    }

    /// The fixed-size digest of current coverage.
    pub fn summary(&self) -> RangeSummary {
        RangeSummary {
            epoch: self.epoch,
            floor: self.floor,
            next: self.next,
            present: self.entries.len() as u64,
        }
    }

    /// The holes inside our own window, as inclusive `(lo, hi)` ranges.
    pub fn gaps(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if self.summary().contiguous() {
            return out; // hole-free: nothing to walk
        }
        let mut cursor = self.floor;
        for &(seq, _) in &self.entries {
            if seq > cursor {
                out.push((cursor, seq - 1));
            }
            cursor = seq + 1;
        }
        if cursor < self.next {
            out.push((cursor, self.next - 1));
        }
        out
    }

    /// Encodes the structural coverage state — `epoch:floor:next:total` —
    /// for stable-storage snapshots. Entry *values* are persisted by the
    /// owning layer (they may be arbitrarily large); after re-inserting
    /// them, [`SeqLog::restore_coverage`] re-imposes this structure so the
    /// restored log reports the same summary, floor and gaps as the
    /// snapshotted one.
    pub fn encode_coverage(&self) -> String {
        format!("{}:{}:{}:{}", self.epoch, self.floor, self.next, self.total)
    }

    /// Re-imposes snapshotted coverage on a log whose surviving entries have
    /// been re-inserted: adopts the epoch, floor and highwater, prunes any
    /// entry below the snapshot floor, and restores the lifetime insert
    /// count. Entries the snapshot claimed but the caller could not restore
    /// simply become gaps — exactly what anti-entropy repairs. Returns
    /// `false` (leaving the log untouched) on malformed input.
    pub fn restore_coverage(&mut self, s: &str) -> bool {
        let mut parts = s.split(':');
        let Some(epoch) = parts.next().and_then(|p| p.parse().ok()) else { return false };
        let Some(floor) = parts.next().and_then(|p| p.parse::<u64>().ok()) else { return false };
        let Some(next) = parts.next().and_then(|p| p.parse::<u64>().ok()) else { return false };
        let Some(total) = parts.next().and_then(|p| p.parse::<u64>().ok()) else { return false };
        if parts.next().is_some() || next < floor {
            return false;
        }
        self.epoch = epoch;
        self.prune_below(floor);
        self.next = self.next.max(next);
        self.total = self.total.max(total);
        true
    }

    /// The sequence numbers we should pull from a peer advertising `peer`,
    /// as inclusive `(lo, hi)` ranges: our internal holes that fall inside
    /// the peer's window, plus the tail the peer has seen beyond our
    /// highwater. Nothing below our own floor is requested — that history
    /// was deliberately evicted.
    ///
    /// Epochs order histories: a peer on an older epoch has nothing for us;
    /// a peer on a newer epoch supersedes everything we hold, so its whole
    /// window is requested (the caller should [`SeqLog::adopt_epoch`] when
    /// the items arrive).
    pub fn missing_given(&self, peer: &RangeSummary) -> Vec<(u64, u64)> {
        self.missing_in(&self.gaps(), peer).collect()
    }

    /// True exactly when [`SeqLog::missing_given`] would return something,
    /// without building it. `gaps` must be this log's own [`SeqLog::gaps`]:
    /// a caller weighing many peers walks the log once and tests each peer
    /// against the result, allocation-free.
    pub fn lacks(&self, gaps: &[(u64, u64)], peer: &RangeSummary) -> bool {
        self.missing_in(gaps, peer).next().is_some()
    }

    /// The ranges of [`SeqLog::missing_given`], lazily, over precomputed
    /// `gaps`.
    fn missing_in<'a>(
        &self,
        gaps: &'a [(u64, u64)],
        peer: &RangeSummary,
    ) -> impl Iterator<Item = (u64, u64)> + 'a {
        let usable = peer.epoch >= self.epoch && !peer.is_empty();
        let same_epoch = usable && peer.epoch == self.epoch;
        let lo_bound = peer.floor.max(self.floor);
        // Inclusive top of the peer's window; only read when `usable`, and a
        // non-empty window has `next > floor >= 0`.
        let top = peer.next.saturating_sub(1);
        let whole = (usable && !same_epoch).then_some((peer.floor, top));
        let holes = if same_epoch { gaps } else { &[] }
            .iter()
            .map(move |&(lo, hi)| (lo.max(lo_bound), hi.min(top)))
            .filter(|(lo, hi)| lo <= hi);
        let tail = (same_epoch && peer.next > self.next)
            .then_some((self.next.max(lo_bound), top))
            .filter(|(lo, hi)| lo <= hi);
        whole.into_iter().chain(holes).chain(tail)
    }
}

/// The log as it was kept in a `BTreeMap` before [`SeqLog`] became a
/// sorted deque: the reference the differential test drives in lockstep.
#[cfg(test)]
mod model {
    use std::collections::BTreeMap;

    use super::RangeSummary;

    pub(super) struct MapLog<T> {
        epoch: u32,
        floor: u64,
        next: u64,
        entries: BTreeMap<u64, T>,
        capacity: usize,
        total: u64,
    }

    impl<T> MapLog<T> {
        pub(super) fn new(capacity: usize) -> Self {
            MapLog { epoch: 0, floor: 0, next: 0, entries: BTreeMap::new(), capacity, total: 0 }
        }

        pub(super) fn total_written(&self) -> u64 {
            self.total
        }

        pub(super) fn insert(&mut self, seq: u64, value: T) -> bool {
            if seq < self.floor || self.entries.contains_key(&seq) {
                return false;
            }
            self.entries.insert(seq, value);
            self.next = self.next.max(seq + 1);
            self.total += 1;
            while self.entries.len() > self.capacity {
                let (&lowest, _) = self.entries.iter().next().expect("non-empty over capacity");
                self.entries.remove(&lowest);
                self.floor = lowest + 1;
            }
            true
        }

        pub(super) fn contains(&self, seq: u64) -> bool {
            self.entries.contains_key(&seq)
        }

        pub(super) fn get(&self, seq: u64) -> Option<&T> {
            self.entries.get(&seq)
        }

        pub(super) fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &T)> {
            self.entries.range(lo..=hi).map(|(s, v)| (*s, v))
        }

        pub(super) fn prune_below(&mut self, seq: u64) {
            self.entries = self.entries.split_off(&seq);
            self.floor = self.floor.max(seq);
            self.next = self.next.max(self.floor);
        }

        pub(super) fn bump_epoch(&mut self) {
            self.epoch += 1;
            self.floor = 0;
            self.next = 0;
            self.entries.clear();
        }

        pub(super) fn adopt_epoch(&mut self, epoch: u32) {
            if epoch > self.epoch {
                self.epoch = epoch;
                self.floor = 0;
                self.next = 0;
                self.entries.clear();
            }
        }

        pub(super) fn summary(&self) -> RangeSummary {
            RangeSummary {
                epoch: self.epoch,
                floor: self.floor,
                next: self.next,
                present: self.entries.len() as u64,
            }
        }

        pub(super) fn gaps(&self) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            if self.summary().contiguous() {
                return out;
            }
            let mut cursor = self.floor;
            for &seq in self.entries.keys() {
                if seq > cursor {
                    out.push((cursor, seq - 1));
                }
                cursor = seq + 1;
            }
            if cursor < self.next {
                out.push((cursor, self.next - 1));
            }
            out
        }

        pub(super) fn encode_coverage(&self) -> String {
            format!("{}:{}:{}:{}", self.epoch, self.floor, self.next, self.total)
        }

        pub(super) fn restore_coverage(&mut self, s: &str) -> bool {
            let mut parts = s.split(':');
            let Some(epoch) = parts.next().and_then(|p| p.parse().ok()) else { return false };
            let Some(floor) = parts.next().and_then(|p| p.parse::<u64>().ok()) else {
                return false;
            };
            let Some(next) = parts.next().and_then(|p| p.parse::<u64>().ok()) else {
                return false;
            };
            let Some(total) = parts.next().and_then(|p| p.parse::<u64>().ok()) else {
                return false;
            };
            if parts.next().is_some() || next < floor {
                return false;
            }
            self.epoch = epoch;
            self.prune_below(floor);
            self.next = self.next.max(next);
            self.total = self.total.max(total);
            true
        }

        pub(super) fn missing_given(&self, peer: &RangeSummary) -> Vec<(u64, u64)> {
            let gaps = self.gaps();
            let usable = peer.epoch >= self.epoch && !peer.is_empty();
            let same_epoch = usable && peer.epoch == self.epoch;
            let lo_bound = peer.floor.max(self.floor);
            let top = peer.next.saturating_sub(1);
            let whole = (usable && !same_epoch).then_some((peer.floor, top));
            let holes = if same_epoch { &gaps[..] } else { &[] }
                .iter()
                .map(move |&(lo, hi)| (lo.max(lo_bound), hi.min(top)))
                .filter(|(lo, hi)| lo <= hi);
            let tail = (same_epoch && peer.next > self.next)
                .then_some((self.next.max(lo_bound), top))
                .filter(|(lo, hi)| lo <= hi);
            whole.into_iter().chain(holes).chain(tail).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(seqs: &[u64]) -> SeqLog<u64> {
        let mut log = SeqLog::new(1024);
        for &s in seqs {
            log.insert(s, s * 10);
        }
        log
    }

    #[test]
    fn empty_log_summary_and_gaps() {
        let log: SeqLog<()> = SeqLog::new(8);
        let s = log.summary();
        assert!(s.is_empty());
        assert!(s.contiguous());
        assert_eq!(s, RangeSummary { epoch: 0, floor: 0, next: 0, present: 0 });
        assert!(log.gaps().is_empty());
        // An empty log wants everything a non-empty peer advertises.
        let peer = RangeSummary { epoch: 0, floor: 2, next: 7, present: 5 };
        assert_eq!(log.missing_given(&peer), vec![(2, 6)]);
        // And nothing from an empty peer.
        assert!(log.missing_given(&RangeSummary::default()).is_empty());
    }

    #[test]
    fn single_gap_detected_and_requested() {
        let log = filled(&[0, 1, 2, 5, 6]);
        assert_eq!(log.gaps(), vec![(3, 4)]);
        let s = log.summary();
        assert_eq!(s, RangeSummary { epoch: 0, floor: 0, next: 7, present: 5 });
        assert!(!s.contiguous());
        // A contiguous peer covering the window fills the hole and the tail.
        let peer = RangeSummary { epoch: 0, floor: 0, next: 9, present: 9 };
        assert_eq!(log.missing_given(&peer), vec![(3, 4), (7, 8)]);
        // A peer whose window misses the hole only supplies the tail.
        let late = RangeSummary { epoch: 0, floor: 5, next: 9, present: 4 };
        assert_eq!(log.missing_given(&late), vec![(7, 8)]);
    }

    #[test]
    fn capacity_eviction_raises_floor() {
        let mut log = SeqLog::new(4);
        for seq in 0..10 {
            assert!(log.insert(seq, ()));
        }
        // Wrapped 6 entries past capacity: floor chased the evictions.
        assert_eq!(log.len(), 4);
        assert_eq!(log.floor(), 6);
        assert_eq!(log.summary(), RangeSummary { epoch: 0, floor: 6, next: 10, present: 4 });
        assert!(log.summary().contiguous());
        assert_eq!(log.total_written(), 10);
        // Evicted history is not readmitted and not re-requested.
        assert!(!log.insert(3, ()));
        let peer = RangeSummary { epoch: 0, floor: 0, next: 10, present: 10 };
        assert!(log.missing_given(&peer).is_empty());
    }

    #[test]
    fn eviction_with_gaps_skips_stranded_holes() {
        let mut log = SeqLog::new(3);
        for seq in [0, 1, 4, 6, 7] {
            log.insert(seq, ());
        }
        // 0 and 1 evicted; floor lands past the evicted entry, leaving the
        // still-reachable hole at 5.
        assert_eq!(log.floor(), 2);
        assert_eq!(log.gaps(), vec![(2, 3), (5, 5)]);
        let peer = RangeSummary { epoch: 0, floor: 0, next: 8, present: 8 };
        assert_eq!(log.missing_given(&peer), vec![(2, 3), (5, 5)]);
    }

    #[test]
    fn duplicates_rejected() {
        let mut log = SeqLog::new(8);
        assert!(log.insert(3, "a"));
        assert!(!log.insert(3, "b"));
        assert_eq!(log.get(3), Some(&"a"));
        assert_eq!(log.total_written(), 1);
    }

    #[test]
    fn epochs_order_histories() {
        let mut log = filled(&[0, 1, 2]);
        let newer = RangeSummary { epoch: 2, floor: 5, next: 9, present: 4 };
        assert_eq!(log.missing_given(&newer), vec![(5, 8)]);
        let older = RangeSummary { epoch: 0, floor: 0, next: 50, present: 50 };
        log.bump_epoch();
        assert_eq!(log.epoch(), 1);
        assert!(log.missing_given(&older).is_empty());
        assert!(log.is_empty());
        // adopt_epoch is monotone.
        log.insert(0, 99);
        log.adopt_epoch(1);
        assert!(log.contains(0));
        log.adopt_epoch(4);
        assert_eq!(log.epoch(), 4);
        assert!(!log.contains(0));
    }

    #[test]
    fn prune_below_truncates() {
        let mut log = filled(&[0, 1, 2, 3, 4]);
        log.prune_below(3);
        assert_eq!(log.floor(), 3);
        assert_eq!(log.len(), 2);
        assert!(log.summary().contiguous());
    }

    #[test]
    fn coverage_roundtrip_restores_summary_and_gaps() {
        let mut log = SeqLog::new(4);
        log.bump_epoch();
        log.bump_epoch();
        for seq in [0, 1, 2, 3, 4, 5, 8] {
            log.insert(seq, seq * 10);
        }
        assert!(log.floor() > 0, "eviction must have raised the floor");
        let snap = log.encode_coverage();
        let retained: Vec<(u64, u64)> = log.range(0, u64::MAX).map(|(s, v)| (s, *v)).collect();

        // Cold restart: re-insert the surviving values, then re-impose the
        // snapshot structure.
        let mut restored = SeqLog::new(4);
        for (seq, v) in retained {
            restored.insert(seq, v);
        }
        assert!(restored.restore_coverage(&snap));
        assert_eq!(restored.summary(), log.summary());
        assert_eq!(restored.gaps(), log.gaps());
        assert_eq!(restored.total_written(), log.total_written());
    }

    #[test]
    fn coverage_restore_with_lost_entries_reports_gaps() {
        let mut log = SeqLog::new(64);
        for seq in 0..5 {
            log.insert(seq, ());
        }
        let snap = log.encode_coverage();
        // Only seqs 0 and 1 survived the crash (the rest were unsynced).
        let mut restored = SeqLog::new(64);
        restored.insert(0, ());
        restored.insert(1, ());
        assert!(restored.restore_coverage(&snap));
        assert_eq!(restored.summary().next, 5, "highwater survives the losses");
        assert_eq!(restored.gaps(), vec![(2, 4)], "lost entries surface as repairable gaps");
    }

    #[test]
    fn coverage_restore_rejects_malformed() {
        let mut log: SeqLog<()> = SeqLog::new(8);
        log.insert(0, ());
        for bad in ["", "1:2:3", "1:2:3:4:5", "x:0:0:0", "0:9:3:0"] {
            assert!(!log.restore_coverage(bad), "{bad:?}");
        }
        assert_eq!(log.summary(), RangeSummary { epoch: 0, floor: 0, next: 1, present: 1 });
    }

    #[test]
    fn range_iterates_in_order() {
        let log = filled(&[5, 1, 9, 3]);
        let got: Vec<u64> = log.range(2, 9).map(|(s, _)| s).collect();
        assert_eq!(got, vec![3, 5, 9]);
    }

    #[test]
    fn an_empty_range_yields_nothing() {
        let log = filled(&[0, 1, 2, 5]);
        assert_eq!(log.range(3, 2).count(), 0);
        assert_eq!(log.range(9, 0).count(), 0);
        assert_eq!(log.range(5, 5).map(|(s, _)| s).collect::<Vec<_>>(), vec![5]);
        // A restored floor equal to its highwater (a flipped bit turns
        // `0:0:1:1` into `0:1:1:1`) is what asks for `range(1, 0)`.
        let mut restored = filled(&[0]);
        assert!(restored.restore_coverage("0:1:1:1"));
        assert_eq!((restored.floor(), restored.next_seq()), (1, 1));
        let hi = restored.next_seq().saturating_sub(1);
        assert_eq!(restored.range(restored.floor(), hi).count(), 0);
    }

    #[test]
    fn the_last_sequence_number_is_refused() {
        let mut log = filled(&[0, 1]);
        let before = log.summary();
        assert!(!log.insert(u64::MAX, 7), "no window can hold u64::MAX");
        assert_eq!(log.summary(), before);
        assert_eq!(log.total_written(), 2);
        assert!(!log.contains(u64::MAX));
        // The seq below it is an ordinary (if distant) arrival.
        assert!(log.insert(u64::MAX - 1, 7));
        assert_eq!(log.next_seq(), u64::MAX);
        assert_eq!(log.gaps(), vec![(2, u64::MAX - 2)]);
    }

    /// One step of the differential test, decoded from three random words
    /// against the log's current window.
    fn step(log: &mut SeqLog<u64>, model: &mut model::MapLog<u64>, op: u8, a: u64, b: u64) {
        let (floor, next) = (log.floor(), log.next_seq());
        let mut both_insert = |seq: u64| {
            let value = seq * 10 + b % 10;
            assert_eq!(log.insert(seq, value), model.insert(seq, value), "insert {seq}");
        };
        match op {
            // In order, or a little ahead of the highwater.
            0..=3 => both_insert(next + a % 3),
            // Late: a hole's worth behind the highwater.
            4 => both_insert(next.saturating_sub(1 + a % 8)),
            // Anywhere in the window, most often a duplicate.
            5 => both_insert(floor + a % (next - floor + 1)),
            // Below the floor.
            6 => both_insert(floor.saturating_sub(1 + a % 4)),
            7 => {
                let seq = floor + a % 6;
                log.prune_below(seq);
                model.prune_below(seq);
            }
            8 if a.is_multiple_of(4) => {
                log.bump_epoch();
                model.bump_epoch();
            }
            8 => {
                let epoch = log.epoch() + (a % 3) as u32;
                let epoch = epoch.saturating_sub(1);
                log.adopt_epoch(epoch);
                model.adopt_epoch(epoch);
            }
            _ => {
                // A snapshot token near the current coverage, malformed
                // when its floor passes its highwater.
                let s = log.summary();
                let token = format!(
                    "{}:{}:{}:{}",
                    s.epoch + (a % 2) as u32,
                    s.floor + a % 4,
                    s.next + b % 4,
                    log.total_written() + b % 3
                );
                assert_eq!(log.restore_coverage(&token), model.restore_coverage(&token), "{token}");
            }
        }
    }

    proptest::proptest! {
        /// The sorted-deque log answers every query as the map-backed log
        /// it replaced does, after every operation of a seeded sequence.
        #[test]
        fn the_deque_log_matches_the_map_model(
            cap in 1usize..9,
            ops in proptest::collection::vec((0u8..10, 0u64..1_000, 0u64..1_000), 1..120),
        ) {
            let mut log = SeqLog::new(cap);
            let mut model = model::MapLog::new(cap);
            for (op, a, b) in ops {
                step(&mut log, &mut model, op, a, b);
                let s = log.summary();
                assert_eq!(s, model.summary());
                assert_eq!(log.len() as u64, s.present);
                assert_eq!(log.gaps(), model.gaps());
                assert_eq!(log.encode_coverage(), model.encode_coverage());
                assert_eq!(log.total_written(), model.total_written());
                let peer = RangeSummary {
                    epoch: (s.epoch + (a % 3) as u32).saturating_sub(1),
                    floor: s.floor.saturating_sub(2) + b % 5,
                    next: s.floor + b % 13,
                    present: b % 7,
                };
                assert_eq!(log.missing_given(&peer), model.missing_given(&peer), "{peer:?}");
                let lo = s.floor.saturating_sub(2) + a % 9;
                let hi = lo + b % 9;
                let ours: Vec<_> = log.range(lo, hi).map(|(s, v)| (s, *v)).collect();
                let theirs: Vec<_> = model.range(lo, hi).map(|(s, v)| (s, *v)).collect();
                assert_eq!(ours, theirs, "range({lo}, {hi})");
                for seq in s.floor.saturating_sub(2)..s.next + 2 {
                    assert_eq!(log.contains(seq), model.contains(seq), "contains {seq}");
                    assert_eq!(log.get(seq), model.get(seq), "get {seq}");
                }
            }
        }
    }
}
