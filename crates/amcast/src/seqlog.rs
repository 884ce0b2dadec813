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

use std::collections::{vec_deque, VecDeque};

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
///
/// The log keeps runs of consecutive seqs, not one `(seq, value)` pair per
/// seq: a header per run, and the values back to back. A log that holds a
/// publisher's articles without holes costs one header and its values (4 B
/// a seq for a 4-byte value), and a log of `()` costs a header per run.
#[derive(Debug, Clone)]
pub struct SeqLog<T> {
    epoch: u32,
    floor: u64,
    next: u64,
    /// The maximal runs of consecutive retained seqs, ascending and all
    /// inside `floor..next`; no two touch. Arrivals run mostly in order and
    /// eviction takes the lowest, so the common cases are a value appended
    /// to the last run and a value taken off the first; a late arrival is
    /// placed by binary search, and may join the runs on either side.
    runs: VecDeque<Run>,
    /// Every retained value in seq order: each run's values back to back.
    values: VecDeque<T>,
    /// Values taken off the front of `values` so far: run `r`'s values
    /// start at `values[r.at - base]`, so an eviction moves no header but
    /// the first.
    base: u64,
    capacity: usize,
    total: u64,
}

/// One run of consecutive retained seqs: its first seq, and where its first
/// value sits in the log's `values` (offset by the log's `base`). A run
/// ends where the next one's values begin.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u64,
    at: u64,
}

/// The entries of [`SeqLog::range`]: the values in order, each numbered
/// from the run it belongs to.
struct Entries<'a, T> {
    values: vec_deque::Iter<'a, T>,
    /// The runs after `next_run`.
    later: vec_deque::Iter<'a, Run>,
    /// The run whose first value comes at `pos`, once the values reach it.
    next_run: Option<Run>,
    /// Where the next value sits (offset by the log's `base`), and its seq.
    pos: u64,
    seq: u64,
}

impl<'a, T> Iterator for Entries<'a, T> {
    type Item = (u64, &'a T);

    fn next(&mut self) -> Option<(u64, &'a T)> {
        let value = self.values.next()?;
        if let Some(run) = self.next_run.filter(|r| r.at == self.pos) {
            self.seq = run.start;
            self.next_run = self.later.next().copied();
        }
        let seq = self.seq;
        self.seq += 1;
        self.pos += 1;
        Some((seq, value))
    }
}

impl<T> SeqLog<T> {
    /// Creates a log retaining up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log needs capacity");
        SeqLog {
            epoch: 0,
            floor: 0,
            next: 0,
            runs: VecDeque::new(),
            values: VecDeque::new(),
            base: 0,
            capacity,
            total: 0,
        }
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
        self.values.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total entries ever inserted (including evicted ones).
    pub fn total_written(&self) -> u64 {
        self.total
    }

    /// Heap bytes the log has allocated: its run headers and its values,
    /// capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run>()
            + self.values.capacity() * std::mem::size_of::<T>()
    }

    /// Run `i` as `(start, end, first)`: it holds seqs `start..end`, whose
    /// values begin at `values[first]`.
    fn run(&self, i: usize) -> (u64, u64, usize) {
        let Run { start, at } = self.runs[i];
        let first = (at - self.base) as usize;
        let past = self.runs.get(i + 1).map_or(self.values.len(), |r| (r.at - self.base) as usize);
        (start, start + (past - first) as u64, first)
    }

    /// The run that would hold `seq`: the last starting at or below it.
    fn run_below(&self, seq: u64) -> Option<usize> {
        self.runs.partition_point(|r| r.start <= seq).checked_sub(1)
    }

    /// Where `seq`'s value is kept, when it is retained.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let (start, end, first) = self.run(self.run_below(seq)?);
        (seq < end).then(|| first + (seq - start) as usize)
    }

    /// The index of the first retained value at or above `seq`.
    fn lower_bound(&self, seq: u64) -> usize {
        self.run_below(seq).map_or(0, |i| {
            let (start, end, first) = self.run(i);
            first + (seq.min(end) - start) as usize
        })
    }

    /// Inserts `value` at `seq`. Returns `false` (and keeps the existing
    /// entry) for duplicates and for sequence numbers below the floor —
    /// those were already evicted, and readmitting them would make the
    /// summary lie — and for `u64::MAX`, which no window can hold.
    pub fn insert(&mut self, seq: u64, value: T) -> bool {
        if seq < self.floor || seq == u64::MAX {
            return false;
        }
        let end = self.runs.back().map(|r| r.start + (self.base + self.values.len() as u64 - r.at));
        match end {
            // The next seq of the last run: the in-order arrival.
            Some(end) if seq == end => self.values.push_back(value),
            Some(end) if seq < end => {
                if !self.insert_late(seq, value) {
                    return false;
                }
            }
            _ => {
                self.runs.push_back(Run { start: seq, at: self.base + self.values.len() as u64 });
                self.values.push_back(value);
            }
        }
        self.next = self.next.max(seq + 1);
        self.total += 1;
        while self.values.len() > self.capacity {
            self.evict_lowest();
        }
        true
    }

    /// Places a `seq` below the last run's end: `false` when it is held,
    /// otherwise its value goes before the next run's, and it joins the run
    /// it touches on either side (closing a one-seq hole makes two runs one).
    fn insert_late(&mut self, seq: u64, value: T) -> bool {
        let i = self.runs.partition_point(|r| r.start <= seq);
        let joins_prev = match i.checked_sub(1).map(|p| self.run(p).1) {
            Some(end) if seq < end => return false,
            Some(end) => end == seq,
            None => false,
        };
        // Not held and below the last run's end: a run starts above it.
        let Run { start: after, at } = self.runs[i];
        self.values.insert((at - self.base) as usize, value);
        for r in self.runs.range_mut(i..) {
            r.at += 1;
        }
        match (joins_prev, after == seq + 1) {
            (true, true) => {
                self.runs.remove(i);
            }
            (true, false) => {}
            (false, true) => self.runs[i] = Run { start: seq, at },
            (false, false) => self.runs.insert(i, Run { start: seq, at }),
        }
        true
    }

    /// Drops the lowest retained value, and its run once that is empty.
    fn evict_lowest(&mut self) {
        self.values.pop_front();
        self.base += 1;
        let front = &mut self.runs[0];
        self.floor = front.start + 1;
        front.start += 1;
        front.at += 1;
        let at = front.at;
        if self.runs.get(1).map_or(self.values.is_empty(), |r| r.at == at) {
            self.runs.pop_front();
        }
    }

    /// Forgets every entry, as a new history does.
    fn forget(&mut self) {
        self.floor = 0;
        self.next = 0;
        self.runs.clear();
        self.values.clear();
        self.base = 0;
    }

    /// True when `seq` is retained.
    pub fn contains(&self, seq: u64) -> bool {
        self.index_of(seq).is_some()
    }

    /// The retained entry at `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.index_of(seq).map(|at| &self.values[at])
    }

    /// Iterates retained `(seq, entry)` pairs in the inclusive range, in
    /// sequence order. An empty range (`lo > hi`) yields nothing.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &T)> {
        let from = self.lower_bound(lo);
        let to = self.lower_bound(hi.saturating_add(1)).max(from);
        // The run the first value belongs to, and its seq.
        let pos = self.base + from as u64;
        let current = self.runs.partition_point(|r| r.at <= pos).saturating_sub(1);
        let seq = self.runs.get(current).map_or(0, |r| r.start + (pos - r.at));
        let mut later = self.runs.range((current + 1).min(self.runs.len())..);
        let next_run = later.next().copied();
        Entries { values: self.values.range(from..to), later, next_run, pos, seq }
    }

    /// Drops all entries below `seq` and raises the floor to at least `seq`.
    pub fn prune_below(&mut self, seq: u64) {
        let cut = self.lower_bound(seq);
        while !self.runs.is_empty() {
            let (start, end, _) = self.run(0);
            if end <= seq {
                self.runs.pop_front();
                continue;
            }
            if start < seq {
                // `seq` falls inside the first run: it starts there now.
                let front = &mut self.runs[0];
                front.at += seq - start;
                front.start = seq;
            }
            break;
        }
        self.values.drain(..cut);
        self.base += cut as u64;
        self.floor = self.floor.max(seq);
        self.next = self.next.max(self.floor);
    }

    /// Starts a new history epoch, forgetting all prior coverage. Used when
    /// a source restarts with fresh sequence numbering.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.forget();
    }

    /// Adopts `epoch` (forgetting prior coverage) if it is newer than ours.
    pub fn adopt_epoch(&mut self, epoch: u32) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.forget();
        }
    }

    /// The fixed-size digest of current coverage.
    pub fn summary(&self) -> RangeSummary {
        RangeSummary {
            epoch: self.epoch,
            floor: self.floor,
            next: self.next,
            present: self.values.len() as u64,
        }
    }

    /// The holes inside our own window, as inclusive `(lo, hi)` ranges: one
    /// before each run that does not start at the cursor, and the tail.
    pub fn gaps(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if self.summary().contiguous() {
            return out; // hole-free: nothing to walk
        }
        let mut cursor = self.floor;
        let past = self.runs.iter().skip(1).map(|r| r.at);
        let past = past.chain([self.base + self.values.len() as u64]);
        for (run, past) in self.runs.iter().zip(past) {
            if run.start > cursor {
                out.push((cursor, run.start - 1));
            }
            cursor = run.start + (past - run.at);
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

/// The log as it was kept in a `BTreeMap` before [`SeqLog`] kept runs:
/// the reference the differential test drives in lockstep.
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

        /// The maximal runs of consecutive retained seqs, inclusive.
        pub(super) fn runs(&self) -> Vec<(u64, u64)> {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for &seq in self.entries.keys() {
                match out.last_mut() {
                    Some((_, hi)) if *hi + 1 == seq => *hi = seq,
                    _ => out.push((seq, seq)),
                }
            }
            out
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
impl<T> SeqLog<T> {
    /// The runs as inclusive `(first, last)` seqs, for the lockstep test.
    fn run_bounds(&self) -> Vec<(u64, u64)> {
        (0..self.runs.len()).map(|i| self.run(i)).map(|(start, end, _)| (start, end - 1)).collect()
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
        assert_eq!(
            log.range(u64::MAX - 3, u64::MAX).map(|(s, v)| (s, *v)).collect::<Vec<_>>(),
            [(u64::MAX - 1, 7)]
        );
    }

    /// One step of the differential test, decoded from three random words
    /// against the log's current window.
    fn step(log: &mut SeqLog<u64>, model: &mut model::MapLog<u64>, op: u8, a: u64, b: u64) {
        let (floor, next) = (log.floor(), log.next_seq());
        let (runs, gaps) = (model.runs(), model.gaps());
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
            // Into a hole: at either edge (a one-seq hole closes, and its
            // two runs become one) or inside it (a run is born between two).
            10 | 11 => match gaps.get(a as usize % 4) {
                Some(&(lo, hi)) if op == 10 => {
                    both_insert(if b.is_multiple_of(2) { lo } else { hi })
                }
                Some(&(lo, hi)) => both_insert(lo + b % (hi - lo + 1)),
                None => both_insert(next + 1),
            },
            7 => {
                let seq = floor + a % 6;
                log.prune_below(seq);
                model.prune_below(seq);
            }
            // Inside a run, or at its first or last seq.
            12 => {
                let seq =
                    runs.get(a as usize % 3).map_or(floor, |&(lo, hi)| lo + b % (hi - lo + 1));
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

    /// Every query answered alike, with peers and ranges both at random
    /// near the window and pinned to run boundaries.
    fn agree(log: &SeqLog<u64>, model: &model::MapLog<u64>, a: u64, b: u64) {
        let s = log.summary();
        assert_eq!(s, model.summary());
        assert_eq!(log.len() as u64, s.present);
        assert_eq!(log.run_bounds(), model.runs(), "runs");
        assert_eq!(log.gaps(), model.gaps());
        assert_eq!(log.encode_coverage(), model.encode_coverage());
        assert_eq!(log.total_written(), model.total_written());
        // Every seq where a run starts or ends, one either side, and the
        // window's edges.
        let mut edges = vec![s.floor, s.next];
        for (lo, hi) in model.runs() {
            edges.extend([lo.saturating_sub(1), lo, hi, hi + 1]);
        }
        let edge = |k: u64| edges[k as usize % edges.len()];
        let peers = [
            RangeSummary {
                epoch: (s.epoch + (a % 3) as u32).saturating_sub(1),
                floor: s.floor.saturating_sub(2) + b % 5,
                next: s.floor + b % 13,
                present: b % 7,
            },
            RangeSummary { epoch: s.epoch, floor: edge(a), next: edge(b) + 1, present: 0 },
        ];
        for peer in &peers {
            assert_eq!(log.missing_given(peer), model.missing_given(peer), "{peer:?}");
        }
        let lo = s.floor.saturating_sub(2) + a % 9;
        let ranges = [(lo, lo + b % 9), (edge(a), edge(b)), (edge(a / 7), edge(a / 7) + b % 3)];
        for (lo, hi) in ranges {
            let ours: Vec<_> = log.range(lo, hi).map(|(s, v)| (s, *v)).collect();
            let theirs: Vec<_> = model.range(lo, hi.max(lo)).map(|(s, v)| (s, *v)).collect();
            let theirs = if lo > hi { Vec::new() } else { theirs };
            assert_eq!(ours, theirs, "range({lo}, {hi})");
        }
        for seq in s.floor.saturating_sub(2)..s.next + 2 {
            assert_eq!(log.contains(seq), model.contains(seq), "contains {seq}");
            assert_eq!(log.get(seq), model.get(seq), "get {seq}");
        }
    }

    proptest::proptest! {
        /// The run-length log answers every query as the map-backed log it
        /// replaced does, and keeps the same maximal runs, before and after
        /// every operation of a seeded sequence.
        #[test]
        fn the_deque_log_matches_the_map_model(
            cap in 1usize..12,
            ops in proptest::collection::vec((0u8..13, 0u64..1_000, 0u64..1_000), 1..160),
        ) {
            let mut log = SeqLog::new(cap);
            let mut model = model::MapLog::new(cap);
            agree(&log, &model, cap as u64, 0);
            for (op, a, b) in ops {
                step(&mut log, &mut model, op, a, b);
                agree(&log, &model, a, b);
            }
        }
    }
}
