//! Epoch/sequence-numbered article logs with compact range summaries.
//!
//! [`ForwardLog`](crate::ForwardLog) records *decisions*; [`SeqLog`] records
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

use std::collections::BTreeMap;

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

    /// Encodes as a compact `epoch:floor:next:present` string, suitable for
    /// a gossip row attribute.
    pub fn encode(&self) -> String {
        format!("{}:{}:{}:{}", self.epoch, self.floor, self.next, self.present)
    }

    /// Decodes [`RangeSummary::encode`] output; `None` on malformed input
    /// (gossip payloads are untrusted).
    pub fn decode(s: &str) -> Option<RangeSummary> {
        let mut parts = s.split(':');
        let epoch = parts.next()?.parse().ok()?;
        let floor = parts.next()?.parse().ok()?;
        let next = parts.next()?.parse().ok()?;
        let present = parts.next()?.parse().ok()?;
        if parts.next().is_some() || next < floor || present > next - floor {
            return None;
        }
        Some(RangeSummary { epoch, floor, next, present })
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

    /// Encodes as a compact `key:revision:body_len` string (hex key), the
    /// same attribute-friendly shape as [`RangeSummary::encode`].
    pub fn encode(&self) -> String {
        format!("{:x}:{}:{}", self.key, self.revision, self.body_len)
    }

    /// Decodes [`BaselineHint::encode`] output; `None` on malformed input.
    pub fn decode(s: &str) -> Option<BaselineHint> {
        let mut parts = s.split(':');
        let key = u64::from_str_radix(parts.next()?, 16).ok()?;
        let revision = parts.next()?.parse().ok()?;
        let body_len = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(BaselineHint { key, revision, body_len })
    }
}

/// A bounded, epoch-aware log of sequence-numbered entries from one source.
///
/// Entries are keyed by sequence number; capacity eviction removes the
/// lowest numbers first and raises [`SeqLog::floor`] so the summary never
/// claims knowledge the log no longer has.
#[derive(Debug, Clone)]
pub struct SeqLog<T> {
    epoch: u32,
    floor: u64,
    next: u64,
    entries: BTreeMap<u64, T>,
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
        SeqLog { epoch: 0, floor: 0, next: 0, entries: BTreeMap::new(), capacity, total: 0 }
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

    /// Inserts `value` at `seq`. Returns `false` (and keeps the existing
    /// entry) for duplicates and for sequence numbers below the floor —
    /// those were already evicted, and readmitting them would make the
    /// summary lie.
    pub fn insert(&mut self, seq: u64, value: T) -> bool {
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

    /// True when `seq` is retained.
    pub fn contains(&self, seq: u64) -> bool {
        self.entries.contains_key(&seq)
    }

    /// The retained entry at `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.entries.get(&seq)
    }

    /// Iterates retained `(seq, entry)` pairs in the inclusive range, in
    /// sequence order.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &T)> {
        self.entries.range(lo..=hi).map(|(s, v)| (*s, v))
    }

    /// Drops all entries below `seq` and raises the floor to at least `seq`.
    pub fn prune_below(&mut self, seq: u64) {
        self.entries = self.entries.split_off(&seq);
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
    fn baseline_hint_roundtrip_and_rejection() {
        let h = BaselineHint { key: 0xDEAD_BEEF_1234_5678, revision: 7, body_len: 4_096 };
        assert_eq!(BaselineHint::decode(&h.encode()), Some(h));
        assert_eq!(BaselineHint::decode(""), None);
        assert_eq!(BaselineHint::decode("zz:1:2"), None);
        assert_eq!(BaselineHint::decode("ff:1"), None);
        assert_eq!(BaselineHint::decode("ff:1:2:3"), None);
        assert_eq!(BaselineHint::WIRE_SIZE, 16);
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
    fn summary_roundtrip_and_malformed() {
        let s = RangeSummary { epoch: 3, floor: 17, next: 40, present: 20 };
        assert_eq!(RangeSummary::decode(&s.encode()), Some(s));
        for bad in ["", "1:2:3", "1:2:3:4:5", "a:0:0:0", "0:9:3:0", "0:0:4:9"] {
            assert_eq!(RangeSummary::decode(bad), None, "{bad:?}");
        }
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
}
