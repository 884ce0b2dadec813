//! Zone tables: the replicated `child-label → row` maps.
//!
//! Every agent replicates the table of each zone on its root path. Tables
//! merge by newest-stamp-wins per row; rows are shared via `Arc` across the
//! replicas of one simulation process.

use std::sync::Arc;

use crate::mib::{Mib, Stamp};
use crate::zone::ZoneId;

/// What [`ZoneTable::merge_row_outcome`] did with an offered row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The present version is at least as new; nothing changed.
    Rejected,
    /// No row existed for the label; the offer was inserted.
    Inserted,
    /// The offer replaced an older row.
    Replaced {
        /// The offer's `issued_us` strictly exceeds the replaced row's
        /// (i.e. this was a genuine time advance, not a tie-break).
        advanced_time: bool,
        /// The replaced row carried `sys$agg:` mobile code.
        old_carried_agg: bool,
    },
}

/// Digest entry advertising one row version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowDigest {
    /// Child label of the row.
    pub label: u16,
    /// The advertised version stamp.
    pub stamp: Stamp,
    /// Content hash of the row's attributes (stamp-independent). Carried
    /// on the wire only in delta-gossip mode, where a matching hash lets a
    /// peer adopt the stamp from the digest itself instead of pulling the
    /// full row; `wire_size` accounts for it accordingly.
    pub chash: u64,
}

/// One table slot, laid out for the scan-heavy paths: the label and a copy
/// of the row's stamp sit inline, so digesting, diffing, GC sweeps and
/// eviction walk a contiguous array without chasing the `Arc` — the shared
/// attribute payload is only dereferenced when values are actually read.
#[derive(Debug, Clone)]
pub struct Row {
    /// Child label of the row.
    pub label: u16,
    /// Inline copy of `mib.stamp` (kept in sync by every mutation path).
    pub stamp: Stamp,
    /// Table generation at which this row last changed (stamp or content).
    /// Partial digests cover exactly the rows with `gen` past a peer's
    /// last-synced generation.
    pub gen: u64,
    /// The shared row version.
    pub mib: Arc<Mib>,
}

/// A replica of one zone's table.
#[derive(Debug, Clone, Default)]
pub struct ZoneTable {
    /// The zone this table describes; rows summarize its children.
    pub zone: ZoneId,
    rows: Vec<Row>,
    generation: u64,
    content_gen: u64,
}

impl ZoneTable {
    /// Creates an empty replica for `zone`.
    pub fn new(zone: ZoneId) -> Self {
        ZoneTable { zone, rows: Vec::new(), generation: 0, content_gen: 0 }
    }

    /// Monotone counter bumped on every mutation. Callers key caches
    /// (digests, aggregation inputs) on this to skip recomputation between
    /// gossip rounds where the table did not change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Monotone counter bumped only when attribute *values* change — a
    /// re-stamped heartbeat of an identical row advances [`Self::generation`]
    /// (digests must see the new stamp) but not this. In gossip steady state
    /// every row is re-stamped every round while values stand still, so
    /// caches of value-derived state (aggregate summaries, peer lists) key
    /// on this counter and hit indefinitely.
    pub fn content_generation(&self) -> u64 {
        self.content_gen
    }

    /// All rows in label order, without cloning.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows present.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row for child `label`.
    pub fn get(&self, label: u16) -> Option<&Arc<Mib>> {
        self.rows.binary_search_by_key(&label, |r| r.label).ok().map(|i| &self.rows[i].mib)
    }

    /// Iterates `(label, row)` in label order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Arc<Mib>)> {
        self.rows.iter().map(|r| (r.label, &r.mib))
    }

    /// Inserts `row` for `label` if it is newer than what is present.
    /// Returns `true` when the table changed.
    pub fn merge_row(&mut self, label: u16, row: Arc<Mib>) -> bool {
        self.merge_row_outcome(label, row) != MergeOutcome::Rejected
    }

    /// [`ZoneTable::merge_row`] reporting what happened to the previous row,
    /// so the gossip merge loop learns everything in one binary search.
    pub fn merge_row_outcome(&mut self, label: u16, row: Arc<Mib>) -> MergeOutcome {
        match self.rows.binary_search_by_key(&label, |r| r.label) {
            Ok(i) => {
                let slot = &mut self.rows[i];
                // The inline stamp answers newest-wins without touching the
                // old row's payload.
                if row.stamp > slot.stamp {
                    let outcome = MergeOutcome::Replaced {
                        advanced_time: row.stamp.issued_us > slot.stamp.issued_us,
                        old_carried_agg: slot.mib.carries_mobile_code(),
                    };
                    if !row.same_attrs(&slot.mib) {
                        self.content_gen += 1;
                    }
                    slot.stamp = row.stamp;
                    slot.mib = row;
                    self.generation += 1;
                    self.rows[i].gen = self.generation;
                    outcome
                } else {
                    MergeOutcome::Rejected
                }
            }
            Err(i) => {
                self.generation += 1;
                self.content_gen += 1;
                self.rows
                    .insert(i, Row { label, stamp: row.stamp, gen: self.generation, mib: row });
                MergeOutcome::Inserted
            }
        }
    }

    /// Unconditionally installs `row` for `label`, bypassing the
    /// newest-wins fence of [`ZoneTable::merge_row`]. Fault injection only:
    /// a corruption strike must scramble a held row *without* advancing its
    /// stamp — an advanced stamp would both propagate through digests and be
    /// healed by the next legitimate heartbeat, whereas an in-place scramble
    /// models silent memory corruption that anti-entropy cannot see.
    /// Returns `true` when the attribute values changed.
    pub fn force_replace(&mut self, label: u16, row: Arc<Mib>) -> bool {
        match self.rows.binary_search_by_key(&label, |r| r.label) {
            Ok(i) => {
                let slot = &mut self.rows[i];
                let changed = !row.same_attrs(&slot.mib);
                if changed {
                    self.content_gen += 1;
                }
                slot.stamp = row.stamp;
                slot.mib = row;
                self.generation += 1;
                self.rows[i].gen = self.generation;
                changed
            }
            Err(i) => {
                self.generation += 1;
                self.content_gen += 1;
                self.rows
                    .insert(i, Row { label, stamp: row.stamp, gen: self.generation, mib: row });
                true
            }
        }
    }

    /// Unconditionally removes the row for `label` (failure GC).
    /// Returns `true` when a row was removed.
    pub fn remove(&mut self, label: u16) -> bool {
        match self.rows.binary_search_by_key(&label, |r| r.label) {
            Ok(i) => {
                self.rows.remove(i);
                self.generation += 1;
                self.content_gen += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Advances the stamp of a held row in place, leaving its attributes
    /// untouched — the delta-gossip refresh path, equivalent to merging a
    /// full row whose content is known (by hash) to match what is held.
    /// Bumps [`Self::generation`] but not [`Self::content_generation`],
    /// exactly like a same-attrs [`ZoneTable::merge_row`]. Returns `false`
    /// when the label is absent or the stamp does not advance.
    pub fn restamp(&mut self, label: u16, stamp: Stamp) -> bool {
        match self.rows.binary_search_by_key(&label, |r| r.label) {
            Ok(i) if stamp > self.rows[i].stamp => {
                let slot = &mut self.rows[i];
                slot.stamp = stamp;
                slot.mib = Arc::new(slot.mib.restamped(stamp));
                self.generation += 1;
                self.rows[i].gen = self.generation;
                true
            }
            _ => false,
        }
    }

    /// Digest of every row (for anti-entropy exchange) — a contiguous copy
    /// of the inline `(label, stamp)` columns.
    pub fn digest(&self) -> Vec<RowDigest> {
        self.rows
            .iter()
            .map(|r| RowDigest { label: r.label, stamp: r.stamp, chash: r.mib.content_hash() })
            .collect()
    }

    /// Digest of only the rows that changed after table generation `since`
    /// (delta gossip). `digest_since(0)` equals [`ZoneTable::digest`].
    pub fn digest_since(&self, since: u64) -> Vec<RowDigest> {
        self.rows
            .iter()
            .filter(|r| r.gen > since)
            .map(|r| RowDigest { label: r.label, stamp: r.stamp, chash: r.mib.content_hash() })
            .collect()
    }

    /// Compares a peer digest against this replica.
    ///
    /// Returns `(newer_here, missing_here)`: labels where this replica has a
    /// strictly newer (or unknown-to-peer) row, and labels where the peer
    /// advertises a strictly newer (or absent-here) row.
    pub fn diff(&self, peer: &[RowDigest]) -> (Vec<u16>, Vec<u16>) {
        let mut newer_here = Vec::new();
        let mut missing_here = Vec::new();
        self.diff_into(peer, &mut newer_here, &mut missing_here);
        (newer_here, missing_here)
    }

    /// [`ZoneTable::diff`] writing into caller-provided buffers, so agents
    /// can reuse scratch vectors across the many digests of a gossip round.
    /// The buffers are cleared first.
    pub fn diff_into(
        &self,
        peer: &[RowDigest],
        newer_here: &mut Vec<u16>,
        missing_here: &mut Vec<u16>,
    ) {
        newer_here.clear();
        missing_here.clear();
        // Tables are bounded by the zone branching factor (tens of rows), so
        // the nested label scan below beats a sorted merge-walk in practice:
        // it is branch-predictable `u16` compares over one cache line.
        for d in peer {
            match self.rows.binary_search_by_key(&d.label, |r| r.label) {
                Ok(i) => {
                    let held = self.rows[i].stamp;
                    if held > d.stamp {
                        newer_here.push(d.label);
                    } else if d.stamp > held {
                        missing_here.push(d.label);
                    }
                }
                Err(_) => missing_here.push(d.label),
            }
        }
        for r in &self.rows {
            if !peer.iter().any(|d| d.label == r.label) {
                newer_here.push(r.label);
            }
        }
        newer_here.sort_unstable();
        newer_here.dedup();
    }

    /// Approximate serialized size of the whole table.
    pub fn wire_size(&self) -> usize {
        self.rows.iter().map(|r| 2 + r.mib.wire_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mib::MibBuilder;

    fn row(t: u64, origin: u32) -> Arc<Mib> {
        Arc::new(MibBuilder::new().attr("t", t as i64).build(Stamp {
            issued_us: t,
            version: 0,
            origin,
        }))
    }

    #[test]
    fn merge_keeps_newest() {
        let mut t = ZoneTable::new(ZoneId::root());
        assert!(t.merge_row(3, row(10, 0)));
        assert!(!t.merge_row(3, row(5, 0)), "older row must not replace");
        assert!(t.merge_row(3, row(20, 0)));
        assert_eq!(t.get(3).unwrap().stamp.issued_us, 20);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rows_stay_sorted() {
        let mut t = ZoneTable::new(ZoneId::root());
        for l in [5u16, 1, 9, 3] {
            t.merge_row(l, row(1, 0));
        }
        let labels: Vec<u16> = t.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec![1, 3, 5, 9]);
    }

    #[test]
    fn diff_classifies_rows() {
        let mut a = ZoneTable::new(ZoneId::root());
        let mut b = ZoneTable::new(ZoneId::root());
        a.merge_row(1, row(10, 0)); // same on both
        b.merge_row(1, row(10, 0));
        a.merge_row(2, row(20, 0)); // newer at a
        b.merge_row(2, row(15, 0));
        b.merge_row(3, row(30, 0)); // only at b
        a.merge_row(4, row(40, 0)); // only at a

        let (newer_at_a, missing_at_a) = a.diff(&b.digest());
        assert_eq!(newer_at_a, vec![2, 4]);
        assert_eq!(missing_at_a, vec![3]);
    }

    #[test]
    fn diff_symmetric_consistency() {
        let mut a = ZoneTable::new(ZoneId::root());
        let mut b = ZoneTable::new(ZoneId::root());
        a.merge_row(1, row(10, 0));
        b.merge_row(1, row(12, 0));
        let (na, ma) = a.diff(&b.digest());
        let (nb, mb) = b.diff(&a.digest());
        assert_eq!(na, mb);
        assert_eq!(ma, nb);
    }

    #[test]
    fn remove_row() {
        let mut t = ZoneTable::new(ZoneId::root());
        t.merge_row(1, row(1, 0));
        assert!(t.remove(1));
        assert!(!t.remove(1));
        assert!(t.is_empty());
    }

    #[test]
    fn force_replace_bypasses_stamp_fence() {
        let mut t = ZoneTable::new(ZoneId::root());
        t.merge_row(3, row(10, 0));
        let gen = t.generation();
        // Same stamp, different attrs: merge_row refuses, force_replace wins.
        let scrambled = Arc::new(MibBuilder::new().attr("t", -1i64).build(Stamp {
            issued_us: 10,
            version: 0,
            origin: 0,
        }));
        assert!(!t.merge_row(3, Arc::clone(&scrambled)));
        assert!(t.force_replace(3, scrambled));
        assert_eq!(t.get(3).unwrap().get("t").unwrap().as_i64(), Some(-1));
        assert!(t.generation() > gen, "forced replace must invalidate digest caches");
        // Identical attrs report no value change but still bump generation.
        let same = Arc::clone(t.get(3).unwrap());
        let content = t.content_generation();
        assert!(!t.force_replace(3, same));
        assert_eq!(t.content_generation(), content);
    }

    #[test]
    fn restamp_advances_stamp_not_content() {
        let mut t = ZoneTable::new(ZoneId::root());
        t.merge_row(3, row(10, 0));
        let (gen, content) = (t.generation(), t.content_generation());
        let newer = Stamp { issued_us: 20, version: 0, origin: 0 };
        assert!(t.restamp(3, newer));
        assert_eq!(t.get(3).unwrap().stamp, newer);
        assert!(t.generation() > gen, "digest caches must see the new stamp");
        assert_eq!(t.content_generation(), content, "values did not change");
        // Regressions and unknown labels are refused.
        assert!(!t.restamp(3, Stamp { issued_us: 5, version: 0, origin: 0 }));
        assert!(!t.restamp(9, newer));
    }

    #[test]
    fn digest_since_covers_only_changed_rows() {
        let mut t = ZoneTable::new(ZoneId::root());
        t.merge_row(1, row(10, 0));
        t.merge_row(2, row(10, 0));
        let mark = t.generation();
        t.merge_row(2, row(20, 0));
        let partial = t.digest_since(mark);
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].label, 2);
        assert_eq!(t.digest_since(0), t.digest());
        assert!(t.digest_since(t.generation()).is_empty());
        // Digest entries carry the stamp-independent content hash.
        assert_eq!(t.digest()[0].chash, t.get(1).unwrap().content_hash());
    }

    #[test]
    fn concurrent_writers_tie_break_deterministically() {
        // Two reps may issue the same aggregate concurrently; merge order
        // must not matter.
        let r1 = row(10, 1);
        let r2 = row(10, 2);
        let mut a = ZoneTable::new(ZoneId::root());
        a.merge_row(0, r1.clone());
        a.merge_row(0, r2.clone());
        let mut b = ZoneTable::new(ZoneId::root());
        b.merge_row(0, r2);
        b.merge_row(0, r1);
        assert_eq!(a.get(0).unwrap().stamp, b.get(0).unwrap().stamp);
        assert_eq!(a.get(0).unwrap().stamp.origin, 2);
    }
}
