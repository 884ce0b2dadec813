//! Zone tables: the replicated `child-label → row` maps.
//!
//! Every agent replicates the table of each zone on its root path. Tables
//! merge by newest-stamp-wins per row; rows are shared via `Arc` across the
//! replicas of one simulation process, and a replica that takes a newer
//! stamp for values it already holds writes only its inline stamp.

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

/// One row version as gossip names it without its values: a digest entry,
/// and also the 30-byte stamp-refresh record a digest reply carries in
/// place of a row whose values the peer already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowDigest {
    /// Child label of the row.
    pub label: u16,
    /// The advertised version stamp.
    pub stamp: Stamp,
    /// Content hash of the row's attributes (stamp-independent), on the
    /// wire in every digest entry and refresh record: a receiver holding
    /// the same values under an older stamp takes the stamp from the entry
    /// itself instead of pulling the row.
    pub chash: u64,
}

impl RowDigest {
    /// Serialized size: label (2) + stamp (8 + 8 + 4) + content hash (8).
    pub const WIRE_SIZE: usize = 30;
}

/// How a replica compares with a peer's digest of the same table — the one
/// classification the gossip digest handler acts on (see
/// [`ZoneTable::diff_into`]).
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Held rows the peer lacks or holds other values of under an older
    /// stamp: they travel whole. In label order, each once.
    pub ship: Vec<u16>,
    /// Held rows the peer holds the same values of under an older stamp:
    /// a refresh record (this replica's stamp and the hash) is enough.
    pub refresh: Vec<RowDigest>,
    /// Positions in the peer digest of entries whose values this replica
    /// holds under an older stamp: it takes the peer's stamp and nothing
    /// travels. (Positions, not copies of the entries: an agent keeps one
    /// `Diff` between rounds, and this list is as long as a table.)
    pub adopt: Vec<u32>,
    /// Labels absent here, or whose newer peer version has other values:
    /// the row must be pulled.
    pub want: Vec<u16>,
    /// Scratch, one byte per held row: whether the digest lists it
    /// ([`LISTED`]) and whether it ships ([`SHIPS`]). Not part of the
    /// comparison.
    marks: Vec<u8>,
}

/// [`Diff::marks`] bit: the peer digest lists the row.
const LISTED: u8 = 1;
/// [`Diff::marks`] bit: the peer holds other values under an older stamp.
const SHIPS: u8 = 2;

impl Diff {
    /// Heap bytes of the lists, from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ship.capacity() * size_of::<u16>()
            + self.refresh.capacity() * size_of::<RowDigest>()
            + self.adopt.capacity() * size_of::<u32>()
            + self.want.capacity() * size_of::<u16>()
            + self.marks.capacity()
    }
}

impl PartialEq for Diff {
    fn eq(&self, other: &Self) -> bool {
        (&self.ship, &self.refresh, &self.adopt, &self.want)
            == (&other.ship, &other.refresh, &other.adopt, &other.want)
    }
}

impl Eq for Diff {}

/// One table slot, laid out for the scan-heavy paths: the label and the
/// row's stamp sit inline, so digesting, diffing, GC sweeps and eviction
/// walk a contiguous array without chasing the `Arc` — the shared attribute
/// payload is only dereferenced when values are actually read. 40 bytes.
#[derive(Debug, Clone)]
pub struct Row {
    /// Child label of the row.
    pub label: u16,
    /// `mib`'s wire size in the low 31 bits and its mobile-code bit on top,
    /// in what would otherwise be padding: a stamp take and a merge read
    /// both without touching the shared values.
    meta: u32,
    /// The stamp this replica holds the row under — authoritative, and the
    /// one the row travels under. `mib.stamp` is only the stamp its values
    /// were first issued under: a replica that takes a newer stamp for
    /// values it already holds (a heartbeat, an adopted digest entry, a
    /// refresh record) writes this field and keeps sharing the values.
    pub stamp: Stamp,
    /// The shared row version.
    pub mib: Arc<Mib>,
}

/// [`Row::meta`]'s mobile-code bit; the bits below it hold the wire size.
const CARRIES_AGG: u32 = 1 << 31;

impl Row {
    fn new(label: u16, stamp: Stamp, mib: Arc<Mib>) -> Self {
        Row { label, meta: Row::meta_of(&mib), stamp, mib }
    }

    fn meta_of(mib: &Mib) -> u32 {
        // A row of 2 GiB does not exist; the clamp keeps the flag bit clear.
        let wire = u32::try_from(mib.wire_size()).unwrap_or(u32::MAX).min(CARRIES_AGG - 1);
        if mib.carries_mobile_code() {
            wire | CARRIES_AGG
        } else {
            wire
        }
    }

    fn set_values(&mut self, mib: Arc<Mib>) {
        self.meta = Row::meta_of(&mib);
        self.mib = mib;
    }

    /// [`Mib::wire_size`] of the held values, read from the slot.
    pub fn wire_size(&self) -> usize {
        (self.meta & !CARRIES_AGG) as usize
    }

    /// [`Mib::carries_mobile_code`] of the held values, read from the slot.
    pub fn carries_mobile_code(&self) -> bool {
        self.meta & CARRIES_AGG != 0
    }
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

    /// Rows the table has room for without growing.
    pub(crate) fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Makes room for `rows` rows in all, and no more: a replica that knows
    /// its zone's child count states it once, instead of growing by
    /// doubling past it.
    pub(crate) fn size_for(&mut self, rows: usize) {
        self.rows.reserve_exact(rows.saturating_sub(self.rows.len()));
    }

    /// Drops every row, keeping the slots, and restarts both generations
    /// at zero: the table reads as [`ZoneTable::new`]'s.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        (self.generation, self.content_gen) = (0, 0);
    }

    /// The values held for child `label`. Their own `stamp` may be older
    /// than the one the row is held under — read that from
    /// [`ZoneTable::row`].
    pub fn get(&self, label: u16) -> Option<&Arc<Mib>> {
        self.row(label).map(|r| &r.mib)
    }

    /// The slot for child `label`: its authoritative stamp and its values.
    pub fn row(&self, label: u16) -> Option<&Row> {
        self.rows.binary_search_by_key(&label, |r| r.label).ok().map(|i| &self.rows[i])
    }

    /// Position in [`ZoneTable::rows`] of `label`'s row, searched from
    /// `*cursor`, which is left where the search ended. Labels met in
    /// ascending order cost one step per row passed over all told; a label
    /// behind the cursor is binary-searched, so input in any order (gossip
    /// is untrusted: unsorted, repeated, out of range) finds the same rows.
    pub(crate) fn seek(&self, label: u16, cursor: &mut usize) -> Option<usize> {
        let mut i = (*cursor).min(self.rows.len());
        if i > 0 && self.rows[i - 1].label >= label {
            i = self.rows[..i].partition_point(|r| r.label < label);
        } else {
            i += self.rows[i..].iter().take_while(|r| r.label < label).count();
        }
        *cursor = i;
        (self.rows.get(i)?.label == label).then_some(i)
    }

    /// Iterates `(label, values)` in label order (stamps: [`ZoneTable::rows`]).
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
        self.merge_stamped(label, row.stamp, row)
    }

    /// Newest-wins merge of `values` held under `stamp`, which may be newer
    /// than `values.stamp`: offering the held row itself under a newer stamp
    /// is how a replica takes a stamp for values it already has, writing
    /// the inline stamp and allocating nothing.
    pub fn merge_stamped(&mut self, label: u16, stamp: Stamp, values: Arc<Mib>) -> MergeOutcome {
        match self.rows.binary_search_by_key(&label, |r| r.label) {
            Ok(i) => {
                let outcome = self.take_stamp(i, stamp);
                let slot = &mut self.rows[i];
                if outcome != MergeOutcome::Rejected && !Arc::ptr_eq(&values, &slot.mib) {
                    if !values.same_attrs(&slot.mib) {
                        self.content_gen += 1;
                    }
                    slot.set_values(values);
                }
                outcome
            }
            Err(i) => {
                self.generation += 1;
                self.content_gen += 1;
                self.rows.insert(i, Row::new(label, stamp, values));
                MergeOutcome::Inserted
            }
        }
    }

    /// [`ZoneTable::merge_stamped`] of the values the row at position `at`
    /// already holds (found by [`ZoneTable::seek`]): newest-wins on the
    /// inline stamp alone, with no search and no `Arc` to clone.
    ///
    /// # Panics
    ///
    /// Panics if `at >= len()`.
    pub(crate) fn take_stamp(&mut self, at: usize, stamp: Stamp) -> MergeOutcome {
        let slot = &mut self.rows[at];
        if stamp <= slot.stamp {
            return MergeOutcome::Rejected;
        }
        let outcome = MergeOutcome::Replaced {
            advanced_time: stamp.issued_us > slot.stamp.issued_us,
            old_carried_agg: slot.carries_mobile_code(),
        };
        slot.stamp = stamp;
        self.generation += 1;
        outcome
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
                slot.set_values(row);
                self.generation += 1;
                changed
            }
            Err(i) => {
                self.generation += 1;
                self.content_gen += 1;
                self.rows.insert(i, Row::new(label, row.stamp, row));
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

    /// Digest of every row (for anti-entropy exchange) — a contiguous copy
    /// of the inline `(label, stamp)` columns and each row's content hash,
    /// in one allocation the fan-outs of a gossip round share.
    pub fn digest(&self) -> Arc<[RowDigest]> {
        self.rows
            .iter()
            .map(|r| RowDigest { label: r.label, stamp: r.stamp, chash: r.mib.content_hash() })
            .collect()
    }

    /// Compares a peer digest against this replica (see [`Diff`]).
    pub fn diff(&self, peer: &[RowDigest]) -> Diff {
        let mut out = Diff::default();
        self.diff_into(peer, &mut out);
        out
    }

    /// [`ZoneTable::diff`] writing into a caller-provided [`Diff`], so an
    /// agent reuses one scratch value across the many digests of a gossip
    /// round. A digest lists every row its sender holds, so a held row it
    /// does not list is one the sender lacks. Equal stamps compare equal:
    /// two honest replicas never hold one stamp with two contents.
    ///
    /// One pass: each entry finds its row from a forward cursor and marks
    /// it, then one walk of the marks lists what ships.
    pub fn diff_into(&self, peer: &[RowDigest], out: &mut Diff) {
        out.ship.clear();
        out.refresh.clear();
        out.adopt.clear();
        out.want.clear();
        out.marks.clear();
        out.marks.resize(self.rows.len(), 0);
        let mut cursor = 0;
        // A digest longer than `u32` positions is no honest table's; the
        // tail is ignored.
        for (at, d) in (0..u32::MAX).zip(peer) {
            let Some(i) = self.seek(d.label, &mut cursor) else {
                out.want.push(d.label);
                continue;
            };
            out.marks[i] |= LISTED;
            let held = &self.rows[i];
            if held.stamp > d.stamp {
                if held.mib.content_hash() == d.chash {
                    out.refresh.push(RowDigest { stamp: held.stamp, ..*d });
                } else {
                    out.marks[i] |= SHIPS;
                }
            } else if d.stamp > held.stamp {
                if held.mib.content_hash() == d.chash {
                    out.adopt.push(at);
                } else {
                    out.want.push(d.label);
                }
            }
        }
        let ships = |(r, &m): (&Row, &u8)| (m != LISTED).then_some(r.label);
        out.ship.extend(self.rows.iter().zip(&out.marks).filter_map(ships));
    }

    /// Approximate serialized size of the whole table.
    pub fn wire_size(&self) -> usize {
        self.rows.iter().map(|r| 2 + r.mib.wire_size()).sum()
    }
}

/// [`ZoneTable::diff_into`] as it was before the one-pass walk — a binary
/// search per digest entry, then a scan of the whole digest per held row —
/// kept as the model the walk must agree with.
#[cfg(test)]
pub(crate) fn diff_model(table: &ZoneTable, peer: &[RowDigest]) -> Diff {
    let mut out = Diff::default();
    for (at, d) in (0..u32::MAX).zip(peer) {
        let Ok(i) = table.rows.binary_search_by_key(&d.label, |r| r.label) else {
            out.want.push(d.label);
            continue;
        };
        let held = &table.rows[i];
        let same = held.mib.content_hash() == d.chash;
        if held.stamp > d.stamp {
            if same {
                out.refresh.push(RowDigest { stamp: held.stamp, ..*d });
            } else {
                out.ship.push(d.label);
            }
        } else if d.stamp > held.stamp {
            if same {
                out.adopt.push(at);
            } else {
                out.want.push(d.label);
            }
        }
    }
    for r in &table.rows {
        if !peer.iter().any(|d| d.label == r.label) {
            out.ship.push(r.label);
        }
    }
    out.ship.sort_unstable();
    out.ship.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mib::MibBuilder;

    #[test]
    fn a_slot_carries_its_values_size_and_mobile_code_bit_in_40_bytes() {
        assert_eq!(std::mem::size_of::<Row>(), 40);
        let mut t = ZoneTable::new(ZoneId::root());
        let plain = row(10, 0);
        let agg =
            Arc::new(MibBuilder::new().attr("sys$agg:x", "SELECT COUNT() AS n").build(Stamp {
                issued_us: 20,
                version: 0,
                origin: 0,
            }));
        t.merge_row(1, Arc::clone(&plain));
        let slot = t.row(1).unwrap();
        assert_eq!((slot.wire_size(), slot.carries_mobile_code()), (plain.wire_size(), false));
        t.merge_row(1, Arc::clone(&agg));
        let slot = t.row(1).unwrap();
        assert_eq!((slot.wire_size(), slot.carries_mobile_code()), (agg.wire_size(), true));
    }

    #[test]
    fn seek_finds_labels_in_any_order() {
        let mut t = ZoneTable::new(ZoneId::root());
        for l in [2u16, 4, 6, 8] {
            t.merge_row(l, row(1, 0));
        }
        let mut cursor = 0;
        let found: Vec<Option<usize>> =
            [4u16, 4, 5, 8, 9, 2, 6, 0, 8].iter().map(|&l| t.seek(l, &mut cursor)).collect();
        let expect = [Some(1), Some(1), None, Some(3), None, Some(0), Some(2), None, Some(3)];
        assert_eq!(found, expect);
    }

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

    /// A row of fixed values `x` under the stamp `(t, 0, origin)`.
    fn valued(x: i64, t: u64, origin: u32) -> Arc<Mib> {
        Arc::new(MibBuilder::new().attr("x", x).build(Stamp { issued_us: t, version: 0, origin }))
    }

    #[test]
    fn diff_classifies_rows() {
        let mut a = ZoneTable::new(ZoneId::root());
        let mut b = ZoneTable::new(ZoneId::root());
        a.merge_row(1, row(10, 0)); // same on both
        b.merge_row(1, row(10, 0));
        a.merge_row(2, row(20, 0)); // newer values at a
        b.merge_row(2, row(15, 0));
        b.merge_row(3, row(30, 0)); // only at b
        a.merge_row(4, row(40, 0)); // only at a
        a.merge_row(5, valued(7, 50, 0)); // same values, newer stamp at a
        b.merge_row(5, valued(7, 45, 0));
        a.merge_row(6, valued(7, 55, 0)); // same values, newer stamp at b
        b.merge_row(6, valued(7, 60, 0));

        let d = a.diff(&b.digest());
        assert_eq!(d.ship, vec![2, 4]);
        assert_eq!(d.want, vec![3]);
        assert_eq!(d.refresh, vec![a.digest()[3]], "row 5 refreshes under a's stamp");
        assert_eq!(d.adopt, vec![4], "row 6 adopts b's stamp, the digest's fifth entry");
        // Digest entries carry the stamp-independent content hash.
        assert_eq!(a.digest()[0].chash, a.get(1).unwrap().content_hash());
    }

    #[test]
    fn diff_symmetric_consistency() {
        let mut a = ZoneTable::new(ZoneId::root());
        let mut b = ZoneTable::new(ZoneId::root());
        a.merge_row(1, row(10, 0));
        b.merge_row(1, row(12, 0));
        a.merge_row(2, valued(1, 10, 0));
        b.merge_row(2, valued(1, 12, 0));
        let (ad, bd) = (a.digest(), b.digest());
        let (da, db) = (a.diff(&bd), b.diff(&ad));
        assert_eq!((da.ship, da.want), (db.want.clone(), db.ship.clone()));
        let entries = |at: &[u32], of: &[RowDigest]| -> Vec<RowDigest> {
            at.iter().map(|&i| of[i as usize]).collect()
        };
        assert_eq!(entries(&da.adopt, &bd), db.refresh);
        assert_eq!(da.refresh, entries(&db.adopt, &ad));
    }

    #[test]
    fn a_newer_stamp_for_held_values_writes_only_the_inline_stamp() {
        let mut t = ZoneTable::new(ZoneId::root());
        t.merge_row(3, row(10, 0));
        let held = Arc::clone(t.get(3).unwrap());
        let (gen, content) = (t.generation(), t.content_generation());
        let newer = Stamp { issued_us: 20, version: 0, origin: 0 };
        assert!(matches!(
            t.merge_stamped(3, newer, Arc::clone(&held)),
            MergeOutcome::Replaced { advanced_time: true, .. }
        ));
        assert_eq!(t.row(3).unwrap().stamp, newer);
        assert!(Arc::ptr_eq(t.get(3).unwrap(), &held), "no row was allocated");
        assert!(t.generation() > gen, "digest caches must see the new stamp");
        assert_eq!(t.content_generation(), content, "values did not change");
        assert_eq!(t.digest()[0].stamp, newer);
        // Regressions are refused.
        let older = Stamp { issued_us: 5, version: 0, origin: 0 };
        assert_eq!(t.merge_stamped(3, older, held), MergeOutcome::Rejected);
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
