//! MIB rows — the "management information base" record each zone
//! contributes to its parent table.
//!
//! Paper §3: "At the leaf table, a row is assigned to a particular process
//! or user, which is allowed to update this row with attributes & values…
//! each leaf table contributing a read-only summary row to its parent
//! table."
//!
//! Rows are immutable once issued; replicas hold them behind `Arc` so a
//! 100 000-node simulation shares one copy of each row version system-wide.

use std::fmt;
use std::sync::Arc;

use crate::value::AttrValue;

/// Attribute name. `Arc<str>` so the (few, short) names are shared across
/// the many rows that carry them.
pub type AttrName = Arc<str>;

/// Version stamp of a row: origin issue time plus a per-origin counter.
///
/// Newer stamps win during gossip merges; comparison is lexicographic on
/// `(issued_us, version, origin)`, with `origin` only as a deterministic
/// tie-breaker between concurrent writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Stamp {
    /// Issue time at the origin, in simulated microseconds.
    pub issued_us: u64,
    /// Per-origin monotone counter.
    pub version: u64,
    /// Id of the agent that issued the row.
    pub origin: u32,
}

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}v{}by{}", self.issued_us, self.version, self.origin)
    }
}

/// Attribute-name prefix under which dynamic aggregation programs (mobile
/// code) travel through the hierarchy.
pub const AGG_ATTR_PREFIX: &str = "sys$agg:";

/// One immutable set of row values, shared (`Arc<Mib>`) by every replica
/// that holds them.
///
/// `stamp` is the stamp the values were first issued under. A replica
/// holds a row under its own, possibly newer, stamp
/// ([`Row::stamp`](crate::Row::stamp)): a heartbeat of unchanged values
/// writes a stamp, never a new `Mib`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mib {
    /// The stamp these values were first issued under.
    pub stamp: Stamp,
    /// Attributes, sorted by name.
    attrs: Arc<[(AttrName, AttrValue)]>,
    /// Precomputed [`Mib::wire_size`]; rows are immutable, and traffic
    /// accounting reads the size of every row of every gossip batch.
    wire: u32,
    /// Whether any attribute name starts with [`AGG_ATTR_PREFIX`] —
    /// precomputed so the merge path can test mobile-code carriage without a
    /// per-row string search.
    carries_agg: bool,
    /// Stamp-independent FNV hash of the sorted attribute list, precomputed
    /// at construction. Gossip advertises it in every digest entry so peers
    /// can recognize a heartbeat re-stamp of content they already hold.
    chash: u64,
}

impl Mib {
    /// Builds a row from attribute pairs (sorted internally; later
    /// duplicates win).
    ///
    /// Input that is already sorted and duplicate-free — what
    /// [`MibBuilder::build`] and the agent's own-row refresh produce every
    /// gossip round — is taken as-is without the O(n log n) pass.
    pub fn new(stamp: Stamp, mut attrs: Vec<(AttrName, AttrValue)>) -> Self {
        if attrs.windows(2).any(|w| w[0].0 >= w[1].0) {
            attrs.sort_by(|a, b| a.0.cmp(&b.0));
            attrs.dedup_by(|later, earlier| {
                if later.0 == earlier.0 {
                    // `dedup_by` removes `later` when true; keep the later
                    // value by moving it into the kept slot first.
                    std::mem::swap(&mut earlier.1, &mut later.1);
                    true
                } else {
                    false
                }
            });
        }
        let wire = 24 + attrs.iter().map(|(n, v)| n.len() + 1 + v.wire_size()).sum::<usize>();
        let at = attrs.partition_point(|(n, _)| n.as_ref() < AGG_ATTR_PREFIX);
        let carries_agg = attrs.get(at).is_some_and(|(n, _)| n.starts_with(AGG_ATTR_PREFIX));
        let chash = content_hash(&attrs);
        Mib { stamp, attrs: attrs.into(), wire: wire as u32, carries_agg, chash }
    }

    /// Stamp-independent hash of the attribute list (precomputed). Two rows
    /// with equal hashes are treated by gossip as carrying the same values,
    /// so a peer can adopt a newer stamp without pulling the row.
    pub fn content_hash(&self) -> u64 {
        self.chash
    }

    /// Attribute lookup.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.binary_search_by(|(n, _)| n.as_ref().cmp(name)).ok().map(|i| &self.attrs[i].1)
    }

    /// All attributes, sorted by name.
    pub fn attrs(&self) -> &[(AttrName, AttrValue)] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the row carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Approximate serialized size in bytes (precomputed at construction).
    pub fn wire_size(&self) -> usize {
        self.wire as usize
    }

    /// True when `self` should replace `other` in a merge.
    pub fn newer_than(&self, other: &Mib) -> bool {
        self.stamp > other.stamp
    }

    /// True when the row carries a `sys$agg:` mobile-code attribute
    /// (precomputed at construction — the merge path tests every admitted
    /// row).
    pub fn carries_mobile_code(&self) -> bool {
        self.carries_agg
    }

    /// True when `other` carries exactly the same attributes (stamps may
    /// differ). Drives [`ZoneTable`](crate::ZoneTable) content generations:
    /// values that arrive again under a newer stamp must not invalidate
    /// value-derived caches. A shared attribute list is recognized by
    /// pointer identity, and the precomputed wire size filters the rest
    /// before any value is compared.
    pub fn same_attrs(&self, other: &Mib) -> bool {
        Arc::ptr_eq(&self.attrs, &other.attrs)
            || (self.wire == other.wire && self.attrs == other.attrs)
    }
}

/// FNV-1a over the sorted attribute list: names, type tags and canonical
/// value bytes. Deterministic across processes (no pointer or layout
/// input), allocation-free, and independent of the stamp by construction.
fn content_hash(attrs: &[(AttrName, AttrValue)]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let feed = |bytes: &[u8], h: &mut u64| {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for (name, value) in attrs {
        feed(name.as_bytes(), &mut h);
        feed(&[0xFF], &mut h); // name/value separator
        match value {
            AttrValue::Int(i) => feed(&i.to_le_bytes(), &mut h),
            AttrValue::Float(f) => feed(&f.to_bits().to_le_bytes(), &mut h),
            AttrValue::Str(s) => feed(s.as_bytes(), &mut h),
            AttrValue::Bool(b) => feed(&[u8::from(*b)], &mut h),
            AttrValue::Set(s) => {
                for v in s {
                    feed(&v.to_le_bytes(), &mut h);
                }
            }
            AttrValue::Bits(b) => {
                feed(&(b.len() as u64).to_le_bytes(), &mut h);
                for i in b.ones() {
                    feed(&(i as u64).to_le_bytes(), &mut h);
                }
            }
            AttrValue::Bytes(v) => feed(v, &mut h),
        }
        // Type tag keeps e.g. Int(0) and Bool(false) encodings distinct.
        feed(value.type_name().as_bytes(), &mut h);
        feed(&[0xFE], &mut h); // attribute separator
    }
    h
}

/// Incremental builder for rows, reusing interned attribute names.
///
/// Attributes are kept sorted by name as they are set, so [`MibBuilder::build`]
/// hands [`Mib::new`] a pre-sorted, duplicate-free vector and the sort+dedup
/// pass is skipped on the hot path.
///
/// ```
/// use astrolabe::{MibBuilder, Stamp, AttrValue};
/// let row = MibBuilder::new()
///     .attr("load", 0.25)
///     .attr("id", 7i64)
///     .build(Stamp { issued_us: 10, version: 1, origin: 7 });
/// assert_eq!(row.get("id"), Some(&AttrValue::Int(7)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MibBuilder {
    attrs: Vec<(AttrName, AttrValue)>,
}

impl MibBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        MibBuilder::default()
    }

    /// Adds an attribute (replaces an earlier one with the same name).
    #[must_use]
    pub fn attr(
        mut self,
        name: impl AsRef<str> + Into<AttrName>,
        value: impl Into<AttrValue>,
    ) -> Self {
        self.set(name, value);
        self
    }

    /// Non-consuming variant of [`MibBuilder::attr`]. A name the builder
    /// already holds keeps its interned `Arc<str>`; only a new one allocates.
    pub fn set(&mut self, name: impl AsRef<str> + Into<AttrName>, value: impl Into<AttrValue>) {
        match self.attrs.binary_search_by(|(n, _)| n.as_ref().cmp(name.as_ref())) {
            Ok(i) => self.attrs[i].1 = value.into(),
            Err(i) => self.attrs.insert(i, (name.into(), value.into())),
        }
    }

    /// Value previously set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.binary_search_by(|(n, _)| n.as_ref().cmp(name)).ok().map(|i| &self.attrs[i].1)
    }

    /// Removes every attribute whose name starts with `prefix`, returning
    /// how many were dropped. Used by hosts on cold restart to retract
    /// volatile advertisements (e.g. anti-entropy digests) that no longer
    /// describe any state the process holds.
    pub fn remove_prefix(&mut self, prefix: &str) -> usize {
        let before = self.attrs.len();
        self.attrs.retain(|(n, _)| !n.as_ref().starts_with(prefix));
        before - self.attrs.len()
    }

    /// Finishes the row with the given stamp.
    pub fn build(self, stamp: Stamp) -> Mib {
        Mib::new(stamp, self.attrs)
    }

    /// The accumulated attributes, sorted and duplicate-free — for callers
    /// that cache the attribute list and stamp it repeatedly (see the
    /// agent's aggregation cache).
    pub fn into_attrs(self) -> Vec<(AttrName, AttrValue)> {
        self.attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(t: u64, v: u64, o: u32) -> Stamp {
        Stamp { issued_us: t, version: v, origin: o }
    }

    #[test]
    fn stamp_ordering() {
        assert!(stamp(2, 0, 0) > stamp(1, 9, 9));
        assert!(stamp(1, 2, 0) > stamp(1, 1, 9));
        assert!(stamp(1, 1, 1) > stamp(1, 1, 0));
        assert_eq!(stamp(1, 1, 1), stamp(1, 1, 1));
    }

    #[test]
    fn row_sorted_lookup() {
        let row = Mib::new(
            stamp(0, 0, 0),
            vec![(Arc::from("zeta"), AttrValue::Int(1)), (Arc::from("alpha"), AttrValue::Int(2))],
        );
        assert_eq!(row.get("alpha"), Some(&AttrValue::Int(2)));
        assert_eq!(row.get("zeta"), Some(&AttrValue::Int(1)));
        assert_eq!(row.get("mid"), None);
        assert_eq!(row.attrs()[0].0.as_ref(), "alpha");
    }

    #[test]
    fn duplicate_names_later_wins() {
        let row = Mib::new(
            stamp(0, 0, 0),
            vec![(Arc::from("x"), AttrValue::Int(1)), (Arc::from("x"), AttrValue::Int(2))],
        );
        assert_eq!(row.len(), 1);
        assert_eq!(row.get("x"), Some(&AttrValue::Int(2)));
    }

    #[test]
    fn builder_replaces() {
        let row =
            MibBuilder::new().attr("a", 1i64).attr("a", 2i64).attr("b", "s").build(stamp(5, 1, 3));
        assert_eq!(row.get("a"), Some(&AttrValue::Int(2)));
        assert_eq!(row.len(), 2);
        assert_eq!(row.stamp, stamp(5, 1, 3));
    }

    #[test]
    fn newer_than_follows_stamp() {
        let a = MibBuilder::new().build(stamp(1, 0, 0));
        let b = MibBuilder::new().build(stamp(2, 0, 0));
        assert!(b.newer_than(&a));
        assert!(!a.newer_than(&b));
        assert!(!a.newer_than(&a));
    }

    #[test]
    fn content_hash_ignores_stamp_tracks_values() {
        let a = MibBuilder::new().attr("load", 0.5).attr("id", 7i64).build(stamp(1, 0, 0));
        let b = MibBuilder::new().attr("id", 7i64).attr("load", 0.5).build(stamp(9, 4, 2));
        assert_eq!(a.content_hash(), b.content_hash(), "order/stamp independent");
        let c = MibBuilder::new().attr("load", 0.75).attr("id", 7i64).build(stamp(1, 0, 0));
        assert_ne!(a.content_hash(), c.content_hash());
        // Same encoded bytes under different types must not collide.
        let i = MibBuilder::new().attr("x", 0i64).build(stamp(0, 0, 0));
        let f = MibBuilder::new().attr("x", 0.0).build(stamp(0, 0, 0));
        assert_ne!(i.content_hash(), f.content_hash());
    }

    #[test]
    fn wire_size_grows_with_attrs() {
        let small = MibBuilder::new().build(stamp(0, 0, 0));
        let big =
            MibBuilder::new().attr("subs", AttrValue::Bytes(vec![0; 128])).build(stamp(0, 0, 0));
        assert!(big.wire_size() > small.wire_size() + 128);
    }
}
