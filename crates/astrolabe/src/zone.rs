//! Zone identifiers and the zone-tree layout.
//!
//! Paper §3: Astrolabe is "a collection of hierarchical database tables…
//! Each of these tables is limited to some small size (say, 64 rows); thus
//! the hierarchy may be several levels deep. We use the term zone to denote
//! one of these tables."
//!
//! A [`ZoneId`] is the path of child labels from the root. [`ZoneLayout`]
//! computes the balanced tree a deployment of `n` leaf agents occupies at a
//! given branching factor, and maps agents to leaf zones and back.

use std::fmt;
use std::sync::Arc;

/// Maximum children per zone the paper suggests (and we default to).
pub const DEFAULT_BRANCHING: u16 = 64;

/// Path-style identifier of a zone. The root is the empty path.
///
/// ```
/// use astrolabe::ZoneId;
/// let z = ZoneId::root().child(3).child(7);
/// assert_eq!(z.to_string(), "/3/7");
/// assert_eq!(z.parent(), Some(ZoneId::root().child(3)));
/// assert!(ZoneId::root().is_ancestor_of(&z));
/// ```
/// The path is frozen behind `Arc` once built: zone ids travel in every
/// gossip digest and table-rows batch, so cloning one is a refcount bump
/// rather than a heap copy. Derived comparisons and hashing see through the
/// `Arc` to the label path, so semantics are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId {
    path: Arc<[u16]>,
}

impl Default for ZoneId {
    fn default() -> Self {
        ZoneId::root()
    }
}

impl ZoneId {
    /// The root zone.
    pub fn root() -> Self {
        ZoneId { path: Arc::from([]) }
    }

    /// Heap bytes the label path holds, when no other id shares it.
    pub(crate) fn heap_bytes_alone(&self) -> usize {
        if Arc::strong_count(&self.path) > 1 {
            return 0;
        }
        simnet::heap::arc_bytes(std::mem::size_of_val(&*self.path))
    }

    /// Builds a zone from a label path (root = empty).
    pub fn from_path(path: Vec<u16>) -> Self {
        ZoneId { path: path.into() }
    }

    /// The child of this zone with the given label.
    #[must_use]
    pub fn child(&self, label: u16) -> ZoneId {
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.extend_from_slice(&self.path);
        path.push(label);
        ZoneId { path: path.into() }
    }

    /// The parent, or `None` for the root.
    pub fn parent(&self) -> Option<ZoneId> {
        if self.path.is_empty() {
            None
        } else {
            Some(ZoneId { path: self.path[..self.path.len() - 1].into() })
        }
    }

    /// Depth below the root (root = 0).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// True for the root zone.
    pub fn is_root(&self) -> bool {
        self.path.is_empty()
    }

    /// The label path from the root.
    pub fn path(&self) -> &[u16] {
        &self.path
    }

    /// The last label (this zone's name within its parent).
    pub fn label(&self) -> Option<u16> {
        self.path.last().copied()
    }

    /// True when `self` is `other` or an ancestor of it.
    pub fn is_ancestor_of(&self, other: &ZoneId) -> bool {
        other.path.len() >= self.path.len() && other.path[..self.path.len()] == self.path[..]
    }

    /// The ancestor of this zone at `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds this zone's depth.
    pub fn ancestor_at(&self, depth: usize) -> ZoneId {
        assert!(depth <= self.depth(), "no ancestor at depth {depth}");
        ZoneId { path: self.path[..depth].into() }
    }

    /// Parses the [`Display`](fmt::Display) form back into a zone:
    /// `"/"` is the root, `"/3/7"` is label path `[3, 7]`. Returns `None`
    /// for anything that does not round-trip (missing leading slash, empty
    /// or non-numeric labels).
    pub fn parse(s: &str) -> Option<ZoneId> {
        if s == "/" {
            return Some(ZoneId::root());
        }
        let rest = s.strip_prefix('/')?;
        let path =
            rest.split('/').map(|label| label.parse::<u16>().ok()).collect::<Option<Vec<u16>>>()?;
        Some(ZoneId { path: path.into() })
    }
}

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            return f.write_str("/");
        }
        for p in self.path.iter() {
            write!(f, "/{p}")?;
        }
        Ok(())
    }
}

/// The balanced layout of `n` agents in a tree of branching factor `b`.
///
/// Agents are numbered `0..n` and packed left-to-right: agent `i` lives in
/// the leaf zone whose path is the base-`b` digits of `i / b`, and occupies
/// member slot `i % b` within it.
///
/// ```
/// use astrolabe::ZoneLayout;
/// let l = ZoneLayout::new(200, 8);
/// assert_eq!(l.levels(), 2); // 8^2 = 64 < 200 <= 8^3... see docs
/// let z = l.leaf_zone(77);
/// assert!(l.members_of(&z).any(|m| m == 77));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneLayout {
    n: u32,
    branching: u16,
    levels: usize,
}

impl ZoneLayout {
    /// Computes the layout for `n` agents with the given branching factor.
    ///
    /// `levels` is the depth of leaf *zones* (the smallest `d` with
    /// `b^(d+1) >= n`, so each leaf zone holds up to `b` agents).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `branching < 2`.
    pub fn new(n: u32, branching: u16) -> Self {
        assert!(n > 0, "layout needs at least one agent");
        assert!(branching >= 2, "branching factor must be at least 2");
        let b = u64::from(branching);
        let mut levels = 0usize;
        let mut capacity = b; // capacity of a depth-`levels` leaf layout
        while capacity < u64::from(n) {
            capacity *= b;
            levels += 1;
        }
        ZoneLayout { n, branching, levels }
    }

    /// Number of agents.
    pub fn agents(&self) -> u32 {
        self.n
    }

    /// Branching factor.
    pub fn branching(&self) -> u16 {
        self.branching
    }

    /// Depth of leaf zones (0 when everyone fits in the root's one zone
    /// level).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The leaf zone agent `agent` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn leaf_zone(&self, agent: u32) -> ZoneId {
        assert!(agent < self.n, "agent {agent} out of range");
        let b = u32::from(self.branching);
        let mut group = agent / b; // index of the leaf zone
        let mut digits = vec![0u16; self.levels];
        for d in (0..self.levels).rev() {
            digits[d] = (group % b) as u16;
            group /= b;
        }
        ZoneId::from_path(digits)
    }

    /// The member slot (row label) of `agent` within its leaf zone.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn member_slot(&self, agent: u32) -> u16 {
        assert!(agent < self.n, "agent {agent} out of range");
        (agent % u32::from(self.branching)) as u16
    }

    /// The agent occupying `slot` of `leaf`, if it exists.
    pub fn agent_at(&self, leaf: &ZoneId, slot: u16) -> Option<u32> {
        if leaf.depth() != self.levels || slot >= self.branching {
            return None;
        }
        let b = u32::from(self.branching);
        let mut group: u32 = 0;
        for &d in leaf.path() {
            if u32::from(d) >= u32::from(self.branching) {
                return None;
            }
            group = group.checked_mul(b)?.checked_add(u32::from(d))?;
        }
        let agent = group.checked_mul(b)?.checked_add(u32::from(slot))?;
        (agent < self.n).then_some(agent)
    }

    /// Iterates over the agents in leaf zone `leaf`.
    pub fn members_of<'a>(&'a self, leaf: &'a ZoneId) -> impl Iterator<Item = u32> + 'a {
        (0..self.branching).filter_map(move |s| self.agent_at(leaf, s))
    }

    /// All agents in the subtree under `zone`.
    pub fn agents_under(&self, zone: &ZoneId) -> Vec<u32> {
        let r = self.agent_range(zone);
        r.map(|r| r.collect()).unwrap_or_default()
    }

    /// The contiguous id range of agents under `zone` (the balanced layout
    /// packs subtrees contiguously), or `None` for a zone outside the tree.
    pub fn agent_range(&self, zone: &ZoneId) -> Option<std::ops::Range<u32>> {
        if zone.depth() > self.levels {
            return None;
        }
        let b = u64::from(self.branching);
        let mut base: u64 = 0;
        for &d in zone.path() {
            if self.branching <= d {
                return None;
            }
            base = base * b + u64::from(d);
        }
        // Leaf-zone indices under `zone` span [base, base+span) where
        // span = b^(levels - depth); each leaf zone holds up to b agents.
        let span = b.pow((self.levels - zone.depth()) as u32);
        let start = (base * span * b).min(u64::from(self.n)) as u32;
        let end = ((base + 1) * span * b).min(u64::from(self.n)) as u32;
        (start < end).then_some(start..end)
    }

    /// The chain of zones agent `agent` replicates tables for: its leaf zone
    /// first, then each ancestor up to the root.
    pub fn ancestor_chain(&self, agent: u32) -> Vec<ZoneId> {
        let leaf = self.leaf_zone(agent);
        let ancestors = (0..leaf.depth()).rev().map(|d| leaf.ancestor_at(d));
        std::iter::once(leaf.clone()).chain(ancestors).collect()
    }

    /// How many children of `zone` actually contain agents (member slots
    /// for a leaf zone). The balanced layout packs left to right, so these
    /// are exactly the labels `0..child_count`.
    pub fn child_count(&self, zone: &ZoneId) -> u16 {
        let Some(agents) = self.agent_range(zone) else { return 0 };
        // Agents per child: one under a leaf zone, a whole subtree above.
        let per_child = u64::from(self.branching).pow((self.levels - zone.depth()) as u32);
        (agents.len() as u64).div_ceil(per_child) as u16
    }

    /// Child labels of `zone` that actually contain agents.
    pub fn occupied_children(&self, zone: &ZoneId) -> Vec<u16> {
        (0..self.child_count(zone)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_path_algebra() {
        let root = ZoneId::root();
        assert!(root.is_root());
        assert_eq!(root.depth(), 0);
        assert_eq!(root.parent(), None);
        let z = root.child(5).child(9);
        assert_eq!(z.depth(), 2);
        assert_eq!(z.label(), Some(9));
        assert_eq!(z.ancestor_at(1), root.child(5));
        assert_eq!(z.ancestor_at(0), root);
        assert!(root.is_ancestor_of(&z));
        assert!(z.is_ancestor_of(&z));
        assert!(!z.is_ancestor_of(&root));
    }

    #[test]
    fn zone_display() {
        assert_eq!(ZoneId::root().to_string(), "/");
        assert_eq!(ZoneId::root().child(1).child(2).to_string(), "/1/2");
    }

    #[test]
    fn zone_parse_roundtrips_display() {
        for zone in [ZoneId::root(), ZoneId::from_path(vec![3]), ZoneId::from_path(vec![3, 7])] {
            assert_eq!(ZoneId::parse(&zone.to_string()), Some(zone));
        }
        for bad in ["", "3/7", "/3/", "//", "/x", "/3/70000"] {
            assert_eq!(ZoneId::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn layout_levels() {
        assert_eq!(ZoneLayout::new(5, 8).levels(), 0); // all in root's leaf table
        assert_eq!(ZoneLayout::new(8, 8).levels(), 0);
        assert_eq!(ZoneLayout::new(9, 8).levels(), 1);
        assert_eq!(ZoneLayout::new(64, 8).levels(), 1);
        assert_eq!(ZoneLayout::new(65, 8).levels(), 2);
        assert_eq!(ZoneLayout::new(100_000, 64).levels(), 2); // 64^3 = 262144
    }

    #[test]
    fn leaf_zone_roundtrip() {
        let l = ZoneLayout::new(1000, 8);
        for agent in [0u32, 1, 7, 8, 63, 64, 511, 512, 999] {
            let z = l.leaf_zone(agent);
            let slot = l.member_slot(agent);
            assert_eq!(l.agent_at(&z, slot), Some(agent), "agent {agent}");
            assert_eq!(z.depth(), l.levels());
        }
    }

    #[test]
    fn members_of_leaf_zone() {
        let l = ZoneLayout::new(20, 8);
        let z = l.leaf_zone(0);
        let members: Vec<u32> = l.members_of(&z).collect();
        assert_eq!(members, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let last = l.leaf_zone(19);
        let members: Vec<u32> = l.members_of(&last).collect();
        assert_eq!(members, vec![16, 17, 18, 19]);
    }

    #[test]
    fn ancestor_chain_runs_leaf_to_root() {
        let l = ZoneLayout::new(500, 8); // levels = 2 (8^3 = 512 >= 500)
        let chain = l.ancestor_chain(77);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0], l.leaf_zone(77));
        assert_eq!(chain[1], l.leaf_zone(77).parent().unwrap());
        assert_eq!(chain[2], ZoneId::root());
    }

    #[test]
    fn agent_range_contiguous() {
        let l = ZoneLayout::new(60, 8); // levels 1
        assert_eq!(l.agent_range(&ZoneId::root()), Some(0..60));
        assert_eq!(l.agent_range(&ZoneId::root().child(1)), Some(8..16));
        assert_eq!(l.agent_range(&ZoneId::root().child(7)), Some(56..60));
        assert_eq!(l.agent_range(&ZoneId::root().child(9)), None);
        let deep = ZoneLayout::new(500, 8); // levels 2
        assert_eq!(deep.agent_range(&ZoneId::root().child(1)), Some(64..128));
        assert_eq!(deep.agent_range(&ZoneId::root().child(1).child(2)), Some(80..88));
    }

    #[test]
    fn agents_under_subtree() {
        let l = ZoneLayout::new(60, 8); // levels = 1, zones /0../7
        let z = ZoneId::root().child(1);
        assert_eq!(l.agents_under(&z), (8..16).collect::<Vec<u32>>());
        assert_eq!(l.agents_under(&ZoneId::root()).len(), 60);
    }

    #[test]
    fn occupied_children_partial_tree() {
        let l = ZoneLayout::new(20, 8); // levels 1: zones 0,1,2 occupied
        assert_eq!(l.occupied_children(&ZoneId::root()), vec![0, 1, 2]);
        let leaf = ZoneId::root().child(2);
        assert_eq!(l.occupied_children(&leaf), vec![0, 1, 2, 3]);
        assert_eq!(l.occupied_children(&ZoneId::root().child(3)), vec![], "empty subtree");
        assert_eq!(l.occupied_children(&leaf.child(0)), vec![], "below the leaf zones");
        let deep = ZoneLayout::new(2_560, 16); // levels 2: 10 x 16 x 16
        assert_eq!(deep.child_count(&ZoneId::root()), 10);
        assert_eq!(deep.child_count(&ZoneId::root().child(9)), 16);
        assert_eq!(deep.child_count(&ZoneId::root().child(9).child(15)), 16);
        assert_eq!(ZoneLayout::new(2_561, 16).child_count(&ZoneId::root()), 11);
    }

    #[test]
    fn agent_at_out_of_layout() {
        let l = ZoneLayout::new(10, 8);
        assert_eq!(l.agent_at(&ZoneId::root().child(1), 5), None); // only 2 agents in /1
        assert_eq!(l.agent_at(&ZoneId::root(), 0), None); // root is not a leaf zone
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leaf_zone_bounds() {
        ZoneLayout::new(10, 8).leaf_zone(10);
    }
}
