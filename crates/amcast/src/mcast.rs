//! `SendToZone` routing — the recursive dissemination of paper §5, with the
//! selective forwarding of §6.
//!
//! "When a SendToZone is executed the system will visit each of the entries
//! in [the] zone table, each representing a child of this zone. For each of
//! the entries the attribute with the set of multicast representatives will
//! be retrieved and the data will be forwarded to one of the
//! representatives… At the arrival of the data at the representative, the
//! process is repeated recursively for all the children in the zone it
//! represents, until the data arrives at the leaf nodes."
//!
//! Publish/subscribe (§6) makes the per-child forwarding *conditional*: the
//! child's aggregated subscription summary (Bloom bit positions or category
//! mask) is tested first; uninterested subtrees are pruned.

use astrolabe::{eval_predicate, Agent, AttrValue, Expr, Mib, ZoneId};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// The interest test applied at each forwarding hop.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterSpec {
    /// Unconditional dissemination (plain `SendToZone`).
    All,
    /// Forward iff every listed bit is set in the child's `attr` bit array
    /// (the §6 Bloom design: publishers ship positions, not keys).
    BloomPositions {
        /// Attribute holding the aggregated subscription bit array.
        attr: String,
        /// Bit positions of the publication's subscription key(s).
        positions: Vec<usize>,
    },
    /// Forward iff the child's integer `attr` shares a bit with `mask`
    /// (the §7 per-publisher category-mask prototype).
    MaskBits {
        /// Attribute holding the aggregated category mask.
        attr: String,
        /// The publication's category bits.
        mask: u64,
    },
    /// Forward iff *any* of the position groups is fully present in the
    /// child's `attr` bit array. NewsWire items match several subscription
    /// keys (one per category, one per subject prefix); a zone is
    /// interested when any of them hits.
    BloomAny {
        /// Attribute holding the aggregated subscription bit array.
        attr: String,
        /// One position group per subscription key of the publication.
        groups: Vec<Vec<usize>>,
    },
    /// Forward iff the publisher-supplied SQL predicate holds on the child
    /// zone's summary row — the §8 extension: "allow the publisher more
    /// control over the dissemination by adding a predicate to the metadata
    /// that needs to be evaluated using the attribute values of a child
    /// zone before it can be forwarded to that zone" (e.g. `premium > 0`).
    /// Evaluation errors and NULLs reject the zone (fail-closed).
    Predicate {
        /// The compiled predicate.
        expr: Expr,
    },
    /// Both parts must admit — used to combine a subscription summary test
    /// with a publisher predicate.
    Both(Box<FilterSpec>, Box<FilterSpec>),
}

impl FilterSpec {
    /// Does the summary row `row` admit this publication?
    ///
    /// A row *lacking* the attribute is treated as not subscribed — an
    /// unsummarized zone cannot be shown interested; the end-to-end repair
    /// path (message cache) covers the transient.
    pub fn admits(&self, row: &Mib) -> bool {
        match self {
            FilterSpec::All => true,
            FilterSpec::BloomPositions { attr, positions } => match row.get(attr) {
                Some(AttrValue::Bits(bits)) => {
                    positions.iter().all(|&p| p < bits.len() && bits.get(p))
                }
                _ => false,
            },
            FilterSpec::MaskBits { attr, mask } => match row.get(attr) {
                Some(AttrValue::Int(m)) => (*m as u64) & mask != 0,
                _ => false,
            },
            FilterSpec::BloomAny { attr, groups } => match row.get(attr) {
                Some(AttrValue::Bits(bits)) => groups
                    .iter()
                    .any(|g| !g.is_empty() && g.iter().all(|&p| p < bits.len() && bits.get(p))),
                _ => false,
            },
            FilterSpec::Predicate { expr } => eval_predicate(expr, &row).unwrap_or(false),
            FilterSpec::Both(a, b) => a.admits(row) && b.admits(row),
        }
    }

    /// Approximate serialized size.
    pub fn wire_size(&self) -> usize {
        match self {
            FilterSpec::All => 1,
            FilterSpec::BloomPositions { attr, positions } => 1 + attr.len() + positions.len() * 2,
            FilterSpec::MaskBits { attr, .. } => 9 + attr.len(),
            FilterSpec::BloomAny { attr, groups } => {
                1 + attr.len() + groups.iter().map(|g| 1 + g.len() * 2).sum::<usize>()
            }
            FilterSpec::Predicate { expr } => 1 + expr.to_string().len(),
            FilterSpec::Both(a, b) => 1 + a.wire_size() + b.wire_size(),
        }
    }

    /// Combines two filters conjunctively.
    #[must_use]
    pub fn and(self, other: FilterSpec) -> FilterSpec {
        FilterSpec::Both(Box::new(self), Box::new(other))
    }
}

/// One multicast payload travelling through the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct McastData {
    /// Globally unique message id (publisher-assigned; drives duplicate
    /// suppression).
    pub id: u64,
    /// Originating node.
    pub origin: u32,
    /// Priority class (NITF urgency; smaller = more urgent).
    pub priority: u8,
    /// Opaque payload.
    pub payload: Bytes,
    /// Per-hop interest test.
    pub filter: FilterSpec,
}

impl McastData {
    /// Approximate serialized size.
    pub fn wire_size(&self) -> usize {
        8 + 4 + 1 + self.payload.len() + self.filter.wire_size()
    }
}

/// One step of the recursive dissemination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Hand the item to a representative of `zone`, which will cover it.
    Forward {
        /// The chosen representative.
        rep: u32,
        /// The (sub)zone it must cover.
        zone: ZoneId,
    },
    /// The item matches this node's own subscription row — deliver locally.
    DeliverLocal,
    /// Final hop: deliver to a member of this node's leaf zone.
    Deliver {
        /// The member node.
        member: u32,
    },
}

/// Computes the forwarding actions for covering `zone` with `data`, using
/// this node's replicated tables.
///
/// At interior zones, every interested child gets `k` distinct
/// representatives (paper §9 redundancy); the child on this node's own root
/// path is recursed into *locally* (returned as deeper actions) rather than
/// re-sent over the network. At leaf zones the item is delivered to every
/// member whose own row matches the filter.
///
/// A zone *not* on this node's root path is relayed toward: the item is
/// handed to representatives of the child (of the deepest shared ancestor)
/// lying on the path to `zone`, unconditionally — scope placement must
/// succeed even through disinterested regions (paper §8: a publisher "is
/// able to restrict the scope of the dissemination by selecting another
/// zone than the root zone"). Filtering applies once inside `zone`.
pub fn route(
    agent: &Agent,
    filter: &FilterSpec,
    zone: &ZoneId,
    k: usize,
    rng: &mut SmallRng,
) -> Vec<Action> {
    let mut actions = Vec::new();
    let mut pending = vec![zone.clone()];
    while let Some(z) = pending.pop() {
        let Some(level) = agent.level_of(&z) else {
            relay_toward(agent, &z, k, rng, &mut actions);
            continue;
        };
        if level == 0 {
            // Leaf zone: rows are members; deliver to matching ones.
            for (label, row) in agent.table(0).iter() {
                if !filter.admits(row) {
                    continue;
                }
                if label == agent.own_label(0) {
                    actions.push(Action::DeliverLocal);
                } else if let Some(AttrValue::Int(id)) = row.get("id") {
                    if let Ok(member) = u32::try_from(*id) {
                        actions.push(Action::Deliver { member });
                    }
                }
            }
            continue;
        }
        let own_child = agent.own_label(level);
        for (label, row) in agent.table(level).iter() {
            if !filter.admits(row) {
                continue;
            }
            let child_zone = z.child(label);
            if label == own_child {
                // Our own branch: keep recursing locally.
                pending.push(child_zone);
                continue;
            }
            let Some(AttrValue::Set(reps)) = row.get("reps") else { continue };
            let mut candidates: Vec<u32> =
                reps.iter().filter_map(|&r| u32::try_from(r).ok()).collect();
            candidates.shuffle(rng);
            for rep in candidates.into_iter().take(k.max(1)) {
                actions.push(Action::Forward { rep, zone: child_zone.clone() });
            }
        }
    }
    actions
}

/// All representatives this node's tables list for covering `zone`,
/// excluding the node itself — the failover candidate set for acknowledged
/// hand-offs: when a chosen representative times out, the forwarder retries
/// the next entry instead of waiting for anti-entropy repair.
///
/// `zone` may be a direct child of a zone on this node's root path (the
/// common hand-off case) or an arbitrary off-path zone (the relay case); in
/// both, the candidates are the representatives of the child of the deepest
/// shared ancestor lying on the path to `zone`. Returns an empty vector for
/// zones on this node's own chain (no external hand-off applies) or when no
/// table row is known yet. Order is the table's deterministic set order.
pub fn zone_reps(agent: &Agent, zone: &ZoneId) -> Vec<u32> {
    let leaf = agent.zone(0);
    let shared = leaf.path().iter().zip(zone.path()).take_while(|(a, b)| a == b).count();
    let Some(&child_label) = zone.path().get(shared) else { return Vec::new() };
    if shared >= leaf.depth() {
        return Vec::new();
    }
    let table_level = leaf.depth() - shared;
    let Some(row) = agent.table(table_level).get(child_label) else { return Vec::new() };
    let Some(AttrValue::Set(reps)) = row.get("reps") else { return Vec::new() };
    reps.iter().filter_map(|&r| u32::try_from(r).ok()).filter(|&r| r != agent.id()).collect()
}

/// Relays an item toward a zone off this node's root path: pick `k`
/// representatives of the child (under the deepest shared ancestor) that
/// lies on the path to `target`, and hand them the *original* target. Each
/// relay hop strictly lengthens the shared prefix, so the walk terminates.
fn relay_toward(
    agent: &Agent,
    target: &ZoneId,
    k: usize,
    rng: &mut SmallRng,
    actions: &mut Vec<Action>,
) {
    let leaf = agent.zone(0);
    let shared = leaf.path().iter().zip(target.path()).take_while(|(a, b)| a == b).count();
    // The shared ancestor is at depth `shared` on our chain; its table is
    // level `leaf.depth() - shared`. `target` is deeper than the ancestor
    // (otherwise level_of would have succeeded), so indexing is in range.
    let Some(&child_label) = target.path().get(shared) else { return };
    let table_level = leaf.depth() - shared;
    let Some(row) = agent.table(table_level).get(child_label) else { return };
    let Some(AttrValue::Set(reps)) = row.get("reps") else { return };
    let mut candidates: Vec<u32> = reps.iter().filter_map(|&r| u32::try_from(r).ok()).collect();
    candidates.retain(|&c| c != agent.id());
    candidates.shuffle(rng);
    for rep in candidates.into_iter().take(k.max(1)) {
        actions.push(Action::Forward { rep, zone: target.clone() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astrolabe::{AttrValue, MibBuilder, Stamp};
    use filters::BitArray;

    fn bits_row(ones: &[usize]) -> Mib {
        let mut b = BitArray::new(32);
        for &o in ones {
            b.set(o);
        }
        MibBuilder::new().attr("subs", AttrValue::Bits(b)).build(Stamp::default())
    }

    #[test]
    fn filter_all_admits_everything() {
        assert!(FilterSpec::All.admits(&MibBuilder::new().build(Stamp::default())));
    }

    #[test]
    fn bloom_filter_requires_all_positions() {
        let f = FilterSpec::BloomPositions { attr: "subs".into(), positions: vec![1, 5] };
        assert!(f.admits(&bits_row(&[1, 5, 9])));
        assert!(!f.admits(&bits_row(&[1])));
        assert!(
            !f.admits(&MibBuilder::new().build(Stamp::default())),
            "missing attr = no interest"
        );
    }

    #[test]
    fn bloom_filter_out_of_range_position_rejects() {
        let f = FilterSpec::BloomPositions { attr: "subs".into(), positions: vec![99] };
        assert!(!f.admits(&bits_row(&[1])));
    }

    #[test]
    fn mask_filter_intersects() {
        let row = MibBuilder::new().attr("cats", AttrValue::Int(0b0110)).build(Stamp::default());
        assert!(FilterSpec::MaskBits { attr: "cats".into(), mask: 0b0100 }.admits(&row));
        assert!(!FilterSpec::MaskBits { attr: "cats".into(), mask: 0b1000 }.admits(&row));
    }

    #[test]
    fn predicate_filter_evaluates_on_row() {
        let expr = astrolabe::parse_predicate("premium > 0").unwrap();
        let f = FilterSpec::Predicate { expr };
        let premium = MibBuilder::new().attr("premium", 2i64).build(Stamp::default());
        let free = MibBuilder::new().attr("premium", 0i64).build(Stamp::default());
        let missing = MibBuilder::new().build(Stamp::default());
        assert!(f.admits(&premium));
        assert!(!f.admits(&free));
        assert!(!f.admits(&missing), "NULL predicate must fail closed");
    }

    #[test]
    fn both_requires_both() {
        let expr = astrolabe::parse_predicate("premium > 0").unwrap();
        let combined = FilterSpec::All.and(FilterSpec::Predicate { expr });
        let premium = MibBuilder::new().attr("premium", 1i64).build(Stamp::default());
        let free = MibBuilder::new().build(Stamp::default());
        assert!(combined.admits(&premium));
        assert!(!combined.admits(&free));
        assert!(combined.wire_size() > 2);
    }

    #[test]
    fn wire_sizes_reflect_contents() {
        let d = McastData {
            id: 1,
            origin: 0,
            priority: 5,
            payload: Bytes::from_static(b"0123456789"),
            filter: FilterSpec::All,
        };
        assert_eq!(d.wire_size(), 8 + 4 + 1 + 10 + 1);
    }
}
