//! # astrolabe — the gossip-based hierarchical management substrate
//!
//! A from-scratch reimplementation of the Astrolabe system the NewsWire
//! paper builds on (paper §3–§5): a virtual hierarchy of zone tables,
//! maintained by an epidemic anti-entropy protocol, summarized upward by
//! SQL-like aggregation functions that are themselves mobile code, secured
//! by certificates, and eventually consistent.
//!
//! Layering:
//!
//! * [`ZoneId`] / [`ZoneLayout`] — the zone tree (≤64-row tables, several
//!   levels deep).
//! * [`AttrValue`], [`Mib`], [`ZoneTable`] — typed rows and replicated
//!   tables with newest-wins merging.
//! * [`parse_program`] / [`run_program`] — the aggregation-function
//!   language; [`parse_predicate`] / [`eval_predicate`] double as the
//!   subscriber SQL filter of §8.
//! * [`Agent`] — the per-node protocol state machine (sans-IO);
//!   [`AstroNode`] wraps it for `simnet`.
//! * [`TrustRegistry`] — simulated certificates (see DESIGN.md for the
//!   substitution rationale).
//! * [`mod@management`] — the §4 infrastructure-management usage: standard
//!   attributes, program set, and min/max operational guidance.
//!
//! # Example
//!
//! Run a 12-agent deployment to convergence on simulated time:
//!
//! ```
//! use astrolabe::{Agent, AstroNode, Config, ZoneLayout};
//! use simnet::{NetworkModel, NodeId, SimDuration, SimTime, Simulation};
//!
//! let n = 12;
//! let layout = ZoneLayout::new(n, 4);
//! let mut config = Config::standard();
//! config.branching = 4;
//! let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(20)), 7);
//! for i in 0..n {
//!     sim.add_node(AstroNode::new(Agent::new(i, &layout, config.clone(), vec![0])));
//! }
//! sim.run_until(SimTime::from_secs(60));
//! let total: i64 = sim
//!     .node(NodeId(3))
//!     .agent
//!     .root_table()
//!     .iter()
//!     .filter_map(|(_, row)| row.get("nmembers").and_then(|v| v.as_i64()))
//!     .sum();
//! assert_eq!(total, n as i64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
pub mod agg;
mod cert;
mod config;
pub mod management;
mod mib;
mod simnode;
mod table;
mod value;
mod zone;

pub use agent::{Agent, GossipMsg, TableDigest, TableRows, AGG_ATTR_PREFIX};
pub use agg::{
    eval_predicate, eval_scalar, parse_predicate, parse_program, run_program, AggProgram,
    EvalError, Expr, ParseAggError, RowSource,
};
pub use cert::{Certificate, KeyId, RotationRecord, SecretKey, Signature, TrustRegistry};
pub use config::{AggSource, AggSpec, Config};
pub use mib::{AttrName, Mib, MibBuilder, Stamp};
pub use simnode::AstroNode;
pub use table::{Diff, MergeOutcome, Row, RowDigest, ZoneTable};
pub use value::AttrValue;
pub use zone::{ZoneId, ZoneLayout, DEFAULT_BRANCHING};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn arb_stamp() -> impl Strategy<Value = Stamp> {
        (0u64..1000, 0u64..50, 0u32..8).prop_map(|(t, v, o)| Stamp {
            issued_us: t,
            version: v,
            origin: o,
        })
    }

    /// A row whose values are a function of its stamp — one stamp, one
    /// content, as honest issuers guarantee — drawn from so few values that
    /// equal values under different stamps are common.
    fn arb_row() -> impl Strategy<Value = (u16, Arc<Mib>)> {
        (0u16..8, arb_stamp()).prop_map(|(label, stamp)| {
            let x = (stamp.issued_us + stamp.version + u64::from(stamp.origin)) % 3;
            (label, Arc::new(MibBuilder::new().attr("x", x as i64).build(stamp)))
        })
    }

    proptest! {
        /// Table merge is order-independent: any permutation of the same row
        /// multiset converges to the same table (the property that makes
        /// anti-entropy gossip eventually consistent).
        #[test]
        fn merge_order_independent(rows in proptest::collection::vec(arb_row(), 0..24)) {
            let mut forward = ZoneTable::new(ZoneId::root());
            for (l, r) in &rows { forward.merge_row(*l, Arc::clone(r)); }
            let mut backward = ZoneTable::new(ZoneId::root());
            for (l, r) in rows.iter().rev() { backward.merge_row(*l, Arc::clone(r)); }
            let fw: Vec<(u16, Stamp)> = forward.iter().map(|(l, r)| (l, r.stamp)).collect();
            let bw: Vec<(u16, Stamp)> = backward.iter().map(|(l, r)| (l, r.stamp)).collect();
            prop_assert_eq!(fw, bw);
        }

        /// Merging is idempotent: replaying the same rows changes nothing.
        #[test]
        fn merge_idempotent(rows in proptest::collection::vec(arb_row(), 0..24)) {
            let mut t = ZoneTable::new(ZoneId::root());
            for (l, r) in &rows { t.merge_row(*l, Arc::clone(r)); }
            let before: Vec<(u16, Stamp)> = t.iter().map(|(l, r)| (l, r.stamp)).collect();
            for (l, r) in &rows {
                let changed = t.merge_row(*l, Arc::clone(r));
                prop_assert!(!changed);
            }
            let after: Vec<(u16, Stamp)> = t.iter().map(|(l, r)| (l, r.stamp)).collect();
            prop_assert_eq!(before, after);
        }

        /// After one digest/diff exchange both replicas agree exactly, and
        /// only rows whose values differ travel: the rest move by stamp
        /// (adopted from the digest, or a refresh record).
        #[test]
        fn diff_exchange_converges(
            a_rows in proptest::collection::vec(arb_row(), 0..16),
            b_rows in proptest::collection::vec(arb_row(), 0..16),
        ) {
            let mut a = ZoneTable::new(ZoneId::root());
            let mut b = ZoneTable::new(ZoneId::root());
            for (l, r) in &a_rows { a.merge_row(*l, Arc::clone(r)); }
            for (l, r) in &b_rows { b.merge_row(*l, Arc::clone(r)); }

            // `b` answers `a`'s digest; `a` takes the reply.
            let digest = a.digest();
            let at_b = b.diff(&digest);
            for e in at_b.adopt.iter().map(|&i| &digest[i as usize]) {
                let held = Arc::clone(b.get(e.label).unwrap());
                prop_assert!(b.merge_stamped(e.label, e.stamp, held) != MergeOutcome::Rejected);
            }
            let travel = |t: &ZoneTable, l: u16| {
                let r = t.row(l).unwrap();
                (l, r.stamp, Arc::clone(&r.mib))
            };
            let shipped: Vec<_> = at_b.ship.iter().map(|&l| travel(&b, l)).collect();
            let pulled: Vec<_> = at_b.want.iter().map(|&l| travel(&a, l)).collect();
            for (l, s, r) in shipped { a.merge_stamped(l, s, r); }
            for rec in &at_b.refresh {
                let held = Arc::clone(a.get(rec.label).unwrap());
                prop_assert_eq!(held.content_hash(), rec.chash);
                a.merge_stamped(rec.label, rec.stamp, held);
            }
            for (l, s, r) in pulled { b.merge_stamped(l, s, r); }

            let view = |t: &ZoneTable| -> Vec<(u16, Stamp, u64)> {
                t.rows().iter().map(|r| (r.label, r.stamp, r.mib.content_hash())).collect()
            };
            prop_assert_eq!(view(&a), view(&b));
        }

        /// Layout invariant: every agent maps into exactly one leaf zone at
        /// the layout's level, and the mapping round-trips.
        #[test]
        fn layout_total_and_injective(n in 1u32..2000, b in 2u16..16) {
            let l = ZoneLayout::new(n, b);
            let probe = [0, n / 3, n / 2, n.saturating_sub(1)];
            for &agent in probe.iter().filter(|&&a| a < n) {
                let z = l.leaf_zone(agent);
                prop_assert_eq!(z.depth(), l.levels());
                prop_assert_eq!(l.agent_at(&z, l.member_slot(agent)), Some(agent));
            }
        }

        /// The predicate parser never panics; valid parses display-roundtrip.
        #[test]
        fn predicate_parser_total(src in "[ -~]{0,48}") {
            if let Ok(e) = parse_predicate(&src) {
                let printed = e.to_string();
                let reparsed = parse_predicate(&printed).unwrap();
                prop_assert_eq!(reparsed.to_string(), printed);
            }
        }

        /// The whole parse→evaluate pipeline is total: whatever program text
        /// and row contents arrive (mobile code can come from anyone), the
        /// evaluator returns Ok/Err — it never panics. This is the safety
        /// property that lets agents run gossiped programs blindly.
        #[test]
        fn evaluator_total_on_arbitrary_programs(
            src in "(SELECT )?[A-Za-z0-9_$ (),.'*+<>=%/-]{0,64}",
            ints in proptest::collection::vec(("[a-z]{1,6}", -100i64..100), 0..6),
            strs in proptest::collection::vec(("[a-z]{1,6}", "[ -~]{0,10}"), 0..4),
        ) {
            if let Ok(prog) = parse_program(&src) {
                let rows: Vec<Mib> = (0..3)
                    .map(|i| {
                        let mut b = MibBuilder::new();
                        for (k, v) in &ints { b.set(k.as_str(), *v + i); }
                        for (k, v) in &strs { b.set(k.as_str(), v.as_str()); }
                        b.build(Stamp::default())
                    })
                    .collect();
                let _ = run_program(&prog, &rows); // must not panic
            }
        }
    }
}
