//! # amcast — application-level multicast over Astrolabe
//!
//! The dissemination layer of the NewsWire reproduction (paper §5–§6, §9):
//!
//! * [`route`] — the recursive `SendToZone(zone, data)` computation over a
//!   node's replicated zone tables, with conditional forwarding gated by
//!   [`FilterSpec`] (Bloom positions or category masks).
//! * [`ForwardingQueues`] — per-child forwarding queues under pluggable
//!   disciplines ([`Strategy::Fifo`] / [`Strategy::WeightedRoundRobin`] /
//!   [`Strategy::Priority`]).
//! * [`DedupWindow`] / [`CoverageWindow`] — duplicate suppression for
//!   `k`-redundant representative forwarding.
//! * [`ForwardLog`] — the forwarding component's bounded operational log
//!   (§9: "each forwarding component maintains a log file").
//! * [`SeqLog`] — epoch/sequence-numbered per-source article logs whose
//!   fixed-size [`RangeSummary`] digests piggyback on gossip to drive
//!   anti-entropy hole detection after partitions.
//! * [`McastNode`] — the composed simulated node (Astrolabe agent +
//!   forwarding component).
//! * [`PbcastNode`] — Bimodal Multicast, the yardstick protocol of §5.
//!
//! # Example
//!
//! ```
//! use amcast::{FilterSpec, McastData, McastMsg, McastNode};
//! use astrolabe::{Agent, Config, ZoneId, ZoneLayout};
//! use simnet::{NetworkModel, NodeId, SimDuration, SimTime, Simulation};
//!
//! let n = 16;
//! let layout = ZoneLayout::new(n, 4);
//! let mut config = Config::standard();
//! config.branching = 4;
//! let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(10)), 3);
//! for i in 0..n {
//!     let agent = Agent::new(i, &layout, config.clone(), vec![0]);
//!     sim.add_node(McastNode::new(agent, 1));
//! }
//! // Let membership and representative election converge…
//! sim.run_until(SimTime::from_secs(40));
//! // …then multicast from node 0 to the whole system.
//! let data = McastData {
//!     id: 424242,
//!     origin: 0,
//!     priority: 3,
//!     payload: bytes::Bytes::from_static(b"breaking"),
//!     filter: FilterSpec::All,
//! };
//! sim.schedule_external(
//!     SimTime::from_secs(40),
//!     NodeId(0),
//!     McastMsg::Publish { data, scope: ZoneId::root() },
//! );
//! sim.run_until(SimTime::from_secs(50));
//! let delivered = sim.iter().filter(|(_, node)| node.has_delivered(424242)).count();
//! assert_eq!(delivered, n as usize);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod dedup;
mod log;
mod mcast;
mod node;
mod queues;
mod seqlog;

pub use bimodal::{PbcastConfig, PbcastMsg, PbcastNode};
pub use dedup::{CoverageWindow, DedupWindow};
pub use log::{ForwardEvent, ForwardLog, LogRecord};
pub use mcast::{route, zone_reps, Action, FilterSpec, McastData};
pub use node::{McastMsg, McastNode, FORWARD_STRATEGY, SERVICE_INTERVAL};
pub use queues::{ForwardingQueues, Queued, Strategy};
pub use seqlog::{BaselineHint, RangeSummary, SeqLog};

#[cfg(test)]
mod proptests {
    use super::Strategy as QStrategy;
    use super::{CoverageWindow, DedupWindow, ForwardingQueues, SeqLog};
    use proptest::prelude::*;

    proptest! {
        /// The dedup window admits each distinct id at most once while it
        /// remains within capacity.
        #[test]
        fn dedup_single_admission(ids in proptest::collection::vec(0u64..50, 1..100)) {
            let mut w = DedupWindow::new(1000);
            let mut first = std::collections::HashSet::new();
            for id in ids {
                prop_assert_eq!(w.insert(id), first.insert(id));
            }
        }

        /// Every queue discipline conserves items: n pushes then n pops,
        /// and never more.
        #[test]
        fn queues_conserve_items(
            entries in proptest::collection::vec((0u16..6, 0u64..1000, 1u8..9), 0..60),
            strat in prop_oneof![
                Just(QStrategy::Fifo),
                Just(QStrategy::WeightedRoundRobin),
                Just(QStrategy::Priority)
            ],
        ) {
            let mut q = ForwardingQueues::new(strat);
            for (i, (child, t, p)) in entries.iter().enumerate() {
                q.push(*child, *t, *p, i);
            }
            let mut popped: Vec<usize> =
                std::iter::from_fn(|| q.pop().map(|e| e.item)).collect();
            prop_assert_eq!(popped.len(), entries.len());
            popped.sort_unstable();
            prop_assert!(popped.iter().enumerate().all(|(i, &v)| i == v));
            prop_assert!(q.pop().is_none());
        }

        /// Priority discipline yields a non-decreasing priority sequence.
        #[test]
        fn priority_orders_by_urgency(
            entries in proptest::collection::vec((0u16..4, 1u8..9), 1..40),
        ) {
            let mut q = ForwardingQueues::new(QStrategy::Priority);
            for (i, (child, p)) in entries.iter().enumerate() {
                q.push(*child, i as u64, *p, ());
            }
            let ps: Vec<u8> = std::iter::from_fn(|| q.pop().map(|e| e.priority)).collect();
            prop_assert!(ps.windows(2).all(|w| w[0] <= w[1]), "{ps:?}");
        }

        /// SeqLog summaries stay arithmetically consistent under arbitrary
        /// insertion orders and capacities: the retained count plus the gap
        /// mass always equals the knowledge window, and gaps are sorted,
        /// disjoint, in-window ranges.
        #[test]
        fn seqlog_summary_accounts_for_window(
            seqs in proptest::collection::vec(0u64..200, 0..80),
            cap in 1usize..32,
        ) {
            let mut log = SeqLog::new(cap);
            for s in seqs {
                log.insert(s, ());
            }
            let summary = log.summary();
            prop_assert_eq!(summary.present, log.len() as u64);
            let gap_mass: u64 = log.gaps().iter().map(|(lo, hi)| hi - lo + 1).sum();
            prop_assert_eq!(summary.present + gap_mass, summary.next - summary.floor);
            let gaps = log.gaps();
            prop_assert!(gaps.iter().all(|(lo, hi)| lo <= hi && *lo >= summary.floor
                && *hi < summary.next));
            prop_assert!(gaps.windows(2).all(|w| w[0].1 + 1 < w[1].0));
            // A peer with our own summary offers exactly our gaps.
            prop_assert_eq!(log.missing_given(&summary), gaps);
        }

        /// The allocation-free predicate is the pull list's emptiness test,
        /// for peers on older, equal and newer epochs, windows that miss,
        /// straddle and cover ours, and logs with and without holes.
        #[test]
        fn seqlog_lacks_agrees_with_missing_given(
            seqs in proptest::collection::vec(0u64..60, 0..50),
            cap in 1usize..32,
            own_epoch in 0u32..3,
            peers in proptest::collection::vec((0u32..3, 0u64..70, 0u64..70), 1..40),
        ) {
            let mut log = SeqLog::new(cap);
            log.adopt_epoch(own_epoch);
            for s in seqs {
                log.insert(s, ());
            }
            let gaps = log.gaps();
            prop_assert_eq!(log.lacks(&gaps, &log.summary()), !gaps.is_empty());
            for (epoch, floor, len) in peers {
                let peer = super::RangeSummary { epoch, floor, next: floor + len, present: len };
                prop_assert_eq!(
                    log.lacks(&gaps, &peer),
                    !log.missing_given(&peer).is_empty(),
                    "{:?} vs {:?}", log.summary(), peer
                );
            }
        }

        /// Coverage admission is monotone: once admitted at depth d, all
        /// depths >= d are refused until a strictly wider duty arrives.
        #[test]
        fn coverage_monotone(depths in proptest::collection::vec(0usize..6, 1..40)) {
            let mut w = CoverageWindow::new(64);
            let mut best: Option<usize> = None;
            for d in depths {
                let expect = best.is_none_or(|b| d < b);
                prop_assert_eq!(w.admit(7, d), expect);
                if expect {
                    best = Some(d);
                }
            }
        }
    }
}
