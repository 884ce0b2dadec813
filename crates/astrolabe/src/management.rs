//! Infrastructure-management aggregations (paper §4).
//!
//! "One of the premier applications of Astrolabe technology is in the realm
//! of infrastructure management… Examples of infrastructure management
//! attributes that can easily be stored in Astrolabe include the
//! availability and configuration of local communication paths, as well as
//! performance measurements of local networking and computing elements. The
//! aggregation functions used in this setting would typically compute
//! aggregated availability and performance of network, and might offer
//! real-time guidance concerning which elements are in the min/max
//! category, and hence represent targets for new operations."
//!
//! This module packages that usage: the standard attribute names, the
//! management aggregation program set, and read-side helpers that turn a
//! node's replicated tables into min/max operational guidance.

use crate::agent::Agent;
use crate::config::AggSpec;
use crate::value::AttrValue;
use crate::zone::ZoneId;

/// Standard management attribute: one-minute load average.
pub const ATTR_LOAD: &str = "load";
/// Standard management attribute: available network paths.
pub const ATTR_PATHS: &str = "paths";
/// Standard management attribute: observed bandwidth (KB/s).
pub const ATTR_BANDWIDTH: &str = "bw";
/// Standard management attribute: 0/1 availability flag.
pub const ATTR_UP: &str = "up";

/// The §4 management program set: availability counts, performance
/// extremes, and path capacity, all written in the multi-level idiom
/// (alias = source attribute) so they compose up the tree.
pub fn management_aggregations() -> Vec<AggSpec> {
    vec![
        AggSpec::new("mgmt-up", format!("SELECT SUM({ATTR_UP}) AS {ATTR_UP}")),
        AggSpec::new("mgmt-paths", format!("SELECT SUM({ATTR_PATHS}) AS {ATTR_PATHS}")),
        AggSpec::new(
            "mgmt-bw",
            format!(
                "SELECT MIN({ATTR_BANDWIDTH}) AS {ATTR_BANDWIDTH}, MAX({ATTR_BANDWIDTH}) AS bw_max"
            ),
        ),
    ]
}

/// Operational guidance extracted from a node's replicated summaries:
/// which child of `zone` currently looks best/worst on an attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Guidance {
    /// Child with the smallest value, `(label, value)`.
    pub min: Option<(u16, f64)>,
    /// Child with the largest value, `(label, value)`.
    pub max: Option<(u16, f64)>,
}

/// Scans the agent's replica of `zone`'s table for the min/max children on
/// a numeric attribute (the §4 "targets for new operations" query).
/// Returns `None` when the agent does not replicate `zone`.
pub fn guidance(agent: &Agent, zone: &ZoneId, attr: &str) -> Option<Guidance> {
    let level = agent.level_of(zone)?;
    let mut min: Option<(u16, f64)> = None;
    let mut max: Option<(u16, f64)> = None;
    for (label, row) in agent.table(level).iter() {
        let Some(v) = row.get(attr).and_then(AttrValue::as_f64) else { continue };
        if min.is_none_or(|(_, m)| v < m) {
            min = Some((label, v));
        }
        if max.is_none_or(|(_, m)| v > m) {
            max = Some((label, v));
        }
    }
    Some(Guidance { min, max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::zone::ZoneLayout;
    use simnet::{fork, SimTime};

    /// Synchronous-round harness (same as the agent unit tests).
    fn converge(agents: &mut [Agent], rounds: usize) {
        let mut rng = fork(4, 0);
        for r in 1..=rounds {
            let now = SimTime::from_secs(r as u64);
            let mut inflight = Vec::new();
            for a in agents.iter_mut() {
                for (to, m) in a.on_tick(now, &mut rng) {
                    inflight.push((a.id(), to, m));
                }
            }
            while let Some((from, to, msg)) = inflight.pop() {
                if let Some(b) = agents.iter_mut().find(|a| a.id() == to) {
                    for (to2, m2) in b.on_message(now, from, msg, &mut rng) {
                        inflight.push((to, to2, m2));
                    }
                }
            }
        }
    }

    #[test]
    fn management_programs_compile() {
        for spec in management_aggregations() {
            crate::agg::parse_program(&spec.program)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn guidance_names_extreme_children() {
        let n = 16u32;
        let layout = ZoneLayout::new(n, 4);
        let mut config = Config::standard();
        config.branching = 4;
        config.aggregations.extend(management_aggregations());
        let mut agents: Vec<Agent> =
            (0..n).map(|i| Agent::new(i, &layout, config.clone(), vec![0])).collect();
        for a in agents.iter_mut() {
            a.set_local_attr(ATTR_UP, 1i64);
            a.set_local_attr(ATTR_PATHS, 2i64);
            // Bandwidth varies by zone: zone z gets 100*(z+1) KB/s.
            let zone = a.zone(0).label().unwrap_or(0);
            a.set_local_attr(ATTR_BANDWIDTH, f64::from(zone + 1) * 100.0);
        }
        converge(&mut agents, 14);

        let probe = &agents[0];
        let g = guidance(probe, &ZoneId::root(), ATTR_BANDWIDTH).expect("root replicated");
        assert_eq!(g.min.unwrap().0, 0, "zone /0 has the least bandwidth");
        assert_eq!(g.max.unwrap().0, 3, "zone /3 has the most bandwidth");
        assert_eq!(g.max.unwrap().1, 400.0);

        // Availability fused across the whole system.
        let up: i64 = probe
            .root_table()
            .iter()
            .filter_map(|(_, r)| r.get(ATTR_UP).and_then(|v| v.as_i64()))
            .sum();
        assert_eq!(up, 16);

        // Foreign zones give no guidance.
        assert!(guidance(probe, &ZoneId::root().child(2).child(9), ATTR_UP).is_none());
    }
}
