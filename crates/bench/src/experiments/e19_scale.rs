//! E19 — scale: Astrolabe convergence from cold start.
//!
//! Engineering claim (DESIGN.md §13): the simulator reaches 100k-node
//! deployments on one host. `n` agents gossip until three probe nodes count
//! full membership at the root, then run a 30-simulated-second steady state
//! window (the per-round recompute cost). The run must converge; its
//! simulated columns (convergence second, events) are a pure function of
//! the seed, and its wall-clock and peak-RSS columns measure the host.

use std::time::Instant;

use astrolabe::{Agent, AstroNode, Config, ZoneLayout};
use rand::Rng;
use simnet::{fork, NetworkModel, NodeId, SimDuration, SimTime, Simulation};

use crate::Table;

/// Branching factor of the scale scenario's zone tree.
const BRANCHING: u16 = 16;
/// Seed of the scale scenario.
const SEED: u64 = 0xA57;

/// One run of the scale scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRun {
    /// Simulated second at which every probe counted full membership
    /// (`None`: not within 600 s).
    pub converged_sim_s: Option<u64>,
    /// Engine events processed, convergence plus steady state.
    pub events: u64,
    /// Host wall-clock seconds for the whole run.
    pub wall_s: f64,
}

/// Runs `n` agents to convergence plus a 30 s steady state.
pub fn converge(n: u32) -> ScaleRun {
    let layout = ZoneLayout::new(n, BRANCHING);
    let mut config = Config::standard();
    config.branching = BRANCHING;
    let mut contact_rng = fork(SEED, 99);
    let mut sim = Simulation::new(NetworkModel::default(), SEED);
    for i in 0..n {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..n)).collect();
        sim.add_node(AstroNode::new(Agent::new(i, &layout, config.clone(), contacts)));
    }
    let probes = [0u32, n / 2, n - 1];
    let members_at_root = |sim: &Simulation<AstroNode>, probe: u32| -> i64 {
        sim.node(NodeId(probe))
            .agent
            .root_table()
            .iter()
            .filter_map(|(_, r)| r.get("nmembers").and_then(|v| v.as_i64()))
            .sum()
    };

    let start = Instant::now();
    let mut converged_sim_s = None;
    for t in 1..=600u64 {
        sim.run_until(SimTime::from_secs(t));
        if probes.iter().all(|&p| members_at_root(&sim, p) == i64::from(n)) {
            converged_sim_s = Some(t);
            break;
        }
    }
    sim.run_for(SimDuration::from_secs(30));
    ScaleRun {
        converged_sim_s,
        events: sim.events_processed(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// MiB; `None` on a host without that file.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()? / 1024.0)
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 1_000 } else { 10_000 };
    let mut table = Table::new(
        "E19 — Astrolabe cold-start convergence + 30 s steady state (branching 16)",
        &["agents", "converged sim-s", "events", "wall s", "events/s", "peak RSS"],
    );
    let r = converge(n);
    let converged = r.converged_sim_s.expect("the scale scenario must converge within 600 s");
    table.row(&[
        n.to_string(),
        converged.to_string(),
        r.events.to_string(),
        format!("{:.2}", r.wall_s),
        format!("{:.0}", r.events as f64 / r.wall_s),
        peak_rss_mib().map_or_else(|| "–".to_owned(), |mib| format!("{mib:.0} MB")),
    ]);
    table.host_columns(&["wall s", "events/s", "peak RSS"]);
    table.caption(
        "simulated columns are a pure function of the seed; wall-clock columns are one run \
         and move with the host's load; peak RSS is the whole process's (VmHWM), so it is \
         E19's own only when E19 runs alone (`-- e19`)",
    );
    table.print();
}
