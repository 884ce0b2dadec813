//! E19 — scale: Astrolabe convergence from cold start, on one shard and on
//! two.
//!
//! Engineering claim (DESIGN.md §13): the simulator reaches 100k-node
//! deployments, and splitting a run over shards buys wall-clock time on a
//! multi-core host without changing a single simulated number. `n` agents
//! gossip until three probe nodes count full membership at the root, then
//! run a 30-simulated-second steady-state window (the per-round recompute
//! cost). The scenario runs once on the default engine and once on two
//! shards with one thread each ([`Simulation::run_until_parallel`]); both
//! must process the same events and converge at the same simulated second.

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

/// Runs `n` agents to convergence plus a 30 s steady state on `shards`
/// execution shards (one thread each when more than one).
pub fn converge(n: u32, shards: usize) -> ScaleRun {
    let layout = ZoneLayout::new(n, BRANCHING);
    let mut config = Config::standard();
    config.branching = BRANCHING;
    let mut contact_rng = fork(SEED, 99);
    let mut sim = Simulation::new(NetworkModel::default(), SEED);
    sim.set_shards(shards);
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
        sim.run_until_parallel(SimTime::from_secs(t));
        if probes.iter().all(|&p| members_at_root(&sim, p) == i64::from(n)) {
            converged_sim_s = Some(t);
            break;
        }
    }
    sim.run_for_parallel(SimDuration::from_secs(30));
    ScaleRun {
        converged_sim_s,
        events: sim.events_processed(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 1_000 } else { 10_000 };
    let mut table = Table::new(
        "E19 — Astrolabe cold-start convergence + 30 s steady state, one shard vs two \
         (branching 16)",
        &["agents", "shards", "converged sim-s", "events", "wall s", "events/s", "speedup"],
    );
    let one = converge(n, 1);
    let two = converge(n, 2);
    assert_eq!(one.events, two.events, "the shard count changed the event count");
    assert_eq!(one.converged_sim_s, two.converged_sim_s, "the shard count changed convergence");
    for (k, r) in [(1, one), (2, two)] {
        table.row(&[
            n.to_string(),
            k.to_string(),
            r.converged_sim_s.map_or("never".into(), |t| t.to_string()),
            r.events.to_string(),
            format!("{:.2}", r.wall_s),
            format!("{:.0}", r.events as f64 / r.wall_s),
            format!("{:.2}x", one.wall_s / r.wall_s),
        ]);
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    table.caption(format!(
        "simulated columns are equal by construction (the run asserts it); wall-clock \
         columns are one run each on a host with {cores} cores and move with its load"
    ));
    table.print();
}
