//! Footprint census: what each structure of three deployments holds, in
//! bytes, summed over nodes and per node.
//!
//! The first is `gossip_cold_start`'s shape, Astrolabe alone: 2,560 agents
//! at branching 16, three random bootstrap contacts each, polled every
//! 100 ms until every root table counts the whole membership, then 30
//! simulated seconds of steady state. The other two are `publish_steady`'s
//! and `lossy_revisions`' NewsWire deployments (302 nodes at branching 8,
//! `newswire_repro::census`), read at the end of the drain, when a node's
//! per-article bookkeeping is at its largest. Every figure is computed from
//! lengths and capacities (`Agent::footprint()`, `NewsWireNode::footprint()`,
//! the telemetry hub's per-node columns, `TraceRing::heap_bytes()`), so the
//! output is a pure function of the seed; `scripts/ledger.sh footprint
//! check` compares seed 1 with `ledger/footprint.txt`.
//!
//! Run with: `cargo run --release --example footprint_census [seed]`

use astrolabe::{Agent, AstroNode, Config, Footprint, ZoneLayout};
use newswire_repro::census::{self, Shape};
use rand::Rng;
use simnet::{fork, NetworkModel, NodeId, SimDuration, SimTime, Simulation};

const NODES: u32 = 2_560;
const BRANCHING: u16 = 16;
const POLL: SimDuration = SimDuration::from_millis(100);
const GIVE_UP: SimTime = SimTime::from_secs(600);
const STEADY: SimDuration = SimDuration::from_secs(30);

fn agent(sim: &Simulation<AstroNode>, i: u32) -> &Agent {
    &sim.node(NodeId(i)).agent
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let layout = ZoneLayout::new(NODES, BRANCHING);
    let config = Config { branching: BRANCHING, ..Config::standard() };
    let mut contact_rng = fork(seed, 99);
    let mut sim: Simulation<AstroNode> = Simulation::new(NetworkModel::default(), seed);
    for i in 0..NODES {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..NODES)).collect();
        sim.add_node(AstroNode::new(Agent::new(i, &layout, config.clone(), contacts)));
    }
    let full_view = |sim: &Simulation<AstroNode>, i: u32| {
        let members: i64 = agent(sim, i)
            .root_table()
            .iter()
            .filter_map(|(_, row)| row.get("nmembers").and_then(|v| v.as_i64()))
            .sum();
        members == i64::from(NODES)
    };
    let mut pending: Vec<u32> = (0..NODES).collect();
    while !pending.is_empty() && sim.now() < GIVE_UP {
        sim.run_until(sim.now() + POLL);
        pending.retain(|&i| !full_view(&sim, i));
    }
    assert!(pending.is_empty(), "{} nodes lack the full view at {GIVE_UP}", pending.len());
    let converged = sim.now();
    sim.run_for(STEADY);

    let mut sum = Footprint::default();
    for i in 0..NODES {
        let f = agent(&sim, i).footprint();
        sum.tables += f.tables;
        sum.detectors += f.detectors;
        sum.levels += f.levels;
        sum.agg_caches += f.agg_caches;
        sum.peers += f.peers;
        sum.rare += f.rare;
        sum.contacts += f.contacts;
    }
    let hub = sim.telemetry();
    let hub = hub.borrow();
    let rows = [
        ("astrolabe.agent_records", NODES as usize * std::mem::size_of::<Agent>()),
        ("astrolabe.tables", sum.tables),
        ("astrolabe.detectors", sum.detectors),
        ("astrolabe.levels", sum.levels),
        ("astrolabe.agg_caches", sum.agg_caches),
        ("astrolabe.peers", sum.peers),
        ("astrolabe.rare", sum.rare),
        ("astrolabe.contacts", sum.contacts),
        ("obs.node_metrics", hub.node_metrics_heap_bytes()),
        ("obs.trace_ring", hub.ring().heap_bytes()),
    ];
    println!(
        "# footprint census: {NODES} Astrolabe agents at branching {BRANCHING}, seed {seed}, \
         converged at {:.1} sim-s, read {:.0} sim-s later",
        converged.as_secs_f64(),
        STEADY.as_secs_f64()
    );
    println!("# <structure> <bytes over all nodes> <bytes per node>");
    let per_node = |bytes: usize| bytes as f64 / f64::from(NODES);
    for (name, bytes) in rows {
        println!("{name} {bytes} {:.1}", per_node(bytes));
    }
    let total: usize = rows.iter().map(|(_, b)| b).sum();
    println!("total {total} {:.1}", per_node(total));

    for shape in [Shape::PublishSteady, Shape::LossyRevisions] {
        let sim = census::run(shape, census::SUBSCRIBERS, seed);
        let nodes = sim.iter().count();
        println!(
            "# {}: {nodes} NewsWire nodes at branching {}, seed {seed}, read at {:.0} sim-s, \
             the end of the drain",
            shape.name(),
            census::BRANCHING,
            sim.now().as_secs_f64()
        );
        println!("# <structure> <bytes over all nodes> <bytes per node>");
        let rows = census::rows(shape, &sim);
        let per_node = |bytes: usize| bytes as f64 / nodes as f64;
        for (name, bytes) in &rows {
            println!("{name} {bytes} {:.1}", per_node(*bytes));
        }
        let total: usize = rows.iter().map(|(_, b)| b).sum();
        println!("{}.total {total} {:.1}", shape.name(), per_node(total));
    }
}
