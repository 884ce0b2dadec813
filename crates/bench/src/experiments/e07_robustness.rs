//! E7 — redundant representatives vs forwarder failures.
//!
//! Paper basis (§9): "we use multiple representatives to forward a new
//! item, to increase the robustness of the delivery", with duplicates
//! removed via the publisher-assigned unique item id.
//!
//! We crash a growing fraction of nodes at the instant of publishing (the
//! worst case: the tree's tables still name the dead nodes as
//! representatives) and measure the delivery ratio among survivors for
//! k = 1, 2, 3 redundant representatives, plus the duplicate-suppression
//! work k costs. Cache repair is *not* running here — this isolates the
//! first-pass tree robustness.

use std::collections::HashSet;

use amcast::{FilterSpec, McastConfig, McastData, McastMsg, McastNode};
use astrolabe::{Agent, Config, ZoneId, ZoneLayout};
use bytes::Bytes;
use rand::Rng;
use simnet::{fork, NetworkModel, NodeId, SimTime, Simulation};

use crate::Table;

fn build(n: u32, k: usize, seed: u64) -> Simulation<McastNode> {
    let layout = ZoneLayout::new(n, 8);
    // Elect as many representatives per zone as the forwarding redundancy
    // uses, otherwise k > reps_per_zone silently degrades to the smaller.
    let mut aconfig = Config::with_reps(k);
    aconfig.branching = 8;
    let mut contact_rng = fork(seed, 99);
    let mut sim = Simulation::new(NetworkModel::default(), seed);
    for i in 0..n {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..n)).collect();
        let agent = Agent::new(i, &layout, aconfig.clone(), contacts);
        sim.add_node(McastNode::new(agent, McastConfig { redundancy: k, ..Default::default() }));
    }
    sim
}

/// Returns (survivor delivery ratio %, duplicates per delivery).
fn run_point(n: u32, fail_pct: u32, k: usize, seed: u64) -> (f64, f64) {
    let mut sim = build(n, k, seed);
    sim.run_until(SimTime::from_secs(60));
    let mut victim_rng = fork(seed, 7);
    // Vec keeps the crash schedule in draw order (deterministic); the set
    // makes dedup and the survivor scan O(1) per probe instead of O(n).
    let mut victims: Vec<u32> = Vec::new();
    let mut victim_set: HashSet<u32> = HashSet::new();
    while (victims.len() as u32) < n * fail_pct / 100 {
        let v = victim_rng.gen_range(1..n); // node 0 stays (origin)
        if victim_set.insert(v) {
            victims.push(v);
        }
    }
    for &v in &victims {
        sim.schedule_crash(SimTime::from_secs(60), NodeId(v));
    }
    let items = 5u64;
    for m in 0..items {
        let data = McastData {
            id: 1_000 + m,
            origin: 0,
            priority: 3,
            payload: Bytes::from_static(b"item"),
            filter: FilterSpec::All,
        };
        sim.schedule_external(
            SimTime::from_secs(60),
            NodeId(0),
            McastMsg::Publish { data, scope: ZoneId::root() },
        );
    }
    sim.run_until(SimTime::from_secs(75));
    let live: Vec<u32> = (0..n).filter(|i| !victim_set.contains(i)).collect();
    let mut delivered = 0u64;
    let mut dups = 0u64;
    let hub = sim.telemetry();
    let hub = hub.borrow();
    for &i in &live {
        let node = sim.node(NodeId(i));
        delivered += (1_000..1_000 + items).filter(|&m| node.has_delivered(m)).count() as u64;
        dups += hub.node_counter(i as usize, obs::ctr::MCAST_DUPES_DROPPED);
    }
    let expected = live.len() as u64 * items;
    (100.0 * delivered as f64 / expected as f64, dups as f64 / delivered.max(1) as f64)
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 256 } else { 1_024 };
    let fails: &[u32] = if quick { &[0, 20] } else { &[0, 10, 20, 30, 40] };
    let mut table = Table::new(
        "E7 — survivor delivery ratio when forwarders crash at publish time",
        &["failed %", "k=1 %", "k=2 %", "k=3 %", "dup/delivery k=3"],
    );
    for &f in fails {
        let (r1, _) = run_point(n, f, 1, 0xE7);
        let (r2, _) = run_point(n, f, 2, 0xE7);
        let (r3, d3) = run_point(n, f, 3, 0xE7);
        table.row(&[
            f.to_string(),
            format!("{r1:.1}"),
            format!("{r2:.1}"),
            format!("{r3:.1}"),
            format!("{d3:.2}"),
        ]);
    }
    table.caption(format!(
        "{n} nodes, branching 8, 5 items published the instant the nodes die, no cache repair; \
         paper: redundancy increases robustness, duplicates removed by item id"
    ));
    table.print();
}
