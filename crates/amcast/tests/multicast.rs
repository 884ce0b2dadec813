//! Integration tests: SendToZone dissemination on full simulated networks.

use amcast::{
    FilterSpec, McastConfig, McastData, McastMsg, McastNode, PbcastConfig, PbcastMsg, PbcastNode,
};
use astrolabe::{Agent, AttrValue, Config, ZoneId, ZoneLayout};
use bytes::Bytes;
use filters::BitArray;
use simnet::{fork, NetworkModel, NodeId, SimDuration, SimTime, Simulation};

fn build(
    n: u32,
    branching: u16,
    cfg: McastConfig,
    net: NetworkModel,
    seed: u64,
) -> Simulation<McastNode> {
    let layout = ZoneLayout::new(n, branching);
    let mut aconfig = Config::standard();
    aconfig.branching = branching;
    let mut contact_rng = fork(seed, 999);
    let mut sim = Simulation::new(net, seed);
    for i in 0..n {
        let contacts: Vec<u32> =
            (0..3).map(|_| rand::Rng::gen_range(&mut contact_rng, 0..n)).collect();
        let agent = Agent::new(i, &layout, aconfig.clone(), contacts);
        sim.add_node(McastNode::new(agent, cfg.clone()));
    }
    sim
}

fn publish_all(sim: &mut Simulation<McastNode>, at: SimTime, origin: u32, id: u64) {
    let data = McastData {
        id,
        origin,
        priority: 3,
        payload: Bytes::from_static(b"item"),
        filter: FilterSpec::All,
    };
    sim.schedule_external(at, NodeId(origin), McastMsg::Publish { data, scope: ZoneId::root() });
}

fn delivered(sim: &Simulation<McastNode>, id: u64) -> usize {
    sim.iter().filter(|(_, n)| n.has_delivered(id)).count()
}

#[test]
fn full_dissemination_three_levels() {
    let mut sim = build(120, 5, McastConfig::default(), NetworkModel::default(), 1);
    sim.run_until(SimTime::from_secs(45));
    publish_all(&mut sim, SimTime::from_secs(45), 17, 1000);
    sim.run_until(SimTime::from_secs(55));
    assert_eq!(delivered(&sim, 1000), 120);
}

#[test]
fn delivery_latency_is_seconds_not_minutes() {
    let mut sim = build(64, 4, McastConfig::default(), NetworkModel::default(), 2);
    sim.run_until(SimTime::from_secs(45));
    let t0 = SimTime::from_secs(45);
    publish_all(&mut sim, t0, 0, 2000);
    sim.run_until(SimTime::from_secs(60));
    let mut worst = SimDuration::ZERO;
    for (_, node) in sim.iter() {
        let (_, at) = node.deliveries.iter().find(|&&(id, _)| id == 2000).expect("delivered");
        worst = worst.max(at.saturating_since(t0));
    }
    assert!(worst < SimDuration::from_secs(5), "worst latency {worst}");
}

#[test]
fn bloom_filtering_prunes_uninterested_subtrees() {
    // Leaf nodes publish a subscription bit array as `subs`; the deployment
    // installs an ORBITS aggregation; only matching members deliver.
    let n = 48;
    let layout = ZoneLayout::new(n, 4);
    let mut aconfig = Config::standard();
    aconfig.branching = 4;
    aconfig.aggregations.push(astrolabe::AggSpec::new("subs", "SELECT ORBITS(subs) AS subs"));
    let mut sim = Simulation::new(NetworkModel::default(), 7);
    let mut contact_rng = fork(7, 999);
    for i in 0..n {
        let contacts: Vec<u32> =
            (0..3).map(|_| rand::Rng::gen_range(&mut contact_rng, 0..n)).collect();
        let mut agent = Agent::new(i, &layout, aconfig.clone(), contacts);
        let mut bits = BitArray::new(64);
        if i % 5 == 0 {
            bits.set(9); // every 5th node subscribes to "bit 9"
        }
        bits.set(10 + usize::from(i as u16 % 54)); // noise bits, disjoint from bit 9
        agent.set_local_attr("subs", AttrValue::Bits(bits));
        sim.add_node(McastNode::new(agent, McastConfig::default()));
    }
    sim.run_until(SimTime::from_secs(60));
    let data = McastData {
        id: 3000,
        origin: 0,
        priority: 3,
        payload: Bytes::from_static(b"tech"),
        filter: FilterSpec::BloomPositions { attr: "subs".into(), positions: vec![9] },
    };
    sim.schedule_external(
        SimTime::from_secs(60),
        NodeId(0),
        McastMsg::Publish { data, scope: ZoneId::root() },
    );
    sim.run_until(SimTime::from_secs(70));
    for (id, node) in sim.iter() {
        let should = id.0 % 5 == 0;
        assert_eq!(node.has_delivered(3000), should, "node {id} subscription mismatch");
    }
}

#[test]
fn scoped_publish_stays_inside_zone() {
    // E9's property: publishing into a sub-zone must not leak outside it.
    let n = 64u32;
    let mut sim = build(n, 4, McastConfig::default(), NetworkModel::default(), 11);
    sim.run_until(SimTime::from_secs(45));
    let layout = ZoneLayout::new(n, 4);
    // Publish into the top-level zone containing node 20 ("Asia").
    let scope = layout.leaf_zone(20).ancestor_at(1);
    let inside = layout.agents_under(&scope);
    let data = McastData {
        id: 4000,
        origin: 20,
        priority: 3,
        payload: Bytes::from_static(b"regional"),
        filter: FilterSpec::All,
    };
    sim.schedule_external(
        SimTime::from_secs(45),
        NodeId(20),
        McastMsg::Publish { data, scope: scope.clone() },
    );
    sim.run_until(SimTime::from_secs(55));
    for (id, node) in sim.iter() {
        let should = inside.contains(&id.0);
        assert_eq!(node.has_delivered(4000), should, "containment violated at {id}");
    }
    assert_eq!(delivered(&sim, 4000), inside.len());
}

#[test]
fn redundant_reps_survive_forwarder_failures() {
    // Kill a slice of nodes right at publish time; with k=2 redundancy the
    // remaining forwarders still cover (almost) every live subscriber.
    let n = 96u32;
    let cfg = McastConfig { redundancy: 2, ..Default::default() };
    let mut sim = build(n, 4, cfg, NetworkModel::default(), 13);
    sim.run_until(SimTime::from_secs(45));
    // Crash 10 random-ish non-origin nodes (spread deterministically).
    let victims: Vec<u32> = (0..n).filter(|i| i % 9 == 3).collect();
    for &v in &victims {
        sim.schedule_crash(SimTime::from_secs(45), NodeId(v));
    }
    publish_all(&mut sim, SimTime::from_secs(45), 0, 5000);
    sim.run_until(SimTime::from_secs(55));
    let live: Vec<u32> = (0..n).filter(|i| !victims.contains(i)).collect();
    let got = live.iter().filter(|&&i| sim.node(NodeId(i)).has_delivered(5000)).count();
    let ratio = got as f64 / live.len() as f64;
    assert!(ratio >= 0.9, "only {got}/{} live nodes delivered", live.len());
}

#[test]
fn duplicates_are_suppressed_not_delivered_twice() {
    let cfg = McastConfig { redundancy: 3, ..Default::default() };
    let mut sim = build(32, 4, cfg, NetworkModel::default(), 17);
    sim.run_until(SimTime::from_secs(45));
    publish_all(&mut sim, SimTime::from_secs(45), 0, 6000);
    sim.run_until(SimTime::from_secs(55));
    for (_, node) in sim.iter() {
        let copies = node.deliveries.iter().filter(|&&(id, _)| id == 6000).count();
        assert!(copies <= 1, "double delivery");
    }
    let dup_drops = sim.telemetry().borrow().counter_total(obs::ctr::MCAST_DUPES_DROPPED);
    assert_eq!(delivered(&sim, 6000), 32);
    assert!(dup_drops > 0, "k=3 must actually produce suppressed duplicates");
}

#[test]
fn pbcast_is_bimodal_under_heavy_loss_astrolabe_mcast_hits_interior() {
    // Sanity version of E8's headline comparison: under heavy loss and NO
    // repair rounds (buffer flushed instantly), pbcast per-multicast
    // delivery fractions spread; with repair they concentrate near 1.
    let n = 40u32;
    let mut net = NetworkModel::ideal(SimDuration::from_millis(15));
    net.drop_prob = 0.3;
    let membership: Vec<u32> = (0..n).collect();
    let mut sim = Simulation::new(net, 23);
    for _ in 0..n {
        sim.add_node(PbcastNode::new(membership.clone(), PbcastConfig::default()));
    }
    for m in 0..20u64 {
        sim.schedule_external(
            SimTime::from_secs(1 + m),
            NodeId((m % u64::from(n)) as u32),
            PbcastMsg::Publish { id: m, len: 64 },
        );
    }
    sim.run_until(SimTime::from_secs(60));
    for m in 0..20u64 {
        let frac = sim.iter().filter(|(_, node)| node.has_delivered(m)).count() as f64 / n as f64;
        assert!(frac > 0.95, "msg {m} delivered to {frac}");
    }
}
