//! Integration test: Bimodal Multicast (the §5 yardstick) on a simulated
//! network.

use amcast::{PbcastConfig, PbcastMsg, PbcastNode};
use simnet::{NetworkModel, NodeId, SimDuration, SimTime, Simulation};

#[test]
fn pbcast_repair_reaches_almost_everyone_under_heavy_loss() {
    // Sanity version of E8's yardstick: under 30% loss, pbcast's gossip
    // repair rounds carry every multicast to almost every member.
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
