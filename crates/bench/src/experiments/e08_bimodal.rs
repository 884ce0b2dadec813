//! E8 — delivery-ratio distribution vs Bimodal Multicast.
//!
//! Paper basis (§5): "the protocol thus obtained should have many of the
//! properties of Bimodal Multicast, a peer-to-peer reliable multicast
//! protocol developed by our group several years ago."
//!
//! pbcast's signature is the *shape* of the per-multicast delivery-ratio
//! distribution: after its gossip repair phase, almost every multicast
//! reaches almost everyone (mass piled at 1.0) instead of spreading over
//! intermediate ratios the way a raw lossy tree or raw IP multicast does.
//! We publish a stream of multicasts under per-message loss and histogram
//! the short-horizon delivery ratio for: raw pbcast (repair disabled),
//! pbcast with repair, and Astrolabe SendToZone with k = 1 and k = 2.

use amcast::{FilterSpec, McastData, McastMsg, McastNode, PbcastConfig, PbcastMsg, PbcastNode};
use astrolabe::{Agent, Config, ZoneId, ZoneLayout};
use bytes::Bytes;
use rand::Rng;
use simnet::{fork, NetworkModel, NodeId, SimDuration, SimTime, Simulation};

use crate::Table;

const MCASTS: u64 = 30;
const HORIZON_S: u64 = 8; // measurement window after each publish

fn histogram(ratios: &[f64]) -> [usize; 4] {
    let mut h = [0usize; 4];
    for &r in ratios {
        let b = if r < 0.5 {
            0
        } else if r < 0.9 {
            1
        } else if r < 0.99 {
            2
        } else {
            3
        };
        h[b] += 1;
    }
    h
}

fn pbcast_ratios(n: u32, loss: f64, repair: bool, seed: u64) -> Vec<f64> {
    let mut net = NetworkModel::ideal(SimDuration::from_millis(15));
    net.drop_prob = loss;
    let membership: Vec<u32> = (0..n).collect();
    let cfg = PbcastConfig { fanout: if repair { 2 } else { 0 }, ..PbcastConfig::default() };
    let mut sim = Simulation::new(net, seed);
    for _ in 0..n {
        sim.add_node(PbcastNode::new(membership.clone(), cfg.clone()));
    }
    let mut ratios = Vec::new();
    for m in 0..MCASTS {
        let at = SimTime::from_secs(1 + m * HORIZON_S);
        sim.schedule_external(
            at,
            NodeId((m % u64::from(n)) as u32),
            PbcastMsg::Publish { id: m, len: 256 },
        );
        sim.run_until(at + SimDuration::from_secs(HORIZON_S));
        let got = sim.iter().filter(|(_, node)| node.has_delivered(m)).count();
        ratios.push(got as f64 / f64::from(n));
    }
    ratios
}

fn astrolabe_ratios(n: u32, loss: f64, k: usize, seed: u64) -> Vec<f64> {
    let layout = ZoneLayout::new(n, 8);
    let mut aconfig = Config::standard();
    aconfig.branching = 8;
    let mut net = NetworkModel::ideal(SimDuration::from_millis(15));
    net.drop_prob = loss;
    let mut contact_rng = fork(seed, 99);
    let mut sim = Simulation::new(net, seed);
    for i in 0..n {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..n)).collect();
        let agent = Agent::new(i, &layout, aconfig.clone(), contacts);
        sim.add_node(McastNode::new(agent, k));
    }
    sim.run_until(SimTime::from_secs(60));
    let mut ratios = Vec::new();
    for m in 0..MCASTS {
        let at = SimTime::from_secs(60 + m * HORIZON_S);
        let data = McastData {
            id: m,
            origin: (m % u64::from(n)) as u32,
            priority: 3,
            payload: Bytes::from_static(b"item"),
            filter: FilterSpec::All,
        };
        sim.schedule_external(
            at,
            NodeId((m % u64::from(n)) as u32),
            McastMsg::Publish { data, scope: ZoneId::root() },
        );
        sim.run_until(at + SimDuration::from_secs(HORIZON_S));
        let got = sim.iter().filter(|(_, node)| node.has_delivered(m)).count();
        ratios.push(got as f64 / f64::from(n));
    }
    ratios
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 128 } else { 256 };
    let losses: &[f64] = if quick { &[0.15] } else { &[0.05, 0.15, 0.30] };
    let mut table = Table::new(
        "E8 — per-multicast delivery-ratio histogram (30 multicasts each)",
        &["loss %", "protocol", "<50%", "50-90%", "90-99%", "≥99%", "median"],
    );
    for &loss in losses {
        let rows: Vec<(&str, Vec<f64>)> = vec![
            ("pbcast raw", pbcast_ratios(n, loss, false, 0xE8)),
            ("pbcast+repair", pbcast_ratios(n, loss, true, 0xE8)),
            ("sendtozone k=1", astrolabe_ratios(n, loss, 1, 0xE8)),
            ("sendtozone k=2", astrolabe_ratios(n, loss, 2, 0xE8)),
        ];
        for (name, mut ratios) in rows {
            let h = histogram(&ratios);
            ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = ratios[ratios.len() / 2];
            table.row(&[
                format!("{:.0}", loss * 100.0),
                name.to_string(),
                h[0].to_string(),
                h[1].to_string(),
                h[2].to_string(),
                h[3].to_string(),
                format!("{median:.3}"),
            ]);
        }
    }
    table.caption(format!(
        "{n} nodes, ratio measured {HORIZON_S}s after each publish; paper: SendToZone 'should \
         have many of the properties of Bimodal Multicast' — with k=2 its mass concentrates \
         in the top bucket like repaired pbcast, while raw pbcast sits at ~(1-loss)"
    ));
    table.print();
}
