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
//! We publish a stream of multicasts under per-message loss on the
//! region-structured WAN and histogram the short-horizon delivery ratio
//! for: raw pbcast (repair disabled), pbcast with repair, NewsWire's
//! first-pass tree (SendToZone, no acks, no anti-entropy) with k = 1 and
//! k = 2, and the shipped configuration (k = 2, acks and anti-entropy on).
//! pbcast runs over the NewsWire deployment's own network model and node
//! count.

use amcast::{PbcastConfig, PbcastMsg, PbcastNode};
use newswire::NewsWireConfig;
use simnet::{NetworkModel, NodeId, SimDuration, SimTime, Simulation};

use crate::experiments::support::{first_pass, slashdot, tech_item};
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

fn pbcast_ratios(net: NetworkModel, n: u32, repair: bool, seed: u64) -> Vec<f64> {
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

/// Per-item delivery ratio over the item's interested nodes.
fn newswire_ratios(n: u32, loss: f64, config: NewsWireConfig, seed: u64) -> Vec<f64> {
    let mut d = slashdot(n, config, seed).wan(loss).build();
    d.settle(60);
    let mut ratios = Vec::new();
    for m in 0..MCASTS {
        let at = SimTime::from_secs(60 + m * HORIZON_S);
        let item = tech_item(m);
        d.publish(at, item.clone());
        d.sim.run_until(at + SimDuration::from_secs(HORIZON_S));
        let interested = d.interested_nodes(&item);
        let got = interested.iter().filter(|&&id| d.sim.node(id).has_item(item.id)).count();
        ratios.push(got as f64 / interested.len().max(1) as f64);
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
        // The same network model, and as many nodes, as the deployment.
        let net = slashdot(n, first_pass(1), 0xE8).wan(loss).build().sim.network().clone();
        let rows: Vec<(&str, Vec<f64>)> = vec![
            ("pbcast raw", pbcast_ratios(net.clone(), n + 1, false, 0xE8)),
            ("pbcast+repair", pbcast_ratios(net, n + 1, true, 0xE8)),
            ("sendtozone k=1", newswire_ratios(n, loss, first_pass(1), 0xE8)),
            ("sendtozone k=2", newswire_ratios(n, loss, first_pass(2), 0xE8)),
            ("shipped", newswire_ratios(n, loss, NewsWireConfig::tech_news(), 0xE8)),
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
        "{n} subscribers + 1 publisher on the region-structured WAN, ratio measured \
         {HORIZON_S}s after each publish (NewsWire: over the item's interested nodes; pbcast: \
         over all nodes, same network); sendtozone = first-pass tree (acks and anti-entropy \
         off), shipped = k=2 with acks and anti-entropy; paper: SendToZone 'should have many \
         of the properties of Bimodal Multicast'"
    ));
    table.print();
}
