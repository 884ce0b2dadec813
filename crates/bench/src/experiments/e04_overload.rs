//! E4 — publisher overload / denial of service.
//!
//! Paper basis (abstract, §1): NewsWire "guarantees delivery even in the
//! face of publisher overload or denial of service attacks"; centralized
//! sites under overload "become completely useless …, failing even to
//! service a small percentage of the visitors" (the September 2001
//! observation).
//!
//! Left side: a centralized pull server with 200 req/s capacity under a
//! request flood of growing intensity; goodput = honest polls answered.
//! Right side: a NewsWire deployment whose publisher receives the same
//! flood as bogus publish requests (they fail authentication and flow
//! control); goodput = legitimate subscription deliveries.

use baselines::{AttackClient, FetchMode, WebClient, WebMsg, WebNode, WebServer};
use newsml::PublisherId;
use simnet::{NetworkModel, NodeId, SimDuration, SimTime, Simulation};

use crate::experiments::support::{newswire_deployment, tech_item};
use crate::Table;

const HONEST: u32 = 20;

/// Returns (honest answer rate %, server drop rate %).
fn central_under_attack(attack_rps: u64, seed: u64) -> (f64, f64) {
    let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(20)), seed);
    sim.add_node(WebNode::Server(WebServer::new(
        20,
        300,
        1_500,
        SimDuration::from_millis(5), // 200 req/s capacity
        100,
    )));
    for _ in 0..HONEST {
        sim.add_node(WebNode::Client(WebClient::new(
            NodeId(0),
            FetchMode::FullPage,
            SimDuration::from_secs(5),
        )));
    }
    if let Some(per_us) = (40 * 1_000_000u64).checked_div(attack_rps) {
        // 40 attackers sharing the target rate.
        for _ in 0..40 {
            sim.add_node(WebNode::Attacker(AttackClient::new(
                NodeId(0),
                SimDuration::from_micros(per_us),
            )));
        }
    }
    for s in 0..30 {
        sim.schedule_external(
            SimTime::from_secs(s * 2),
            NodeId(0),
            WebMsg::PublishStory { story: s },
        );
    }
    sim.run_until(SimTime::from_secs(120));
    let (mut fetches, mut timeouts) = (0u64, 0u64);
    for i in 1..=HONEST {
        let WebNode::Client(c) = sim.node(NodeId(i)) else { unreachable!() };
        fetches += c.stats.fetches;
        timeouts += c.stats.timeouts;
    }
    let WebNode::Server(s) = sim.node(NodeId(0)) else { unreachable!() };
    let offered = s.stats.served + s.stats.dropped;
    (
        100.0 * (fetches - timeouts) as f64 / fetches.max(1) as f64,
        100.0 * s.stats.dropped as f64 / offered.max(1) as f64,
    )
}

/// Returns (legit delivery %, bogus rejected count).
fn newswire_under_attack(attack_rps: u64, n: u32, seed: u64) -> (f64, u64) {
    let mut d = newswire_deployment(n, 16, seed);
    d.settle(60);
    let publisher = d.publisher_node(PublisherId(0));
    let attack_window_s = 60u64;
    if attack_rps > 0 {
        let total = attack_rps * attack_window_s;
        let gap = attack_window_s * 1_000_000 / total.max(1);
        for i in 0..total {
            let bogus = newsml::NewsItem::builder(PublisherId(5), i).headline("junk").build();
            d.sim.schedule_external(
                SimTime::from_micros(60_000_000 + i * gap),
                publisher,
                newswire::NewsWireMsg::PublishRequest { item: bogus, scope: None, predicate: None },
            );
        }
    }
    let mut items = Vec::new();
    for s in 0..10u64 {
        let item = tech_item(s);
        d.publish(SimTime::from_secs(62 + s * 4), item.clone());
        items.push(item);
    }
    d.settle(attack_window_s + 40);
    let (mut wanted, mut got) = (0usize, 0usize);
    for item in &items {
        wanted += d.interested_nodes(item).len();
        got += d.delivered_nodes(item).len();
    }
    let rejected =
        d.sim.telemetry().borrow().node_counter(publisher.index(), obs::ctr::NW_PUBLISH_DENIED);
    (100.0 * got as f64 / wanted.max(1) as f64, rejected)
}

pub(crate) fn run(quick: bool) {
    let rates: &[u64] = if quick { &[0, 2_000] } else { &[0, 200, 2_000, 20_000] };
    let n = if quick { 150 } else { 300 };
    let mut table = Table::new(
        "E4 — goodput under request flood (server capacity 200 req/s)",
        &[
            "attack req/s",
            "central answered %",
            "central dropped %",
            "newswire delivered %",
            "bogus rejected",
        ],
    );
    for &rps in rates {
        let (answered, dropped) = central_under_attack(rps, 0xE4);
        let (delivered, rejected) = newswire_under_attack(rps, n, 0xE4);
        table.row(&[
            rps.to_string(),
            format!("{answered:.0}"),
            format!("{dropped:.0}"),
            format!("{delivered:.0}"),
            rejected.to_string(),
        ]);
    }
    table.caption(
        "paper: centralized sites fail under overload while NewsWire keeps delivering; \
         shape: central goodput collapses with attack rate, newswire stays at 100%",
    );
    table.print();
}
