//! Publisher overload and denial of service (paper §1 / abstract): "Internet
//! news sites become completely useless under overload, failing even to
//! service a small percentage of the visitors", while NewsWire "guarantees
//! delivery even in the face of publisher overload or denial of service
//! attacks".
//!
//! Side by side: a centralized pull server under a request flood versus a
//! NewsWire deployment whose publisher receives the same flood of bogus
//! publish requests.
//!
//! Run with: `cargo run --release --example overload`

use baselines::{AttackClient, FetchMode, WebClient, WebMsg, WebNode, WebServer};
use newsml::{Category, NewsItem, PublisherId};
use newswire::tech_news_deployment;
use simnet::{NetworkModel, NodeId, SimDuration, SimTime, Simulation};

fn main() {
    // --- centralized pull under flood -------------------------------------
    println!("centralized server, 20 honest pollers, 200 attackers:");
    let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(20)), 5);
    sim.add_node(WebNode::Server(WebServer::new(
        20,
        300,
        1_500,
        SimDuration::from_millis(5), // 200 req/s capacity
        50,
    )));
    for _ in 0..20 {
        sim.add_node(WebNode::Client(WebClient::new(
            NodeId(0),
            FetchMode::FullPage,
            SimDuration::from_secs(5),
        )));
    }
    for _ in 0..200 {
        sim.add_node(WebNode::Attacker(AttackClient::new(NodeId(0), SimDuration::from_millis(50))));
    }
    for s in 0..30 {
        sim.schedule_external(
            SimTime::from_secs(s * 2),
            NodeId(0),
            WebMsg::PublishStory { story: s },
        );
    }
    sim.run_until(SimTime::from_secs(60));
    let WebNode::Server(server) = sim.node(NodeId(0)) else { unreachable!() };
    println!(
        "  server: served {}  dropped {} ({:.0}% of offered load)",
        server.stats.served,
        server.stats.dropped,
        100.0 * server.stats.dropped as f64
            / (server.stats.served + server.stats.dropped).max(1) as f64
    );
    let (mut fetches, mut timeouts) = (0u64, 0u64);
    for i in 1..=20u32 {
        let WebNode::Client(c) = sim.node(NodeId(i)) else { unreachable!() };
        fetches += c.stats.fetches;
        timeouts += c.stats.timeouts;
    }
    println!(
        "  honest clients: {timeouts} of {fetches} polls timed out ({:.0}%)",
        100.0 * timeouts as f64 / fetches.max(1) as f64
    );

    // --- NewsWire under the same flood -------------------------------------
    println!("\nNewsWire, same story rate, 200 bogus publish requests/s at the publisher:");
    let mut d = tech_news_deployment(120, 5);
    d.settle(60);
    let publisher = d.publisher_node(PublisherId(0));
    // The attack: unauthenticated publish requests hammering the publisher
    // node (they fail certificate/flow checks and cost almost nothing).
    for i in 0..12_000u64 {
        let bogus = NewsItem::builder(PublisherId(9), i).headline("junk").build();
        d.sim.schedule_external(
            SimTime::from_micros(60_000_000 + i * 5_000),
            publisher,
            newswire::NewsWireMsg::PublishRequest { item: bogus, scope: None, predicate: None },
        );
    }
    // Legitimate stories continue during the attack.
    let mut items = Vec::new();
    for s in 0..10u64 {
        let item = NewsItem::builder(PublisherId(0), s)
            .headline(format!("Legit story {s}"))
            .category(Category::Technology)
            .build();
        d.publish(SimTime::from_secs(62 + s * 5), item.clone());
        items.push(item);
    }
    d.settle(80);
    let denied =
        d.sim.telemetry().borrow().node_counter(publisher.index(), obs::ctr::NW_PUBLISH_DENIED);
    let mut delivered = 0usize;
    let mut wanted = 0usize;
    for item in &items {
        wanted += d.interested_nodes(item).len();
        delivered += d.delivered_nodes(item).len();
    }
    println!("  bogus requests rejected: {denied}");
    println!("  legitimate deliveries: {delivered} of {wanted} interested subscriptions");
    assert_eq!(delivered, wanted, "attack must not impair delivery");
    println!("ok");
}
