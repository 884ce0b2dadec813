//! Workspace-level integration tests: exercise the public API across every
//! crate together, the way the examples do.

use newsml::{Category, NewsItem, PublisherId, PublisherProfile, TraceGenerator};
use newswire::{tech_news_deployment, DeploymentBuilder, PublisherSpec};
use simnet::{fork, NodeId, SimDuration, SimTime};

#[test]
fn quickstart_flow() {
    let mut d = tech_news_deployment(60, 1);
    d.settle(60);
    let item = NewsItem::builder(PublisherId(0), 0)
        .headline("integration")
        .category(Category::Technology)
        .build();
    d.publish(SimTime::from_secs(60), item.clone());
    d.settle(20);
    assert_eq!(d.interested_nodes(&item), d.delivered_nodes(&item));
}

#[test]
fn generated_trace_flows_end_to_end() {
    let mut d = tech_news_deployment(80, 2);
    d.settle(60);
    let generator = TraceGenerator::new(vec![PublisherProfile::slashdot(PublisherId(0))]);
    let mut rng = fork(2, 0);
    // Half a simulated hour of trace.
    let events = generator.generate(&mut rng, 1_800_000_000);
    let t0 = d.sim.now();
    for ev in &events {
        d.publish(t0 + SimDuration::from_micros(ev.at_us), ev.item.clone());
    }
    d.settle(1_800 + 40);
    // Ground truth: every (item, interested node) pair delivered.
    let wanted: usize = events.iter().map(|e| d.interested_nodes(&e.item).len()).sum();
    let got: usize = events.iter().map(|e| d.delivered_nodes(&e.item).len()).sum();
    assert_eq!(wanted, got, "trace delivery incomplete");
    assert_eq!(d.counter(obs::ctr::NW_AUTH_REJECTS), 0);
    assert_eq!(d.counter(obs::ctr::NW_ROUTE_FAILURES), 0);
}

#[test]
fn rss_agent_feeds_deployment() {
    use newswire::{RssChannel, RssEntry, RssIngestAgent};
    let mut d = tech_news_deployment(40, 3);
    d.settle(60);
    let mut agent = RssIngestAgent::new(PublisherId(0), Category::Technology);
    let channel = RssChannel {
        title: "feed".into(),
        entries: (0..6)
            .map(|g| RssEntry {
                title: format!("t{g}"),
                link: format!("l{g}"),
                guid: format!("g{g}"),
                category: Some("technology".into()),
            })
            .collect(),
    };
    let items = agent.ingest(&RssChannel::from_xml(&channel.to_xml()).unwrap());
    assert_eq!(items.len(), 6);
    for item in &items {
        d.publish(SimTime::from_secs(60), item.clone());
    }
    d.settle(20);
    for item in &items {
        assert_eq!(d.interested_nodes(item), d.delivered_nodes(item));
    }
}

#[test]
fn wan_loss_with_repair_eventually_delivers_everything() {
    let mut d = DeploymentBuilder::new(120, 4)
        .branching(8)
        .wan(0.03)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(90);
    let items: Vec<_> = (0..8u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("wan {s}"))
                .category(Category::Technology)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(90 + i as u64), item.clone());
    }
    d.settle(120);
    for item in &items {
        let wanted = d.interested_nodes(item);
        let got = d.delivered_nodes(item);
        assert_eq!(wanted, got, "item {} incomplete under loss", item.id);
    }
}

#[test]
fn nitf_xml_is_a_faithful_wire_format_for_the_whole_model() {
    // Generate a diverse trace and round-trip every item through NITF XML.
    let generator = TraceGenerator::new(vec![
        PublisherProfile::reuters(PublisherId(0)),
        PublisherProfile::slashdot(PublisherId(1)),
    ]);
    let mut rng = fork(5, 0);
    let events = generator.generate(&mut rng, 4 * 3_600_000_000);
    assert!(!events.is_empty());
    for ev in &events {
        let xml = newsml::to_nitf_xml(&ev.item);
        let back = newsml::from_nitf_xml(&xml).unwrap();
        assert_eq!(back, ev.item);
    }
}

#[test]
fn determinism_across_full_stack() {
    let run = |seed: u64| {
        let mut d = tech_news_deployment(50, seed);
        d.settle(60);
        let item = NewsItem::builder(PublisherId(0), 0)
            .headline("det")
            .category(Category::Technology)
            .build();
        d.publish(SimTime::from_secs(60), item.clone());
        d.settle(20);
        let mut delivered = d.delivered_nodes(&item);
        delivered.sort();
        (delivered, d.sim.total_counters().msgs_sent, d.sim.total_counters().bytes_sent)
    };
    assert_eq!(run(77), run(77), "same seed must reproduce the identical run");
}

#[test]
fn crashed_region_recovers_and_catches_up() {
    let mut d = tech_news_deployment(60, 6);
    d.settle(60);
    // Take down a whole leaf zone's worth of consecutive nodes.
    let victims: Vec<NodeId> = (20..26).map(NodeId).collect();
    for &v in &victims {
        d.sim.schedule_crash(SimTime::from_secs(60), v);
    }
    let item = NewsItem::builder(PublisherId(0), 0)
        .headline("missed")
        .category(Category::Technology)
        .build();
    d.publish(SimTime::from_secs(65), item.clone());
    d.settle(30);
    for &v in &victims {
        d.sim.schedule_recover(SimTime::from_secs(95), v);
    }
    d.settle(150);
    for &v in &victims {
        if d.sim.node(v).subscription.matches(&item) {
            assert!(d.sim.node(v).has_item(item.id), "node {v} did not catch up");
        }
    }
}

/// The multi-batch blind catch-up: a whole leaf zone goes down through a
/// backlog longer than one reply batch (100 articles, batch 64) and nothing
/// is published after it recovers. No neighbour's digest is ahead — they
/// are all as cold — so each member asks across the zone boundary with an
/// empty log, and keeps asking while the replies show the responder ahead.
#[test]
fn a_crashed_zone_catches_up_a_backlog_longer_than_one_batch() {
    let mut d = tech_news_deployment(60, 6);
    d.settle(60);
    let victims: Vec<NodeId> = (16..24).map(NodeId).collect(); // leaf zone /2, all of it
    for &v in &victims {
        d.sim.schedule_crash(SimTime::from_secs(60), v);
    }
    let items: Vec<NewsItem> = (0..100u64)
        .map(|seq| {
            NewsItem::builder(PublisherId(0), seq)
                .headline(format!("backlog {seq}"))
                .category(Category::Technology)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_micros(65_000_000 + 500_000 * i as u64), item.clone());
    }
    d.settle(60);
    for &v in &victims {
        d.sim.schedule_recover(SimTime::from_secs(125), v);
    }
    d.settle(150);
    let mut matching = 0;
    for &v in &victims {
        let node = d.sim.node(v);
        for item in items.iter().filter(|i| node.subscription.matches(i)) {
            assert!(node.has_item(item.id), "node {v} did not catch up {}", item.id);
            matching += 1;
        }
    }
    assert!(matching > 0, "workload should create interest in the crashed zone");
}

#[test]
fn xmlrpc_gateway_end_to_end() {
    use newswire::xmlrpc::{dispatch, MethodCall, Value};

    let mut d = tech_news_deployment(40, 8);
    d.settle(60);

    // An external aggregator hands an article to the publisher node over
    // XML-RPC; the gateway decodes it and the host feeds the publish
    // request into the simulation.
    let item = NewsItem::builder(PublisherId(0), 0)
        .headline("Pushed over XML-RPC")
        .category(Category::Technology)
        .build();
    let call = MethodCall::new("newswire.publish", vec![Value::Str(newsml::to_nitf_xml(&item))]);
    let publisher_node = d.publisher_node(PublisherId(0));
    let mut to_publish = Vec::new();
    let resp = dispatch(d.sim.node(publisher_node), &call.to_xml(), |i| to_publish.push(i));
    assert!(resp.contains("p0:0"), "{resp}");
    let now = d.sim.now();
    for i in to_publish {
        d.publish(now, i);
    }
    d.settle(20);
    assert_eq!(d.interested_nodes(&item), d.delivered_nodes(&item));

    // A subscriber's aggregator pulls the latest items from its local cache.
    let reader = *d.interested_nodes(&item).first().expect("someone subscribed");
    let latest = MethodCall::new("newswire.latest", vec![Value::Int(5)]);
    let resp = dispatch(d.sim.node(reader), &latest.to_xml(), |_| {});
    assert!(resp.contains("Pushed over XML-RPC"), "{resp}");
}

/// The paper's §9 forwarding log is the telemetry trace: one article's
/// publish, hand-offs and deliveries can be read back from the hub's ring.
#[test]
fn forwarding_log_traces_an_item() {
    use obs::{kind, Layer};
    use std::collections::BTreeSet;

    let mut d = tech_news_deployment(60, 9);
    d.settle(60);
    d.sim.drain_telemetry();
    let item = NewsItem::builder(PublisherId(0), 0)
        .headline("traced")
        .category(Category::Technology)
        .build();
    d.publish(SimTime::from_secs(60), item.clone());
    d.settle(20);

    let key = newswire::trace_key(item.id);
    let publisher = d.publisher_node(PublisherId(0)).0;
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    assert_eq!(hub.ring().dropped(), 0, "the window's trace is whole");
    let trace = hub.ring().ordered();
    let news = |k: u8| trace.iter().filter(move |e| e.layer == Layer::News && e.kind == k);
    // The publisher traces its publish, then one armed hand-off per
    // representative: `a` is the item's trace key, `b` the representative, and
    // an ack names the pair it settles (the first of a zone's
    // representatives to ack settles the zone).
    let published: Vec<_> = news(kind::NW_PUBLISH).filter(|e| e.a == key).collect();
    assert_eq!(published.len(), 1, "one publish");
    assert_eq!(published[0].node, publisher);
    let at_publisher = |k: u8| {
        news(k)
            .filter(|e| e.node == publisher)
            .inspect(|e| {
                assert_eq!(e.a, key, "{}: a is the item's trace key", kind::name(k));
                assert!(e.t_us > published[0].t_us, "{} follows the publish", kind::name(k));
            })
            .map(|e| e.b)
            .collect::<BTreeSet<_>>()
    };
    let armed = at_publisher(kind::HANDOFF_ARM);
    assert!(!armed.is_empty(), "publisher must trace hand-offs");
    assert!(!armed.contains(&u64::from(publisher)));
    let acked = at_publisher(kind::HANDOFF_ACK);
    assert!(!acked.is_empty() && acked.is_subset(&armed), "b is the representative");
    // Every subscriber that has the article traced its delivery, once.
    let mut delivered: Vec<u32> =
        news(kind::NW_DELIVER).filter(|e| e.a == key).map(|e| e.node).collect();
    delivered.sort_unstable();
    let holders: Vec<u32> = d.delivered_nodes(&item).iter().map(|n| n.0).collect();
    assert!(!holders.is_empty());
    assert_eq!(delivered, holders);
}
