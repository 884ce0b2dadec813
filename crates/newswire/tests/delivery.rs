//! Full-stack integration tests: publish → gossip-built tree → selective
//! forwarding → exact leaf matching → cache/repair.

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile, Subject};
use newswire::{
    check_invariants, tech_news_deployment, DeploymentBuilder, NewsWireConfig, PublisherSpec,
    SubscriptionModel,
};
use simnet::{NodeId, SimTime};

fn tech_item(seq: u64) -> NewsItem {
    NewsItem::builder(PublisherId(0), seq)
        .headline(format!("Tech story {seq}"))
        .category(Category::Technology)
        .subject(Subject::new(vec![u16::from(Category::Technology.bit()) + 1]))
        .build()
}

#[test]
fn exact_interest_set_receives_item() {
    let mut d = tech_news_deployment(80, 1);
    d.settle(60);
    let item = tech_item(0);
    d.publish(SimTime::from_secs(60), item.clone());
    d.settle(30);
    let interested = d.interested_nodes(&item);
    let delivered = d.delivered_nodes(&item);
    assert!(!interested.is_empty(), "workload should create interest");
    assert_eq!(interested, delivered, "delivery set must equal interest set");
}

#[test]
fn multiple_items_latency_within_tens_of_seconds() {
    let mut d = tech_news_deployment(100, 2);
    d.settle(60);
    for seq in 0..10 {
        d.publish(SimTime::from_secs(60 + seq), tech_item(seq));
    }
    d.settle(40);
    let mut lat = d.delivery_latency_summary();
    assert!(!lat.is_empty(), "no deliveries recorded");
    assert!(lat.quantile(0.5) < 5.0, "p50 {}s", lat.quantile(0.5));
    assert!(lat.max() < 30.0, "max {}s — must stay within tens of seconds", lat.max());
}

#[test]
fn publisher_load_is_constant_in_subscribers() {
    // E2's core claim at test scale: publisher traffic does not grow with
    // the audience.
    let mut sent = Vec::new();
    for &n in &[40u32, 160] {
        let mut d = tech_news_deployment(n, 3);
        d.settle(60);
        let publisher = d.publisher_node(PublisherId(0));
        let before = d.sim.counters(publisher).bytes_sent;
        for seq in 0..5 {
            d.publish(SimTime::from_secs(60), tech_item(seq));
        }
        d.settle(20);
        let after = d.sim.counters(publisher).bytes_sent;
        sent.push((after - before) as f64);
    }
    let growth = sent[1] / sent[0].max(1.0);
    assert!(growth < 3.0, "publisher bytes grew {growth}x for 4x subscribers");
}

#[test]
fn forged_publisher_is_rejected_everywhere() {
    let mut d = tech_news_deployment(40, 4);
    d.settle(60);
    // An item claiming to come from publisher 0 is injected at a non-
    // publisher node: the node refuses to originate it.
    let item = tech_item(99);
    let victim = NodeId(20);
    d.sim.schedule_external(
        SimTime::from_secs(60),
        victim,
        newswire::NewsWireMsg::PublishRequest { item: item.clone(), scope: None, predicate: None },
    );
    d.settle(20);
    assert!(d.delivered_nodes(&item).is_empty());
    assert!(
        d.sim.telemetry().borrow().node_counter(victim.index(), obs::ctr::NW_PUBLISH_DENIED) > 0
    );
}

#[test]
fn flow_control_limits_flooding_publisher() {
    let mut d = DeploymentBuilder::new(30, 5)
        .branching(8)
        .publisher(PublisherSpec {
            profile: PublisherProfile::slashdot(PublisherId(0)),
            scope: astrolabe::ZoneId::root(),
            rate_per_min: 60, // 1/s sustained
            burst: 5,
        })
        .build();
    d.settle(60);
    // Fire 50 publish requests in one instant: only the burst passes.
    for seq in 0..50 {
        d.publish(SimTime::from_secs(60), tech_item(seq));
    }
    d.settle(10);
    let publisher = d.sim.node(d.publisher_node(PublisherId(0))).publisher().unwrap();
    assert_eq!(publisher.published, 5, "burst only");
    assert_eq!(publisher.rate_limited, 45);
}

#[test]
fn category_mask_prototype_also_delivers() {
    let mut d = DeploymentBuilder::new(60, 6)
        .branching(8)
        .config(NewsWireConfig::prototype_masks())
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    assert_eq!(d.config.model, SubscriptionModel::CategoryMask);
    d.settle(60);
    let item = tech_item(0);
    d.publish(SimTime::from_secs(60), item.clone());
    d.settle(30);
    let interested = d.interested_nodes(&item);
    let delivered = d.delivered_nodes(&item);
    assert!(!interested.is_empty());
    assert_eq!(interested, delivered);
}

#[test]
fn late_joiner_receives_state_transfer() {
    let mut d = tech_news_deployment(60, 7);
    d.settle(60);
    // Publish while node 30 is down.
    let victim = NodeId(30);
    d.sim.schedule_crash(SimTime::from_secs(60), victim);
    let item = tech_item(0);
    d.publish(SimTime::from_secs(70), item.clone());
    d.settle(30);
    let interested = d.interested_nodes(&item);
    if !interested.contains(&victim) {
        // The sampled subscription doesn't cover the item; nothing to test
        // for this seed — but the deployment must still have delivered.
        assert!(!d.delivered_nodes(&item).is_empty());
        return;
    }
    assert!(!d.sim.node(victim).has_item(item.id), "down node cannot deliver");
    // Recover; cache repair / state transfer must backfill the item.
    d.sim.schedule_recover(SimTime::from_secs(90), victim);
    d.settle(120);
    assert!(
        d.sim.node(victim).has_item(item.id),
        "recovered node must receive the missed item via repair"
    );
    let rec = d.sim.node(victim).deliveries.iter().find(|r| r.item == item.id).unwrap();
    assert!(rec.via_repair, "delivery must be attributed to the repair path");
}

#[test]
fn predicate_subscriptions_filter_at_leaf() {
    let mut d = tech_news_deployment(50, 8);
    d.settle(60);
    // Find a node interested in tech items and restrict it by urgency.
    let item = tech_item(0);
    let interested = d.interested_nodes(&item);
    let probe = *interested.first().expect("someone is interested");
    d.sim.node_mut(probe).subscription.set_predicate("urgency = 1").unwrap();
    // The published item has default urgency (5): predicate must filter it.
    d.publish(SimTime::from_secs(60), item.clone());
    d.settle(30);
    assert!(!d.sim.node(probe).has_item(item.id));
    assert!(
        d.sim.telemetry().borrow().node_counter(probe.index(), obs::ctr::NW_PREDICATE_FILTERED) > 0
    );
    // But the item is still in its cache (delivered to cache, not app).
    assert!(d.sim.node(probe).cache.contains(item.id));
}

#[test]
fn revisions_fuse_in_subscriber_caches() {
    let mut d = tech_news_deployment(40, 9);
    d.settle(60);
    let v0 = tech_item(0);
    d.publish(SimTime::from_secs(60), v0.clone());
    d.settle(15);
    let v1 = NewsItem::builder(PublisherId(0), 1)
        .headline(v0.headline.clone())
        .slug(v0.slug.clone())
        .category(Category::Technology)
        .subject(Subject::new(vec![u16::from(Category::Technology.bit()) + 1]))
        .revision(1, Some(v0.id))
        .build();
    d.publish(SimTime::from_secs(75), v1.clone());
    d.settle(30);
    for id in d.interested_nodes(&v1) {
        let node = d.sim.node(id);
        assert!(node.cache.contains(v1.id), "node {id} lacks the revision");
        assert!(!node.cache.contains(v0.id), "node {id} kept the stale revision");
    }
}

#[test]
fn deployment_is_deterministic() {
    let run = |seed: u64| {
        let mut d = tech_news_deployment(40, seed);
        d.settle(60);
        let item = tech_item(0);
        d.publish(SimTime::from_secs(60), item.clone());
        d.settle(20);
        (d.delivered_nodes(&item), d.sim.total_counters().msgs_sent)
    };
    assert_eq!(run(11), run(11));
}

#[test]
fn publisher_predicate_restricts_to_premium_subscribers() {
    // The §8 extension: "a publisher could send some item only to premium
    // subscribers". Premium status is a per-node attribute, SUM-aggregated
    // up the tree; the publisher attaches `premium > 0` to the item.
    let mut config = NewsWireConfig::tech_news();
    config
        .astrolabe
        .aggregations
        .push(astrolabe::AggSpec::new("premium", "SELECT SUM(premium) AS premium"));
    let mut d = DeploymentBuilder::new(60, 21)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    // Every third subscriber is premium.
    let premium: Vec<NodeId> = (1..61).filter(|i| i % 3 == 0).map(NodeId).collect();
    for &p in &premium {
        d.sim.node_mut(p).agent.set_local_attr("premium", 1i64);
    }
    d.settle(60);

    let item = tech_item(0);
    d.publish_with_predicate(SimTime::from_secs(60), item.clone(), "premium > 0");
    d.settle(25);

    for (id, node) in d.sim.iter() {
        let should = premium.contains(&id) && node.subscription.matches(&item);
        assert_eq!(
            node.has_item(item.id),
            should,
            "node {id}: premium={} matches={}",
            premium.contains(&id),
            node.subscription.matches(&item)
        );
    }
    // And the item genuinely reached someone.
    assert!(
        d.sim.iter().any(|(_, n)| n.has_item(item.id)),
        "at least one premium subscriber must deliver"
    );
}

#[test]
fn malformed_publisher_predicate_is_rejected() {
    let mut d = tech_news_deployment(30, 22);
    d.settle(60);
    let item = tech_item(0);
    d.publish_with_predicate(SimTime::from_secs(60), item.clone(), "not ((( sql");
    d.settle(15);
    assert!(d.delivered_nodes(&item).is_empty());
    let publisher = d.publisher_node(PublisherId(0));
    assert!(
        d.sim.telemetry().borrow().node_counter(publisher.index(), obs::ctr::NW_PUBLISH_DENIED) > 0
    );
}

#[test]
fn subscription_change_takes_effect_within_tens_of_seconds() {
    // §6 end to end: a *new* subscription must climb to the root summaries
    // before items start flowing to the node — "within tens of seconds".
    let mut d = tech_news_deployment(60, 31);
    d.settle(60);
    // Pick a node with no interest in science from publisher 0.
    let science = NewsItem::builder(PublisherId(0), 100)
        .headline("before change")
        .category(Category::Science)
        .build();
    let uninterested = (1..61)
        .map(NodeId)
        .find(|&n| !d.sim.node(n).subscription.matches(&science))
        .expect("someone is uninterested in science");
    // Baseline: a science item published now does NOT reach it.
    d.publish(SimTime::from_secs(60), science.clone());
    d.settle(20);
    assert!(!d.sim.node(uninterested).has_item(science.id));

    // The user subscribes; the node republishes its summary attributes.
    {
        let node = d.sim.node_mut(uninterested);
        let mut sub = node.subscription.clone();
        sub.subscribe_category(PublisherId(0), Category::Science);
        node.set_subscription(sub);
    }
    // Give gossip "tens of seconds" to aggregate the new bits upward.
    d.settle(40);
    let after = NewsItem::builder(PublisherId(0), 101)
        .headline("after change")
        .category(Category::Science)
        .build();
    let now = d.sim.now();
    d.publish(now, after.clone());
    d.settle(20);
    assert!(
        d.sim.node(uninterested).has_item(after.id),
        "new subscription must route items within tens of seconds"
    );
}

/// On a lossless network the named pull has nothing to say: no `Deliver`
/// is missed, so no `RepairRequest` is sent and no item re-sent. Reconcile
/// still settles the seqs the tree filtered away, but with stubs: no reply
/// carries an article, so none arrives unwanted, and every log converges.
/// Nor does loss recovery stir: the measured hand-off timeout never fires
/// with nothing lost, and no gap a reordered `Deliver` opens outlives its
/// window.
#[test]
fn lossless_run_leaves_the_repair_path_idle() {
    let mut d = tech_news_deployment(80, 9);
    d.settle(60);
    let items: Vec<NewsItem> = (0..40).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(60 + i as u64), item.clone());
    }
    d.settle(70);
    for item in &items {
        assert_eq!(d.interested_nodes(item), d.delivered_nodes(item), "item {}", item.id);
    }
    let stats = d.total_stats();
    assert!(stats.delivered > 0, "workload should create interest");
    assert_eq!((stats.repairs_served, stats.repair_items_sent), (0, 0));
    assert_eq!(stats.ack_retries, 0, "nothing was lost, so nothing is retransmitted");
    assert!(d.sim.iter().all(|(_, node)| node.deliveries.iter().all(|r| !r.via_repair)));
    {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        assert_eq!(hub.counter_total(obs::ctr::NW_GAP_PULLS), 0);
        assert!(hub.counter_total(obs::ctr::NW_RECONCILE_WITHHELD) > 0, "reconcile settled seqs");
        assert_eq!(hub.counter_total(obs::ctr::NW_RECONCILE_ITEMS_SENT), 0, "…with stubs alone");
        assert_eq!(hub.counter_total(obs::ctr::NW_RECOVERY_UNWANTED), 0);
    }
    let report = check_invariants(&d, &items, &BTreeSet::new());
    assert!(report.holds() && report.converged(), "{report}");
}

/// A cache far smaller than the feed (4 items, 30 articles): eviction must
/// never turn into a second application delivery. Dedup by cache presence
/// alone cannot promise that — whatever re-offers an evicted article makes
/// it look new — so recovery asks only for what the article log has never
/// seen (ROADMAP item 10).
#[test]
fn a_small_cache_never_delivers_twice() {
    for seed in 1..=3 {
        let mut config = NewsWireConfig::tech_news();
        config.cache.max_items = 4;
        let mut d = DeploymentBuilder::new(40, seed)
            .branching(8)
            .config(config)
            .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
            .build();
        d.settle(60);
        let items: Vec<NewsItem> = (0..30).map(tech_item).collect();
        for (i, item) in items.iter().enumerate() {
            d.publish(SimTime::from_secs(60 + 2 * i as u64), item.clone());
        }
        d.settle(120);
        let report = check_invariants(&d, &items, &BTreeSet::new());
        assert!(report.survivor_expected > 0, "seed {seed}: vacuous oracle run");
        assert!(report.holds(), "seed {seed}: {report}");
        assert_eq!(report.survivor_delivered, report.survivor_expected, "seed {seed}");
    }
}
