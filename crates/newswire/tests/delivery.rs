//! Full-stack integration tests: publish → gossip-built tree → selective
//! forwarding → exact leaf matching → cache/repair.

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile, Subject};
use newswire::{
    check_invariants, tech_news_deployment, Deployment, DeploymentBuilder, NewsWireConfig,
    PublisherSpec, Subscription, SubscriptionModel,
};
use obs::ctr;
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
    let node = d.publisher_node(PublisherId(0));
    let published = d.sim.telemetry().borrow().node_counter(node.index(), obs::ctr::NW_PUBLISHED);
    assert_eq!(published, 5, "burst only");
    assert_eq!(d.sim.node(node).publisher().unwrap().rate_limited, 45);
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

/// On a lossless network no item is re-sent: every `Deliver` is
/// acknowledged inside its round-trip bound, so the acknowledgement sweep
/// re-sends none, and once the run drains the table is empty and its sweep
/// timer idle. Reconcile
/// still settles the seqs the tree filtered away, but with stubs: no reply
/// carries an article, so none arrives unwanted, and every log converges.
/// Nor does the measured hand-off timeout fire with nothing lost.
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
    assert!(d.counter(ctr::NW_DELIVERED) > 0, "workload should create interest");
    assert_eq!(d.counter(ctr::NW_REPAIR_ITEMS_SENT), 0);
    assert_eq!(d.counter(ctr::NW_ACK_RETRIES), 0, "nothing was lost, so nothing is retransmitted");
    assert!(d.sim.iter().all(|(_, node)| node.deliveries.iter().all(|r| !r.via_repair)));
    assert!(d.sim.iter().all(|(_, node)| node.unacknowledged() == 0), "nothing awaits an ack");
    assert!(d.sim.iter().all(|(_, node)| !node.ack_sweep_armed()), "no sweep is left set");
    {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        assert!(hub.counter_total(obs::ctr::NW_DELIVER_ACKS) > 0, "members acknowledge");
        assert_eq!(hub.counter_total(obs::ctr::NW_DELIVER_RESENDS), 0, "no spurious re-send");
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

/// The first-pass tree: `k` representatives per zone and per hand-off, no
/// acknowledgements, no anti-entropy.
fn first_pass(k: usize) -> NewsWireConfig {
    let mut config = NewsWireConfig::tech_news();
    config.astrolabe = astrolabe::Config::with_reps(k);
    config.redundancy = k;
    config.acks = false;
    config.anti_entropy = false;
    config
}

/// `n` subscribers behind one publisher (node 0), every one of them
/// subscribed to its Technology stories.
fn everyone_subscribed(n: u32, branching: u16, config: NewsWireConfig, seed: u64) -> Deployment {
    let mut d = DeploymentBuilder::new(n, seed)
        .branching(branching)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    for i in 1..=n {
        let mut sub = Subscription::new();
        sub.subscribe_category(PublisherId(0), Category::Technology);
        d.sim.node_mut(NodeId(i)).set_subscription(sub);
    }
    d
}

#[test]
fn first_pass_covers_a_three_level_tree() {
    let mut d = everyone_subscribed(120, 5, first_pass(1), 1);
    // Three levels of zone tables: the root's, a region's, a leaf zone's.
    assert_eq!(d.layout.leaf_zone(0).depth(), 2);
    d.settle(45);
    let item = tech_item(0);
    d.publish(SimTime::from_secs(45), item.clone());
    d.settle(10);
    assert_eq!(d.delivered_nodes(&item).len(), 120);
}

#[test]
fn a_scoped_publish_from_outside_the_zone_stays_inside_it() {
    let mut d = everyone_subscribed(63, 4, NewsWireConfig::tech_news(), 11);
    d.settle(45);
    // The top-level zone holding node 20; the publisher (node 0) is not in
    // it, so the item is relayed in through representatives.
    let scope = d.layout.leaf_zone(20).ancestor_at(1);
    let inside = d.layout.agents_under(&scope);
    assert!(!inside.contains(&0));
    let item = tech_item(0);
    d.publish_scoped(SimTime::from_secs(45), item.clone(), scope);
    // Long enough for reconcile to run, which must stay confined too.
    d.settle(30);
    let delivered: Vec<u32> = d.delivered_nodes(&item).iter().map(|id| id.0).collect();
    assert_eq!(delivered, inside, "delivered exactly the zone, nothing outside it");
}

#[test]
fn two_representatives_without_acks_survive_a_tenth_of_the_nodes_crashing() {
    let n = 96;
    let mut d = everyone_subscribed(n, 4, first_pass(2), 13);
    d.settle(45);
    let victims: BTreeSet<u32> = (1..=n).filter(|i| i % 9 == 3).collect();
    for &v in &victims {
        d.sim.schedule_crash(SimTime::from_secs(45), NodeId(v));
    }
    let item = tech_item(0);
    d.publish(SimTime::from_secs(45), item.clone());
    d.settle(10);
    let live = n as usize - victims.len();
    let got = d.delivered_nodes(&item).iter().filter(|id| !victims.contains(&id.0)).count();
    assert!(got * 10 >= live * 9, "only {got}/{live} live subscribers delivered");
}

#[test]
fn three_representatives_suppress_duplicates_and_never_deliver_twice() {
    let mut d = everyone_subscribed(32, 4, first_pass(3), 17);
    d.settle(45);
    let item = tech_item(0);
    d.publish(SimTime::from_secs(45), item.clone());
    d.settle(10);
    assert_eq!(d.delivered_nodes(&item).len(), 32);
    for (id, node) in d.sim.iter() {
        let copies = node.deliveries.iter().filter(|r| r.item == item.id).count();
        assert!(copies <= 1, "node {id} delivered {copies} times");
    }
    assert_eq!(d.counter(ctr::NW_DELIVERED), 32);
    assert!(d.counter(ctr::NW_DUPLICATES) > 0, "k=3 must actually produce suppressed duplicates");
}

/// Fifteen subscribers of Technology behind one publisher (node 0), in two
/// leaf zones of eight: the publisher's own, /0, and /1, which the
/// publisher hands every article off to, one hand-off to each of its two
/// representatives.
fn two_leaf_zones(seed: u64, drop_prob: Option<f64>) -> Deployment {
    let mut builder = DeploymentBuilder::new(15, seed)
        .branching(8)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))));
    if let Some(p) = drop_prob {
        builder = builder.wan(p);
    }
    let mut d = builder.build();
    for i in 1..=15 {
        let mut sub = Subscription::new();
        sub.subscribe_category(PublisherId(0), Category::Technology);
        d.sim.node_mut(NodeId(i)).set_subscription(sub);
    }
    d.settle(45);
    d
}

/// Publishes `n` articles from `first`, four a second from `at`, and returns
/// them.
fn feed(d: &mut Deployment, first: u64, n: u64, at: SimTime) -> Vec<NewsItem> {
    let items: Vec<NewsItem> = (first..first + n).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(at + simnet::SimDuration::from_millis(250 * i as u64), item.clone());
    }
    items
}

fn counter(d: &Deployment, node: NodeId, id: obs::CtrId) -> u64 {
    d.sim.telemetry().borrow().node_counter(node.index(), id)
}

/// The members of /1, and its two representatives as the publisher sees
/// them.
fn zone_one(d: &Deployment) -> (Vec<NodeId>, Vec<NodeId>) {
    let zone = astrolabe::ZoneId::root().child(1);
    let members = d.layout.agents_under(&zone).into_iter().map(NodeId).collect();
    let reps = amcast::zone_reps(&d.sim.node(NodeId(0)).agent, &zone);
    assert_eq!(reps.len(), 2, "both representatives of /1 are known");
    (members, reps.into_iter().map(NodeId).collect())
}

/// The source sends each hand-off `redundancy` times while its gossip
/// exchanges lose messages, and once again after they have run clean for
/// long enough: an article costs the publisher its `Deliver`s to /0 and
/// one copy per hand-off to /1's two representatives, or, hedged, a
/// second copy to each of them.
#[test]
fn a_source_whose_exchanges_lose_messages_sends_each_hand_off_twice() {
    let mut d = two_leaf_zones(21, None);
    let publisher = NodeId(0);
    let sent = |d: &mut Deployment, seq: u64| {
        let before = counter(d, publisher, ctr::NW_FORWARDS);
        d.publish(d.sim.now(), tech_item(seq));
        d.settle(5);
        counter(d, publisher, ctr::NW_FORWARDS) - before
    };
    let clean = sent(&mut d, 0);
    assert_eq!(counter(&d, publisher, ctr::NW_ACK_RETRIES), 0, "workload sanity: nothing lost");
    // Ten seconds at 50 % loss leave some exchange of the publisher's
    // unanswered.
    let now = d.sim.now();
    d.sim.schedule_drop_prob(now, 0.5);
    d.sim.schedule_drop_prob(now + simnet::SimDuration::from_secs(10), 0.0);
    d.settle(12);
    assert_eq!(sent(&mut d, 1), clean + 2, "a second copy to each representative of /1");
    // 256 exchanges answered in a row, at three or four a gossip round.
    d.settle(300);
    assert_eq!(sent(&mut d, 2), clean, "clean again: one copy per hand-off");
}

/// On a clean network, once both representatives of /1 have had
/// enough payloads acknowledged in a row, each member of /1 is sent one
/// payload per article: the second copy is an announce, so no member of
/// /1 reads a duplicate, and every article is still delivered once to every
/// member.
#[test]
fn a_warmed_clean_leaf_zone_is_sent_one_payload_per_member() {
    let mut d = two_leaf_zones(21, None);
    let (members, reps) = zone_one(&d);
    feed(&mut d, 0, 60, SimTime::from_secs(45));
    d.settle(20);
    let announces =
        |d: &Deployment| reps.iter().map(|&r| counter(d, r, ctr::NW_ANNOUNCES)).sum::<u64>();
    let dups =
        |d: &Deployment| members.iter().map(|&m| counter(d, m, ctr::NW_DUPLICATES)).sum::<u64>();
    let (announced, duplicates) = (announces(&d), dups(&d));
    assert!(duplicates > 0, "before the split, members read the second payload");

    let now = d.sim.now();
    let items = feed(&mut d, 60, 20, now);
    d.settle(10);
    assert!(announces(&d) > announced, "the split is on");
    assert_eq!(dups(&d), duplicates, "one payload per member and article");
    for item in &items {
        assert_eq!(d.interested_nodes(item), d.delivered_nodes(item), "item {}", item.id);
    }
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    assert_eq!(hub.counter_total(ctr::NW_ANNOUNCE_PAYLOADS), 0, "every announce was answered");
    assert_eq!(hub.counter_total(ctr::NW_DELIVER_RESENDS), 0);
    assert!(d.sim.iter().all(|(_, node)| node.held_announces() == 0));
    assert!(d.sim.iter().all(|(_, node)| node.unacknowledged() == 0));
}

/// The split is on, and one representative of /1 crashes just before
/// an article is published. The members it would have sent the payload
/// to hold the other one's announce, whose wait runs out: that one sends
/// the payload, and every live member of /1 delivers it within a second,
/// down the tree.
#[test]
fn a_crashed_payload_representative_costs_one_announce_wait() {
    let mut d = two_leaf_zones(22, None);
    let (members, reps) = zone_one(&d);
    feed(&mut d, 0, 60, SimTime::from_secs(45));
    d.settle(20);
    let (crashed, survivor) = (reps[0], reps[1]);
    let at = d.sim.now();
    d.sim.schedule_crash(at, crashed);
    let item = tech_item(60);
    d.publish(at + simnet::SimDuration::from_millis(100), item.clone());
    d.settle(10);
    assert!(counter(&d, survivor, ctr::NW_ANNOUNCE_PAYLOADS) > 0, "the crashed one sent payloads");
    for &m in members.iter().filter(|&&m| m != crashed) {
        let got: Vec<_> = d.sim.node(m).deliveries.iter().filter(|r| r.item == item.id).collect();
        assert_eq!(got.len(), 1, "{m} delivered once");
        assert!(!got[0].via_repair, "{m}: down the tree");
        let late = got[0].delivered.saturating_since(got[0].published);
        assert!(late < simnet::SimDuration::from_secs(1), "{m}: {late:?}");
    }
}

/// On a link losing 5 % of its messages, no representative measures a
/// clean run long enough to split: a whole feed goes out without one
/// announce, and every article is delivered.
#[test]
fn a_lossy_final_hop_sends_no_announce() {
    let mut d = two_leaf_zones(23, Some(0.05));
    let items = feed(&mut d, 0, 100, SimTime::from_secs(45));
    d.settle(60);
    let hub = d.sim.telemetry();
    assert!(hub.borrow().counter_total(ctr::NW_DELIVER_ACKS) > 1_000, "the final hop was busy");
    assert_eq!(hub.borrow().counter_total(ctr::NW_ANNOUNCES), 0);
    drop(hub);
    for item in &items {
        assert_eq!(d.interested_nodes(item), d.delivered_nodes(item), "item {}", item.id);
    }
}
