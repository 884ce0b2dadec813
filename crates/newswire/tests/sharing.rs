//! Zero-copy article path: an article is allocated once, by its publisher,
//! and every cache in the deployment holds a handle to that allocation —
//! whether the article arrived down the multicast tree, in a `RepairReply`
//! (the named pull) or in a `ReconcileReply`.

use std::sync::Arc;

use newsml::{Category, ItemId, NewsItem, PublisherId, PublisherProfile};
use newswire::{Deployment, DeploymentBuilder, NewsWireConfig, PublisherSpec, Subscription};
use simnet::{NodeId, SimTime};

const PUBLISHER: PublisherId = PublisherId(0);

fn item(seq: u64) -> NewsItem {
    NewsItem::builder(PUBLISHER, seq)
        .headline(format!("shared {seq}")) // distinct slugs: no revision fusion
        .category(Category::Technology)
        .build()
}

fn deployment(config: NewsWireConfig, seed: u64) -> Deployment {
    DeploymentBuilder::new(31, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PUBLISHER)))
        .build()
}

/// Asserts that every copy of `id` cached anywhere is the publisher's own
/// allocation; returns how many subscriber caches hold it.
fn holders_sharing(d: &Deployment, id: ItemId) -> usize {
    let origin = d.sim.node(d.publisher_node(PUBLISHER)).cache.get(id).expect("publisher caches");
    let mut holders = 0;
    for (node, n) in d.sim.iter() {
        if let Some(held) = n.cache.get(id) {
            assert!(Arc::ptr_eq(held, origin), "node {} holds a private copy of {id}", node.0);
            holders += 1;
        }
    }
    holders - 1
}

#[test]
fn every_subscriber_caches_the_publishers_allocation() {
    let mut d = deployment(NewsWireConfig::tech_news(), 11);
    d.settle(60);
    d.publish(SimTime::from_secs(60), item(0));
    d.settle(30);
    let interested = d.interested_nodes(&item(0)).len();
    assert!(interested > 1, "workload should create interest");
    assert!(holders_sharing(&d, item(0).id) >= interested);
}

/// One leaf zone, so the publisher is the representative that `Deliver`s:
/// its link to a member is cut while one `Deliver` is on the wire, the next
/// `Deliver` names the lost one, and the member pulls it. Reconcile is off:
/// nothing but the named pull can hand the article over.
#[test]
fn named_pull_hands_over_the_publishers_allocation() {
    let config = NewsWireConfig { anti_entropy: false, ..NewsWireConfig::tech_news() };
    let mut d = DeploymentBuilder::new(2, 12)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PUBLISHER)))
        .build();
    let (publisher, member) = (d.publisher_node(PUBLISHER), NodeId(1));
    let mut sub = Subscription::new();
    sub.subscribe_category(PUBLISHER, Category::Technology);
    d.sim.node_mut(member).set_subscription(sub);
    d.settle(60);
    let ms = |at: u64| SimTime::from_micros(at * 1_000);
    d.sim.schedule_link_cut(ms(60_999), publisher, member);
    d.sim.schedule_link_heal(ms(61_005), publisher, member);
    for (seq, at) in [(0, 60_000), (1, 61_000), (2, 62_000), (3, 62_200)] {
        d.publish(ms(at), item(seq));
    }
    d.settle(5);
    let node = d.sim.node(member);
    let pulled: Vec<_> = node.deliveries.iter().filter(|r| r.via_repair).collect();
    assert_eq!(pulled.len(), 1, "exactly the lost Deliver came by name");
    assert_eq!(pulled[0].item, item(1).id);
    assert_eq!(d.sim.node(publisher).stats.repair_items_sent, 1);
    for seq in 0..4 {
        assert_eq!(holders_sharing(&d, item(seq).id), 1, "seq {seq}");
    }
}

/// Crashes one interested subscriber across a burst of publishes, freezes
/// it back (cache and logs wiped) with nothing published afterwards, and
/// checks that reconcile — reading the absent log as empty — refilled it
/// with the publisher's own allocations.
#[test]
fn reconcile_reply_hands_over_the_publishers_allocation() {
    let mut d = deployment(NewsWireConfig::tech_news(), 13);
    d.settle(60);
    let publisher = d.publisher_node(PUBLISHER);
    let victim = *d
        .interested_nodes(&item(0))
        .iter()
        .find(|&&n| n != publisher)
        .expect("an interested subscriber");
    d.sim.schedule_crash(SimTime::from_secs(61), victim);
    for seq in 0..6 {
        d.publish(SimTime::from_secs(62 + seq), item(seq));
    }
    d.sim.schedule_recover(SimTime::from_secs(70), victim);
    d.settle(140);
    let node = d.sim.node(victim);
    assert!(node.stats.reconcile_items_recv > 0, "the crash window refilled by reconcile");
    for seq in 0..6 {
        assert!(node.cache.contains(item(seq).id), "seq {seq} refilled");
        holders_sharing(&d, item(seq).id);
    }
}
