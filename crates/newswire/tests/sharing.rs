//! Zero-copy article path: an article is allocated once, by its publisher,
//! and every cache in the deployment holds a handle to that allocation —
//! whether the article arrived down the multicast tree, in a `RepairReply`
//! or in a `ReconcileReply`.

use std::sync::Arc;

use newsml::{Category, ItemId, NewsItem, PublisherId, PublisherProfile};
use newswire::{Deployment, DeploymentBuilder, NewsWireConfig, PublisherSpec};
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

/// Crashes one interested subscriber across a burst of publishes, freezes
/// it back (cache and logs wiped), and returns the deployment once the
/// recovery paths `config` leaves enabled have refilled it.
fn refill_after_crash(config: NewsWireConfig, seed: u64) -> (Deployment, NodeId) {
    let mut d = deployment(config, seed);
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
    // One more article after the recovery seeds the victim's article log,
    // so reconciliation sees seqs 0..=5 as holes.
    d.publish(SimTime::from_secs(75), item(6));
    d.settle(140);
    (d, victim)
}

#[test]
fn repair_reply_hands_over_the_publishers_allocation() {
    let config = NewsWireConfig { anti_entropy: false, ..NewsWireConfig::tech_news() };
    let (d, victim) = refill_after_crash(config, 12);
    let node = d.sim.node(victim);
    assert_eq!(node.stats.reconcile_items_recv, 0, "reconcile is off in this arm");
    assert!(node.deliveries.iter().any(|r| r.via_repair), "the crash window refilled by repair");
    for seq in 0..=6 {
        assert!(node.cache.contains(item(seq).id), "seq {seq} refilled");
        holders_sharing(&d, item(seq).id);
    }
}

#[test]
fn reconcile_reply_hands_over_the_publishers_allocation() {
    let config = NewsWireConfig { repair_interval: None, ..NewsWireConfig::tech_news() };
    let (d, victim) = refill_after_crash(config, 13);
    let node = d.sim.node(victim);
    assert!(node.stats.reconcile_items_recv > 0, "the crash window refilled by reconcile");
    for seq in 0..=6 {
        assert!(node.cache.contains(item(seq).id), "seq {seq} refilled");
        holders_sharing(&d, item(seq).id);
    }
}
