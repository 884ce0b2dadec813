//! Cold-restart recovery, end to end: a subscriber crashes mid-run and
//! comes back either with its disk (`ColdDurable`) or with nothing
//! (`ColdAmnesia`). Durable restarts must re-derive subscription, cache and
//! delivery log from stable storage; amnesiac restarts must rejoin empty,
//! re-subscribe from configuration, and let snapshot repair plus
//! anti-entropy reconciliation backfill everything.

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{Deployment, DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::{NodeId, RestartMode, SimTime};

fn tech_item(seq: u64) -> NewsItem {
    NewsItem::builder(PublisherId(0), seq)
        .headline(format!("story {seq}")) // distinct slugs: no revision fusion
        .category(Category::Technology)
        .body_len(700)
        .build()
}

/// A small durable-state deployment with `n` subscribers, converged and
/// with `items` published by t=110.
fn durable_deployment(n: u32, seed: u64) -> (Deployment, Vec<NewsItem>) {
    let mut config = NewsWireConfig::tech_news();
    config.durable_state = true;
    let mut d = DeploymentBuilder::new(n, seed)
        .branching(4)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    d.settle(90);
    let items: Vec<NewsItem> = (0..6u64).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + 2 * i as u64), item.clone());
    }
    d.settle(40); // t = 130: everything delivered, state snapshots synced
    (d, items)
}

fn victim_of(d: &Deployment, items: &[NewsItem]) -> NodeId {
    *d.interested_nodes(&items[0]).first().expect("someone subscribes to Technology")
}

/// Cold restarts (durable or amnesiac, not freezes), counted by the
/// simulator in two global slots.
fn cold_restarts(d: &Deployment) -> u64 {
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    let global = hub.global();
    global.ctr(obs::ctr::COLD_RESTARTS_DURABLE) + global.ctr(obs::ctr::COLD_RESTARTS_AMNESIA)
}

#[test]
fn cold_durable_restart_recovers_state_from_disk() {
    let (mut d, items) = durable_deployment(16, 0xD15C);
    let victim = victim_of(&d, &items);
    let crash = SimTime::from_secs(135);
    d.sim.schedule_crash(crash, victim);
    d.sim.schedule_restart(SimTime::from_secs(145), victim, RestartMode::ColdDurable);
    d.settle(60); // t = 190
    let node = d.sim.node(victim);
    assert_eq!(cold_restarts(&d), 1);
    assert!(node.agent.incarnation() > 0, "cold restart burned an incarnation");
    // The delivery log came back from disk, original timestamps intact —
    // these deliveries predate the crash, so they cannot be re-deliveries.
    for item in &items {
        if d.interested_nodes(item).contains(&victim) {
            assert!(node.has_item(item.id), "restored delivery log covers {:?}", item.id);
        }
    }
    assert!(
        node.deliveries.iter().any(|r| r.delivered < crash),
        "restored records keep their pre-crash delivery times"
    );
    // The disk still holds the synced records the restart was fed from.
    let disk = d.sim.disk(victim);
    assert!(disk.read("incar").is_some());
    assert!(disk.read("sub").is_some());
    assert!(disk.total_writes() > 0);
    assert!(
        d.sim.telemetry().borrow().node_counter(victim.index(), obs::ctr::NW_RECOVERIES) >= 1,
        "durable recovery reached the caught-up criterion"
    );
}

#[test]
fn cold_amnesia_restart_rejoins_empty_and_backfills() {
    let (mut d, items) = durable_deployment(16, 0xA11E);
    let victim = victim_of(&d, &items);
    let restart = SimTime::from_secs(145);
    d.sim.schedule_crash(SimTime::from_secs(135), victim);
    d.sim.schedule_restart(restart, victim, RestartMode::ColdAmnesia);
    d.settle(150); // t = 280: give snapshot repair + reconciliation time
    let node = d.sim.node(victim);
    assert_eq!(cold_restarts(&d), 1);
    assert!(node.agent.incarnation() > 0);
    // Everything was re-acquired from peers: every delivery the node holds
    // postdates the restart (the pre-crash log is unrecoverable).
    assert!(!node.deliveries.is_empty(), "backfill re-delivered the stories");
    assert!(
        node.deliveries.iter().all(|r| r.delivered >= restart),
        "an amnesiac node cannot hold pre-crash delivery records"
    );
    for item in &items {
        if d.interested_nodes(item).contains(&victim) {
            assert!(node.has_item(item.id), "backfill must cover {:?}", item.id);
        }
    }
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    let backfilled = hub.node_counter(victim.index(), obs::ctr::NW_BACKFILL_ITEMS);
    assert!(backfilled > 0, "backfill went through the repair paths");
    // Peers saw the new incarnation ride in on gossip and fenced the old
    // life.
    assert!(hub.counter_total(obs::ctr::INCARNATION_BUMPS) > 0, "peers observed the bump");
}

#[test]
fn freeze_restart_burns_no_incarnation() {
    let (mut d, items) = durable_deployment(12, 0xF0F0);
    let victim = victim_of(&d, &items);
    d.sim.schedule_crash(SimTime::from_secs(135), victim);
    d.sim.schedule_restart(SimTime::from_secs(145), victim, RestartMode::Freeze);
    d.settle(60);
    let node = d.sim.node(victim);
    assert_eq!(node.agent.incarnation(), 0, "freeze is the legacy ambient-memory model");
    assert_eq!(cold_restarts(&d), 0);
}
