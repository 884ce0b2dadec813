//! Cold restarts, all three flavors, in one incident: three disjoint slices
//! of the fleet churn for five minutes, each slice coming back a different
//! way — `Freeze` (the legacy model: ambient memory survives), `ColdDurable`
//! (volatile state wiped, the simulated disk survives, recovery re-derives
//! subscription/cache/logs from it), and `ColdAmnesia` (disk gone too: the
//! node re-subscribes from configuration, burns a fresh incarnation so peers
//! fence its previous life, and lets snapshot repair plus anti-entropy
//! reconciliation backfill everything it ever knew).
//!
//! Stories keep publishing throughout. At the end the invariant oracle rules
//! on duplicates and unwanted deliveries, and a completeness sweep asserts
//! every churned node — regardless of restart mode — holds every matching
//! story, i.e. eventual delivery completeness survives losing the disk.
//!
//! Run with: `cargo run --release --example cold_restart [seed]`

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{check_invariants, DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::{ChurnSpec, FaultPlan, NodeId, RestartMode, SimTime};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0xC01D);
    let subscribers = 120u32;
    let mut config = NewsWireConfig::tech_news();
    config.durable_state = true;
    let mut d = DeploymentBuilder::new(subscribers, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .publisher(PublisherSpec::global(PublisherProfile::boutique(
            PublisherId(1),
            "the-register",
            Category::Technology,
        )))
        .build();
    println!(
        "cold restart drill: {subscribers} subscribers, 2 publishers, seed {seed:#x}; \
         durable state on; letting gossip converge…"
    );
    d.settle(90);

    // Three disjoint churn groups, one per restart mode. Publishers (ids 0
    // and 1) are never churned.
    let total = subscribers + 2;
    let group =
        |rem: u32| -> Vec<NodeId> { (2..total).filter(|i| i % 6 == rem).map(NodeId).collect() };
    let frozen = group(2);
    let durable = group(3);
    let amnesic = group(4);
    let spec = |nodes: Vec<NodeId>, restart: RestartMode| ChurnSpec {
        nodes,
        start: SimTime::from_secs(90),
        end: SimTime::from_secs(390),
        mean_up_secs: 60.0,
        mean_down_secs: 20.0,
        recover_at_end: true,
        restart,
    };
    let plan = FaultPlan {
        salt: 0xC01D,
        churn: vec![
            spec(frozen.clone(), RestartMode::Freeze),
            spec(durable.clone(), RestartMode::ColdDurable),
            spec(amnesic.clone(), RestartMode::ColdAmnesia),
        ],
        gray: vec![],
        link_cuts: vec![],
        partitions: vec![],
        message_chaos: vec![],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);
    println!(
        "incident: churn 60s-up/20s-down for 5 min over {} freeze / {} cold-durable / \
         {} cold-amnesia nodes",
        frozen.len(),
        durable.len(),
        amnesic.len()
    );

    // The newsroom does not stop: a story every 20 s through the window.
    let items: Vec<NewsItem> = (0..15u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("drill minute {} story {}", s / 3, s % 3))
                .category(Category::Technology)
                .body_len(900)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + 20 * i as u64), item.clone());
    }

    // Ride out the churn plus a recovery/backfill tail.
    d.settle(660);

    let faults = d.sim.fault_counters();
    println!(
        "engine: {} crashes / {} recoveries; protocol: {} recoveries run to completion, \
         {} items backfilled during recovery",
        faults.crashes,
        faults.recoveries,
        d.counter(obs::ctr::NW_RECOVERIES),
        d.counter(obs::ctr::NW_BACKFILL_ITEMS)
    );
    let cold_restarts = {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        let (durable, amnesiac) = (
            hub.global().ctr(obs::ctr::COLD_RESTARTS_DURABLE),
            hub.global().ctr(obs::ctr::COLD_RESTARTS_AMNESIA),
        );
        println!(
            "telemetry: {durable} durable / {amnesiac} amnesiac cold restarts, {} unsynced \
             writes lost, {} incarnation bumps observed by peers",
            hub.counter_total(obs::ctr::DISK_WRITES_LOST),
            hub.counter_total(obs::ctr::INCARNATION_BUMPS),
        );
        durable + amnesiac
    };
    assert!(cold_restarts > 0, "the drill must actually cold-restart somebody");

    // Cold-restarted nodes burned incarnations; frozen nodes never do.
    // (A lucky churner can ride out the whole window without crashing, so
    // gate on the node's disk holding an incarnation record: only a cold
    // restart writes one.)
    for &n in durable.iter().chain(&amnesic) {
        if d.sim.disk(n).read("incar").is_some() {
            let incarnation = d.sim.node(n).agent.incarnation();
            assert!(incarnation > 0, "cold node {n:?} must burn an incarnation");
        }
    }
    for &n in &frozen {
        assert_eq!(d.sim.node(n).agent.incarnation(), 0, "freeze must not burn incarnations");
    }

    // The verdict: churned nodes are exempt from the oracle's liveness
    // clause, but everyone is held to no-dup and no-unwanted.
    let exempt: BTreeSet<NodeId> = plan.churned_nodes();
    let report = check_invariants(&d, &items, &exempt);
    print!("{report}");
    report.assert_holds();

    // And the point of the drill: eventual completeness survives every
    // restart mode, including losing the disk.
    let mut missing_by_mode = [0usize; 3];
    for item in &items {
        for node in d.interested_nodes(item) {
            if !exempt.contains(&node) || d.sim.node(node).has_item(item.id) {
                continue;
            }
            let m = if frozen.contains(&node) {
                0
            } else if durable.contains(&node) {
                1
            } else {
                2
            };
            missing_by_mode[m] += 1;
        }
    }
    println!(
        "completeness: {} / {} / {} matching items missing on freeze / cold-durable / \
         cold-amnesia nodes",
        missing_by_mode[0], missing_by_mode[1], missing_by_mode[2]
    );
    assert_eq!(missing_by_mode, [0, 0, 0], "every restart mode must reach full completeness");
    println!("ok");
}
