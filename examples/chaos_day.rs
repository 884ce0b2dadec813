//! A ten-minute operational incident, end to end (paper §9): rolling churn
//! takes a fifth of the fleet up and down for the whole window, and halfway
//! through, a sixty-second gray brownout degrades 10% of the nodes — alive
//! and still gossiping, but slow and lossy, the failure mode a crash
//! detector never flags. Stories keep publishing throughout.
//!
//! At the end, the invariant oracle delivers the verdict: no duplicate
//! deliveries, no unwanted deliveries, and every continuously-live
//! interested node got every story — the churned ones too, since they all
//! recovered and anti-entropy backfilled them.
//!
//! Run with: `cargo run --release --example chaos_day [seed]`

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId};
use newswire::{check_invariants, tech_news_deployment};
use obs::ctr;
use simnet::{
    ChurnSpec, FaultPlan, GrayProfile, GraySpec, MessageChaosSpec, NodeId, SimDuration, SimTime,
};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0xC4A05);
    let subscribers = 150u32;
    let mut d = tech_news_deployment(subscribers, seed);
    println!(
        "chaos day: {subscribers} subscribers, 2 publishers, seed {seed:#x}; letting gossip converge…"
    );
    d.settle(90);

    // The incident, declared up front: ten minutes of rolling churn over a
    // fifth of the fleet, a 60 s gray brownout of 10% of the nodes in the
    // middle, and a mild duplication/reordering window throughout.
    let total = subscribers + 2; // two publisher nodes at ids 0 and 1
    let churned: Vec<NodeId> = (2..total).filter(|i| i % 5 == 2).map(NodeId).collect();
    let browned: Vec<NodeId> = (2..total).filter(|i| i % 10 == 4).map(NodeId).collect();
    let plan = FaultPlan {
        salt: 0xDA7,
        churn: vec![ChurnSpec {
            nodes: churned.clone(),
            start: SimTime::from_secs(90),
            end: SimTime::from_secs(660),
            mean_up_secs: 60.0,
            mean_down_secs: 20.0,
            recover_at_end: true,
            restart: simnet::RestartMode::Freeze,
        }],
        gray: vec![GraySpec {
            nodes: browned.clone(),
            start: SimTime::from_secs(330),
            end: Some(SimTime::from_secs(390)),
            profile: GrayProfile::brownout(),
        }],
        link_cuts: vec![],
        partitions: vec![],
        message_chaos: vec![MessageChaosSpec {
            start: SimTime::from_secs(90),
            end: Some(SimTime::from_secs(660)),
            dup_prob: 0.02,
            reorder_prob: 0.10,
            reorder_jitter: SimDuration::from_millis(25),
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);
    println!(
        "incident: {} nodes churning 60s-up/20s-down for 10 min, {} nodes gray for 60 s \
         at t=330, dup 2% / reorder 10% throughout",
        churned.len(),
        browned.len()
    );

    // The newsroom does not stop for the incident: a story every 20 s.
    let items: Vec<NewsItem> = (0..30u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                // One slug per item: same-slug items are revisions of one
                // story and get fused by the cache, not delivered twice.
                .headline(format!("incident minute {} story {}", s / 3, s % 3))
                .category(Category::Technology)
                .body_len(900)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + 20 * i as u64), item.clone());
    }

    // Ride out the incident plus a repair tail.
    d.settle(660);

    let faults = d.sim.fault_counters();
    println!(
        "engine: {} crashes / {} recoveries; drops: {} gray-send, {} gray-recv, {} loss; \
         {} msgs duplicated, {} jittered",
        faults.crashes,
        faults.recoveries,
        faults.drops_gray_send,
        faults.drops_gray_recv,
        faults.drops_loss,
        faults.msgs_duplicated,
        faults.msgs_jittered
    );
    println!(
        "protocol: {} forwards, {} acks, {} retries, {} failovers, {} abandoned",
        d.counter(ctr::NW_FORWARDS),
        d.counter(ctr::NW_ACKS_RECEIVED),
        d.counter(ctr::NW_ACK_RETRIES),
        d.counter(ctr::NW_ACK_FAILOVERS),
        d.counter(ctr::NW_HANDOFFS_ABANDONED)
    );

    // The verdict. Churned nodes are exempt from the oracle's liveness
    // clause (they were not continuously live) but everyone — gray,
    // churned, or healthy — is held to no-dup and no-unwanted.
    let exempt: BTreeSet<NodeId> = plan.churned_nodes();
    let report = check_invariants(&d, &items, &exempt);
    print!("{report}");
    report.assert_holds();

    // And stronger: every churned node recovered, so anti-entropy must have
    // backfilled even them by now.
    let mut backfilled = 0usize;
    let mut missing = 0usize;
    for item in &items {
        for node in d.interested_nodes(item) {
            if exempt.contains(&node) {
                if d.sim.node(node).has_item(item.id) {
                    backfilled += 1;
                } else {
                    missing += 1;
                }
            }
        }
    }
    println!(
        "churned nodes: {backfilled} matching items backfilled after recovery, {missing} missing"
    );
    assert_eq!(missing, 0, "repair must backfill recovered nodes");
    println!("ok");
}
