//! Partition-healing oracle tests: a deterministic two-zone-group split
//! with items published before, during, and after the partition window.
//!
//! With log anti-entropy enabled, every continuously-live interested node
//! must end converged — the items published while the network was split
//! are pulled back through gossip-piggybacked digest reconciliation: no
//! copy of them crossed the cut, and every hand-off that tried was
//! abandoned inside the window, so no ack retry can.
//!
//! With anti-entropy disabled (the ablation arm, same seed, same fault
//! schedule), the oracle must *detect* the damage: unconverged logs and
//! missed deliveries confined to the partition window — on the full-payload
//! wire and on the delta wire protocol alike.

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{
    check_invariants, Deployment, DeploymentBuilder, NewsWireConfig, OracleReport, PublisherSpec,
};
use simnet::{FaultPlan, Partition, PartitionSpec, SimTime};

/// Total nodes: one publisher + 47 subscribers; branching 8 puts the split
/// at a zone boundary (zones 0–2 with the publisher vs zones 3–5).
const N_SUB: u32 = 47;
const N_TOTAL: usize = 48;
const SPLIT: usize = 24;

/// Sequence ranges published before / during / after the partition.
const PRE: std::ops::Range<u64> = 0..5;
const DURING: std::ops::Range<u64> = 5..35;
const AFTER: std::ops::Range<u64> = 35..55;

fn item(seq: u64) -> NewsItem {
    NewsItem::builder(PublisherId(0), seq)
        .headline(format!("heal {seq}")) // distinct slugs: no revision fusion
        .category(Category::Technology)
        .build()
}

fn plan() -> FaultPlan {
    FaultPlan {
        partitions: vec![PartitionSpec {
            partition: Partition::split_at(N_TOTAL, SPLIT),
            start: SimTime::from_secs(80),
            heal: SimTime::from_secs(140),
        }],
        ..FaultPlan::default()
    }
}

/// Runs the scenario and returns the oracle report plus the items and the
/// finished deployment (its counters unread and undrained). The
/// hole is thirty items deep and the hand-offs that would have carried it
/// across the cut were abandoned while the cut held, so only log
/// reconciliation can close it.
/// `deltas` selects the delta wire protocol.
fn run(anti_entropy: bool, deltas: bool, seed: u64) -> (OracleReport, Vec<NewsItem>, Deployment) {
    let config = NewsWireConfig { anti_entropy, deltas, ..NewsWireConfig::tech_news() };
    let mut d = DeploymentBuilder::new(N_SUB, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(60);
    d.sim.apply_fault_plan(&plan());

    let items: Vec<NewsItem> = (0..AFTER.end).map(item).collect();
    for seq in PRE {
        d.publish(SimTime::from_secs(62 + 2 * seq), items[seq as usize].clone());
    }
    for (k, seq) in DURING.enumerate() {
        d.publish(SimTime::from_secs(81 + 2 * k as u64), items[seq as usize].clone());
    }
    for (k, seq) in AFTER.enumerate() {
        d.publish(SimTime::from_secs(142 + 2 * k as u64), items[seq as usize].clone());
    }
    d.settle(240); // runs to t=300: plenty of gossip/reconcile rounds

    let f = d.sim.fault_counters();
    assert_eq!(f.partitions_started, 1);
    assert_eq!(f.partitions_healed, 1);

    let report = check_invariants(&d, &items, &BTreeSet::new());
    (report, items, d)
}

#[test]
fn anti_entropy_heals_the_partition() {
    let (report, _, d) = run(true, false, 21);
    assert!(report.survivor_expected > 0, "vacuous run");
    assert!(report.holds(), "{report}");
    assert!(report.converged(), "{report}");
    assert!(
        d.counter(obs::ctr::NW_RECONCILE_ITEMS_RECV) > 0,
        "recovery must have flowed through reconciliation, not luck"
    );
}

/// Both wire formats: the delta arm is where a hand-off timing regression
/// once showed up first.
#[test]
fn without_anti_entropy_the_damage_is_detected() {
    for deltas in [false, true] {
        damage_is_detected(deltas, 21);
    }
}

fn damage_is_detected(deltas: bool, seed: u64) {
    let (on, _, _) = run(true, deltas, seed);
    let (off, _, off_d) = run(false, deltas, seed);
    let off_requests = off_d.counter(obs::ctr::NW_RECONCILE_REQUESTS);
    assert_eq!(off_requests, 0, "ablation arm must not reconcile");
    assert!(!off.converged(), "partition holes must show up as unconverged logs");
    assert!(!off.missed_deliveries.is_empty(), "side-B survivors miss partition items");
    assert!(
        off.survivor_delivered < on.survivor_delivered,
        "anti-entropy off must recover strictly less ({} vs {})",
        off.survivor_delivered,
        on.survivor_delivered
    );
    // Every missed delivery is an item from the partition window — the
    // multicast tree handled everything published while the net was whole.
    for v in &off.missed_deliveries {
        assert!(
            DURING.contains(&v.item.seq),
            "missed item {} outside the partition window",
            v.item
        );
    }
}
