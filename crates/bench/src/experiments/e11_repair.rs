//! E11 — end-to-end reliability through the message cache.
//!
//! Paper basis (§9): "The same cache is used for assisting in achieving
//! end-to-end reliability in the case of forwarding node failures, and for
//! a limited state transfer to participants that are joining the system."
//!
//! Part 1: publish a burst while crashing forwarders mid-dissemination on a
//! lossy network, with anti-entropy (digest reconcile out of the cache)
//! enabled vs disabled, and compare the delivery ratio right after the burst
//! and two minutes later. The named pull runs in both arms: it is part of
//! the tree's last hop, not of the cache's periodic recovery.
//! Part 2: a node that was down through the burst recovers cold; we count
//! how many of the missed items reconcile's state transfer recovers.

use newsml::PublisherId;
use newswire::NewsWireConfig;
use simnet::{NodeId, SimDuration, SimTime};

use crate::experiments::support::tech_item;
use crate::Table;

fn deployment(n: u32, anti_entropy: bool, seed: u64) -> newswire::Deployment {
    let mut config = NewsWireConfig::tech_news();
    config.anti_entropy = anti_entropy;
    config.redundancy = 1; // expose losses so recovery has work to do
    newswire::DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .publisher(newswire::PublisherSpec::global(newsml::PublisherProfile::slashdot(
            PublisherId(0),
        )))
        .cats_per_subscriber(2)
        .wan(0.05)
        .build()
}

struct Outcome {
    early_pct: f64,
    late_pct: f64,
    via_repair: u64,
}

fn run_burst(n: u32, anti_entropy: bool, seed: u64) -> Outcome {
    let mut d = deployment(n, anti_entropy, seed);
    d.settle(90);
    // Crash 5% of the nodes right as the burst starts.
    let victims: Vec<u32> = (1..n).filter(|i| i % 20 == 3).collect();
    for &v in &victims {
        d.sim.schedule_crash(SimTime::from_secs(90), NodeId(v));
    }
    let items: Vec<_> = (0..10u64).map(tech_item).collect();
    let t0 = d.sim.now();
    for (i, item) in items.iter().enumerate() {
        d.publish(t0 + SimDuration::from_secs(i as u64), item.clone());
    }
    let count = |d: &newswire::Deployment| -> (u64, u64) {
        let mut wanted = 0u64;
        let mut got = 0u64;
        for item in &items {
            for node in d.interested_nodes(item) {
                if victims.contains(&node.0) {
                    continue;
                }
                wanted += 1;
                if d.sim.node(node).has_item(item.id) {
                    got += 1;
                }
            }
        }
        (got, wanted)
    };
    d.settle(20);
    let (early_got, early_wanted) = count(&d);
    d.settle(120);
    let (late_got, late_wanted) = count(&d);
    let via_repair: u64 = d
        .sim
        .iter()
        .map(|(_, node)| node.deliveries.iter().filter(|r| r.via_repair).count() as u64)
        .sum();
    Outcome {
        early_pct: 100.0 * early_got as f64 / early_wanted.max(1) as f64,
        late_pct: 100.0 * late_got as f64 / late_wanted.max(1) as f64,
        via_repair,
    }
}

/// The joiner scenario: returns (missed items, recovered items).
fn run_joiner(n: u32, seed: u64) -> (usize, usize) {
    let mut d = deployment(n, true, seed);
    d.settle(90);
    // Find a subscriber interested in the test items and take it down.
    let probe_item = tech_item(999);
    let victim = *d
        .interested_nodes(&probe_item)
        .iter()
        .find(|node| node.0 > 0)
        .expect("an interested subscriber exists");
    d.sim.schedule_crash(SimTime::from_secs(90), victim);
    let items: Vec<_> = (0..10u64).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + i as u64), item.clone());
    }
    d.settle(30);
    let missed = items.iter().filter(|i| !d.sim.node(victim).has_item(i.id)).count();
    d.sim.schedule_recover(d.sim.now() + SimDuration::from_secs(1), victim);
    d.settle(120);
    let recovered = items.iter().filter(|i| d.sim.node(victim).has_item(i.id)).count();
    (missed, recovered)
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 200 } else { 400 };
    let mut table = Table::new(
        "E11 — cache anti-entropy: delivery ratio with crashes + 5% loss (k=1 tree)",
        &["anti-entropy", "after 20 s %", "after 140 s %", "items via recovery"],
    );
    for anti_entropy in [false, true] {
        let o = run_burst(n, anti_entropy, 0xE11);
        table.row(&[
            if anti_entropy { "on" } else { "off" }.to_string(),
            format!("{:.1}", o.early_pct),
            format!("{:.1}", o.late_pct),
            o.via_repair.to_string(),
        ]);
    }
    table.caption(
        "paper: the cache provides end-to-end reliability under forwarding failures; \
         shape: with anti-entropy the late ratio closes to ~100%, without it what the \
         named pull cannot reach stays lost",
    );
    table.print();

    let (missed, recovered) = run_joiner(n, 0xE11);
    let mut joiner = Table::new(
        "E11b — state transfer to a (re)joining node",
        &["items missed while down", "items recovered after rejoin"],
    );
    joiner.row(&[missed.to_string(), recovered.to_string()]);
    joiner.caption("paper: 'a limited state transfer to participants that are joining'");
    joiner.print();
}
