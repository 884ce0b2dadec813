//! E7 — redundant representatives vs forwarder failures.
//!
//! Paper basis (§9): "we use multiple representatives to forward a new
//! item, to increase the robustness of the delivery", with duplicates
//! removed via the publisher-assigned unique item id.
//!
//! We crash a growing fraction of nodes at the instant of publishing (the
//! worst case: the tree's tables still name the dead nodes as
//! representatives) and measure the delivery ratio among interested
//! survivors for the first-pass tree with k = 1, 2, 3 redundant
//! representatives (no acks, no anti-entropy), plus the
//! duplicate-suppression work k costs. A last arm runs the shipped
//! configuration (k = 2, acks and anti-entropy on) under the same crashes:
//! what the recovery behind the tree adds in the same window.

use std::collections::HashSet;

use newswire::{Deployment, NewsWireConfig};
use rand::Rng;
use simnet::{fork, NodeId, SimTime};

use crate::experiments::support::{first_pass, slashdot, tech_item};
use crate::Table;

/// One run's interested-survivor delivery ratios (%) 15 s and 60 s after
/// publishing, and its duplicates per delivery in the first 15 s.
struct Point {
    first: f64,
    late: f64,
    dups: f64,
}

fn run_point(n: u32, fail_pct: u32, config: NewsWireConfig, seed: u64) -> Point {
    let mut d = slashdot(n, config, seed).build();
    // One article during the settle, so every survivor already keeps a log
    // for the publisher when the crashes land: a leaf zone that misses a
    // publisher's very first articles has no log to reconcile (ROADMAP item 13).
    d.settle(45);
    d.publish(d.sim.now(), tech_item(0));
    d.settle(15);
    // Vec keeps the crash schedule in draw order (deterministic); the set
    // makes dedup and the survivor scan O(1) per probe instead of O(n).
    let mut victim_rng = fork(seed, 7);
    let mut victims: Vec<u32> = Vec::new();
    let mut victim_set: HashSet<u32> = HashSet::new();
    while (victims.len() as u32) < n * fail_pct / 100 {
        let v = victim_rng.gen_range(1..=n); // node 0 stays (the publisher)
        if victim_set.insert(v) {
            victims.push(v);
        }
    }
    for &v in &victims {
        d.sim.schedule_crash(SimTime::from_secs(60), NodeId(v));
    }
    let survivors: Vec<u32> = (0..=n).filter(|i| !victim_set.contains(i)).collect();
    let duplicates = |d: &Deployment| -> u64 {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        survivors.iter().map(|&i| hub.node_counter(i as usize, obs::ctr::NW_DUPLICATES)).sum()
    };
    let dups_before = duplicates(&d);
    let items: Vec<_> = (1..=5).map(tech_item).collect();
    for item in &items {
        d.publish(SimTime::from_secs(60), item.clone());
    }
    d.settle(15);
    let ratio = |d: &Deployment| -> (u64, f64) {
        let (mut expected, mut delivered) = (0u64, 0u64);
        for item in &items {
            for id in d.interested_nodes(item) {
                if !victim_set.contains(&id.0) {
                    expected += 1;
                    delivered += u64::from(d.sim.node(id).has_item(item.id));
                }
            }
        }
        (delivered, 100.0 * delivered as f64 / expected.max(1) as f64)
    };
    let (delivered, first) = ratio(&d);
    let dups = (duplicates(&d) - dups_before) as f64 / delivered.max(1) as f64;
    // A first-pass tree has nothing that acts after its first pass.
    let late = if d.config.anti_entropy {
        d.settle(45);
        ratio(&d).1
    } else {
        first
    };
    Point { first, late, dups }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 256 } else { 1_024 };
    let fails: &[u32] = if quick { &[0, 20] } else { &[0, 10, 20, 30, 40] };
    let mut table = Table::new(
        "E7 — survivor delivery ratio when forwarders crash at publish time",
        &["failed %", "k=1 %", "k=2 %", "k=3 %", "dup/delivery k=3", "shipped %", "shipped 60 s %"],
    );
    for &f in fails {
        let [k1, k2, k3] = [1, 2, 3].map(|k| run_point(n, f, first_pass(k), 0xE7));
        let shipped = run_point(n, f, NewsWireConfig::tech_news(), 0xE7);
        table.row(&[
            f.to_string(),
            format!("{:.1}", k1.first),
            format!("{:.1}", k2.first),
            format!("{:.1}", k3.first),
            format!("{:.2}", k3.dups),
            format!("{:.1}", shipped.first),
            format!("{:.1}", shipped.late),
        ]);
    }
    table.caption(format!(
        "{n} subscribers + 1 publisher, branching 8, 5 items published the instant the \
         nodes die (one article before), ratio over interested survivors 15 s later; \
         k=1..3 = first-pass tree (acks and anti-entropy off), shipped = k=2 with acks and \
         anti-entropy, also read 60 s after publishing; paper: redundancy increases \
         robustness, duplicates removed by item id"
    ));
    table.print();
}
