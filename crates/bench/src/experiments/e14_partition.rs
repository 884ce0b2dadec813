//! E14 — partition healing: time-to-reconvergence and repair cost across
//! partition duration × shape, with the log anti-entropy ablation.
//!
//! Paper basis (§9): the robustness section promises the cache makes
//! delivery eventual. The tree's own recovery — ack retries, and the named
//! pull of the last few items a `Deliver` chain reveals — reaches what one
//! link lost a moment ago. A network partition creates a different kind
//! of damage: a deep, bounded hole in the middle of the sequence space
//! that no post-heal `Deliver` names. The epoch/sequence article logs close
//! exactly that gap: fixed-size digests piggyback on rows Astrolabe already
//! gossips, holes are detected by range subtraction, and missing spans are
//! pulled from the freshest reachable peer (cross-zone when the whole leaf
//! zone shares the hole).
//!
//! Both ablation arms run the identical, deterministic fault schedule; the
//! only difference is the `anti_entropy` knob. Reported per point: the
//! fraction of partition-window items recovered by interested survivors on
//! the cut side, the p99 recovery latency after the heal, and the
//! reconciliation traffic that paid for it.

use newswire::{check_invariants, Deployment, NewsWireConfig};
use simnet::{FaultPlan, Partition, PartitionSpec, SimTime};

use crate::experiments::support::{dump_telemetry, tech_item};
use crate::Table;

/// Partition shape: where the cut falls relative to the zone tree.
#[derive(Clone, Copy)]
enum Shape {
    /// Half the fleet on each side, split at a zone boundary; the
    /// publisher keeps the lower half.
    Half,
    /// One top-level region isolated from everyone else (the publisher
    /// stays with the majority).
    Island,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Half => "half",
            Shape::Island => "island",
        }
    }

    /// The group assignment over `total` nodes; group 1 is the cut side
    /// (away from the publisher at node 0).
    fn groups(self, d: &Deployment, total: u32) -> Vec<u32> {
        match self {
            Shape::Half => (0..total).map(|i| u32::from(i >= total / 2)).collect(),
            Shape::Island => {
                let region = |i: u32| d.layout.leaf_zone(i).path().first().copied().unwrap_or(0);
                let last = (0..total).map(region).max().unwrap_or(0);
                (0..total).map(|i| u32::from(region(i) == last)).collect()
            }
        }
    }
}

struct Point {
    /// Partition-window recovery on the cut side, percent.
    recovered_pct: f64,
    /// p99 of (delivery time − heal time) over recovered window items.
    reconv_p99_secs: f64,
    /// Reconcile payload shipped, KiB.
    reconcile_kib: f64,
    /// Reconcile requests sent.
    requests: u64,
    /// Whole-run oracle verdicts.
    holds: bool,
    converged: bool,
}

#[allow(clippy::cast_precision_loss)]
fn run_point(n: u32, shape: Shape, dur_secs: u64, anti_entropy: bool, seed: u64) -> Point {
    let config = NewsWireConfig { anti_entropy, ..NewsWireConfig::tech_news() };
    let mut d = newswire::DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .publisher(newswire::PublisherSpec::global(newsml::PublisherProfile::slashdot(
            newsml::PublisherId(0),
        )))
        .cats_per_subscriber(2)
        .build();
    d.settle(90);

    let total = n + 1; // + the publisher at node 0
    let groups = shape.groups(&d, total);
    let start = SimTime::from_secs(100);
    let heal = SimTime::from_secs(100 + dur_secs);
    // The schedule is fully deterministic — both ablation arms face the
    // identical partition window by construction.
    d.sim.apply_fault_plan(&FaultPlan {
        partitions: vec![PartitionSpec { partition: Partition::new(groups.clone()), start, heal }],
        ..FaultPlan::default()
    });

    // 5 items before the cut, one every 2 s during it, 20 after the heal —
    // every hand-off across the cut is abandoned inside the window, so no
    // ack retry reaches the hole.
    let window = dur_secs / 2;
    let items: Vec<_> = (0..5 + window + 20).map(tech_item).collect();
    for (i, item) in items.iter().enumerate().take(5) {
        d.publish(SimTime::from_secs(92 + i as u64), item.clone());
    }
    for k in 0..window {
        d.publish(SimTime::from_secs(101 + 2 * k), items[5 + k as usize].clone());
    }
    for k in 0..20u64 {
        d.publish(
            heal + simnet::SimDuration::from_secs(2 + 2 * k),
            items[(5 + window + k) as usize].clone(),
        );
    }
    d.settle(100 + dur_secs + 150 - 90); // ends 110 s after the last publish

    // Cut-side recovery of the partition-window items.
    let mut expected = 0u64;
    let mut recovered = 0u64;
    let mut reconv = simnet::Summary::new();
    for (id, node) in d.sim.iter() {
        if groups[id.0 as usize] != 1 {
            continue;
        }
        for item in &items[5..(5 + window) as usize] {
            if !node.subscription.matches(item) {
                continue;
            }
            expected += 1;
            if let Some(rec) = node.deliveries.iter().find(|r| r.item == item.id) {
                recovered += 1;
                reconv.record(rec.delivered.saturating_since(heal).as_secs_f64());
            }
        }
    }
    let report = check_invariants(&d, &items, &std::collections::BTreeSet::new());
    let reconcile_bytes = d.counter(obs::ctr::NW_RECONCILE_BYTES_SENT);
    let requests = d.counter(obs::ctr::NW_RECONCILE_REQUESTS);
    dump_telemetry(
        &format!("e14_{}_{dur_secs}s_ae{}", shape.label(), u8::from(anti_entropy)),
        &mut d.sim,
    );
    Point {
        recovered_pct: if expected == 0 {
            100.0
        } else {
            100.0 * recovered as f64 / expected as f64
        },
        reconv_p99_secs: if reconv.is_empty() { 0.0 } else { reconv.quantile(0.99) },
        reconcile_kib: reconcile_bytes as f64 / 1024.0,
        requests,
        holds: report.holds(),
        converged: report.converged(),
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 119 } else { 199 };
    let durations: &[u64] = if quick { &[60] } else { &[30, 60, 120] };
    let shapes: &[Shape] = if quick { &[Shape::Half] } else { &[Shape::Half, Shape::Island] };
    let mut table = Table::new(
        "E14 — partition healing: cut-side recovery, anti-entropy on vs off",
        &["shape", "cut s", "off %", "on %", "reconv p99 s", "reconcile KiB", "requests", "oracle"],
    );
    for &shape in shapes {
        for &dur in durations {
            let off = run_point(n, shape, dur, false, 0xE14);
            let on = run_point(n, shape, dur, true, 0xE14);
            assert!(
                on.recovered_pct > off.recovered_pct,
                "anti-entropy must recover strictly more ({} vs {})",
                on.recovered_pct,
                off.recovered_pct
            );
            table.row(&[
                shape.label().to_string(),
                dur.to_string(),
                format!("{:.1}", off.recovered_pct),
                format!("{:.1}", on.recovered_pct),
                format!("{:.1}", on.reconv_p99_secs),
                format!("{:.1}", on.reconcile_kib),
                on.requests.to_string(),
                format!(
                    "{}{}",
                    if on.holds && on.converged { "on:ok" } else { "on:FAIL" },
                    if off.converged { " off:??" } else { " off:detected" },
                ),
            ]);
        }
    }
    table.caption(format!(
        "{n} subscribers + 1 publisher, branching 8; partition at t=100 for the stated \
         window while one item publishes every 2 s, then 20 more items after the heal \
         (hand-offs across the cut are abandoned inside the window: the tree's acks \
         are blind to the hole). \
         Recovery counts interested survivors on the cut side over partition-window items; \
         reconv p99 is delivery lag after the heal. Identical fault schedule both arms; \
         'off:detected' = the oracle flagged the ablation arm's unconverged logs."
    ));
    table.print();
}
