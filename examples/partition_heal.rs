//! A deterministic partition-and-heal scenario, printed verbosely enough
//! to diff two runs bit-for-bit — CI runs this twice with the same seed
//! and compares the output, which pins down the whole stack (chaos engine,
//! gossip, forwarding, row timeouts, log reconciliation) as replayable.
//!
//! The shape: a 60-second clean split along zone boundaries while the
//! newsroom keeps publishing, then a heal, then more publishing so every
//! cache high-water mark jumps past the partition hole. Only the
//! gossip-piggybacked log reconciliation can close holes that deep; the
//! run ends with the oracle checking full convergence.
//!
//! Run with: `cargo run --release --example partition_heal [seed]`

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{check_invariants, DeploymentBuilder, NewsWireConfig, PublisherSpec};
use obs::ctr;
use simnet::{FaultPlan, Partition, PartitionSpec, SimTime};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0x9EA1);
    let subscribers = 63u32;
    let total = subscribers as usize + 1; // publisher at node 0
    let split = total / 2;

    let mut d = DeploymentBuilder::new(subscribers, seed)
        .branching(8)
        .config(NewsWireConfig::tech_news())
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    println!("partition heal: {total} nodes, seed {seed:#x}; split {split}|{}", total - split);
    d.settle(60);

    d.sim.apply_fault_plan(&FaultPlan {
        partitions: vec![PartitionSpec {
            partition: Partition::split_at(total, split),
            start: SimTime::from_secs(80),
            heal: SimTime::from_secs(140),
        }],
        ..FaultPlan::default()
    });

    // 5 items before the split, 30 during, 20 after the heal.
    let items: Vec<NewsItem> = (0..55u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("dispatch {s}"))
                .category(Category::Technology)
                .body_len(700)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate().take(5) {
        d.publish(SimTime::from_secs(62 + 2 * i as u64), item.clone());
    }
    for (i, item) in items.iter().enumerate().skip(5).take(30) {
        d.publish(SimTime::from_secs(81 + 2 * (i as u64 - 5)), item.clone());
    }
    for (i, item) in items.iter().enumerate().skip(35) {
        d.publish(SimTime::from_secs(142 + 2 * (i as u64 - 35)), item.clone());
    }
    d.settle(240);

    let f = d.sim.fault_counters();
    println!(
        "faults: partitions {}/{} started/healed, {} drops to the cut",
        f.partitions_started, f.partitions_healed, f.drops_partition
    );
    println!(
        "protocol: {} forwards, {} acks, {} retries, {} failovers ({} suspect-shortcut), \
         {} abandoned",
        d.counter(ctr::NW_FORWARDS),
        d.counter(ctr::NW_ACKS_RECEIVED),
        d.counter(ctr::NW_ACK_RETRIES),
        d.counter(ctr::NW_ACK_FAILOVERS),
        d.counter(ctr::NW_SUSPECT_FAILOVERS),
        d.counter(ctr::NW_HANDOFFS_ABANDONED)
    );
    println!(
        "reconcile: {} requests, {} served, {} items out ({} bytes), {} items in, \
         {} retargets",
        d.counter(ctr::NW_RECONCILE_REQUESTS),
        d.counter(ctr::NW_RECONCILES_SERVED),
        d.counter(ctr::NW_RECONCILE_ITEMS_SENT),
        d.counter(ctr::NW_RECONCILE_BYTES_SENT),
        d.counter(ctr::NW_RECONCILE_ITEMS_RECV),
        d.counter(ctr::NW_RECONCILE_RETARGETS)
    );

    // Per-node digest: enough detail that any divergence between two runs
    // of the same seed shows up in a plain diff.
    for (id, node) in d.sim.iter() {
        let last_us = node
            .deliveries
            .iter()
            .map(|r| r.delivered.since(SimTime::ZERO).as_micros())
            .max()
            .unwrap_or(0);
        let log = node.article_log(PublisherId(0));
        println!(
            "node {:>2}: delivered {:>2} (repair {:>2}) log {} last_us {}",
            id.0,
            node.deliveries.len(),
            node.deliveries.iter().filter(|r| r.via_repair).count(),
            log.map(|l| l.summary())
                .map(|s| format!("{}:{}:{}:{}", s.epoch, s.floor, s.next, s.present))
                .unwrap_or_else(|| "-".into()),
            last_us,
        );
    }

    let report = check_invariants(&d, &items, &BTreeSet::new());
    print!("{report}");
    report.assert_holds();
    assert!(report.converged(), "anti-entropy must fully converge the logs:\n{report}");
    println!("converged: true");
    println!("ok");
}
