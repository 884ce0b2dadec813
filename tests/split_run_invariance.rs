//! Where a caller pauses a run never changes its result, through the whole
//! stack.
//!
//! A NewsWire deployment on the delta wire protocol runs through churn with
//! cold restarts, a partition that heals, and a mis-summarizing liar — so
//! Astrolabe gossip, hand-off retries, final-hop re-sends, reconcile and the
//! protocol layers' own trace records and gauges all run across run-call
//! boundaries. Settled in fourteen 10-second calls or in one 80-second and
//! one 60-second call, the deployment must show the same snapshot at 80
//! settled seconds, drain byte-identical telemetry and hand every node the
//! same deliveries.

use newsml::{Category, ItemId, NewsItem, PublisherId, PublisherProfile};
use newswire::{DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::{
    ChurnSpec, FaultPlan, LiarBehavior, LiarMode, LiarSpec, NodeId, Partition, PartitionSpec,
    RestartMode, SimTime,
};

const N: u32 = 60;

/// What one run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// A snapshot taken after the first 80 settled seconds.
    mid: String,
    /// The final drain.
    drained: String,
    /// Every node's application deliveries, in order.
    deliveries: Vec<Vec<(ItemId, SimTime, bool)>>,
    events: u64,
}

/// Runs the deployment, settling it in 10-second calls when `short_calls`
/// and in an 80-second and a 60-second call otherwise.
fn run(short_calls: bool) -> Outcome {
    let config = NewsWireConfig { deltas: true, ..NewsWireConfig::tech_news() };
    let mut d = DeploymentBuilder::new(N, 0x5A4D)
        .branching(8)
        .config(config)
        .wan(0.02)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    let plan = FaultPlan {
        salt: 7,
        churn: vec![ChurnSpec {
            nodes: (40..52).map(NodeId).collect(),
            start: SimTime::from_secs(30),
            end: SimTime::from_secs(90),
            mean_up_secs: 15.0,
            mean_down_secs: 8.0,
            recover_at_end: true,
            restart: RestartMode::ColdAmnesia,
        }],
        partitions: vec![PartitionSpec {
            partition: Partition::split_at(N as usize + 1, 30),
            start: SimTime::from_secs(45),
            heal: SimTime::from_secs(60),
        }],
        liars: vec![LiarSpec {
            nodes: vec![NodeId(7)],
            start: SimTime::from_secs(20),
            end: None,
            behavior: LiarBehavior { mode: LiarMode::MisSummarize, prob: 0.5 },
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);
    // Four stories, each told three times, so the delta arm has revisions
    // to ship as chunk deltas. The last publish lands exactly on the
    // 80-second mark.
    let mut prev: [Option<ItemId>; 4] = [None; 4];
    for seq in 0..12u64 {
        let story = (seq % 4) as usize;
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline(format!("story {story} rev {}", seq / 4))
            .slug(format!("split-story-{story}"))
            .category(Category::Technology)
            .revision((seq / 4) as u32, prev[story])
            .body_len(3_000)
            .build();
        prev[story] = Some(item.id);
        d.publish(SimTime::from_secs(36 + 4 * seq), item);
    }
    // Every call ends exactly at its deadline, events at that instant
    // included, so the next call picks up where it stopped.
    let settle = |d: &mut newswire::Deployment, secs: u64| {
        if short_calls {
            for _ in 0..secs / 10 {
                d.settle(10);
            }
        } else {
            d.settle(secs);
        }
    };
    settle(&mut d, 80);
    let published = d.sim.telemetry().borrow().counter_total(obs::ctr::NW_PUBLISHED);
    assert_eq!(published, 12, "a run call processes the events at its deadline");
    let mid = d.sim.snapshot_telemetry().to_json();
    settle(&mut d, 60);
    let faults = d.sim.fault_counters();
    assert!(faults.recoveries > 0 && faults.partitions_healed == 1, "{faults:?}");
    assert!(faults.liar_intercepts > 0, "the liar lied: {faults:?}");
    let deliveries = (0..=N)
        .map(|i| {
            let log = &d.sim.node(NodeId(i)).deliveries;
            log.iter().map(|r| (r.item, r.delivered, r.via_repair)).collect()
        })
        .collect::<Vec<Vec<_>>>();
    assert!(deliveries.iter().map(Vec::len).sum::<usize>() > 0, "news was delivered");
    Outcome {
        mid,
        drained: d.sim.drain_telemetry().to_json(),
        deliveries,
        events: d.sim.events_processed(),
    }
}

#[test]
fn settling_in_short_calls_matches_two_long_ones() {
    let long = run(false);
    let short = run(true);
    assert_eq!(long.events, short.events, "event counts diverged");
    assert_eq!(long.deliveries, short.deliveries, "deliveries diverged");
    assert!(long.mid == short.mid, "the snapshot at 80 settled seconds diverged");
    assert!(long.drained == short.drained, "drained telemetry diverged");
}
