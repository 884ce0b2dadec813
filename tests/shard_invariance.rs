//! The shard count never changes a result, through the whole stack.
//!
//! A NewsWire deployment on the delta wire protocol runs through churn with
//! cold restarts, a partition that heals, and a mis-summarizing liar — so
//! Astrolabe gossip, hand-off retries, final-hop re-sends, reconcile and the
//! protocol layers' own trace records and gauges all cross the window merge
//! of a multi-shard run. The default engine (one shard, drained straight to
//! each deadline) and the same deployment split over 2 and 4 shards must
//! drain byte-identical telemetry and hand every node the same deliveries.

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
    /// A snapshot taken mid-run, between two run calls.
    mid: String,
    /// The final drain.
    drained: String,
    /// Every node's application deliveries, in order.
    deliveries: Vec<Vec<(ItemId, SimTime, bool)>>,
    events: u64,
}

/// Runs the deployment on `shards` (`None`: the default engine).
fn run(shards: Option<usize>) -> Outcome {
    let config = NewsWireConfig { deltas: true, ..NewsWireConfig::tech_news() };
    let mut d = DeploymentBuilder::new(N, 0x5A4D)
        .branching(8)
        .config(config)
        .wan(0.02)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    if let Some(k) = shards {
        d.sim.set_shards(k);
    }
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
    // to ship as chunk deltas.
    let mut prev: [Option<ItemId>; 4] = [None; 4];
    for seq in 0..12u64 {
        let story = (seq % 4) as usize;
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline(format!("story {story} rev {}", seq / 4))
            .slug(format!("shard-story-{story}"))
            .category(Category::Technology)
            .revision((seq / 4) as u32, prev[story])
            .body_len(3_000)
            .build();
        prev[story] = Some(item.id);
        d.publish(SimTime::from_secs(35 + 4 * seq), item);
    }
    // Many short run calls: every call ends in a merge of the shards'
    // metric sets, which must leave what one hub would have.
    for _ in 0..8 {
        d.settle(10);
    }
    let mid = d.sim.snapshot_telemetry().to_json();
    for _ in 0..6 {
        d.settle(10);
    }
    if let Some(k) = shards {
        assert_eq!(d.sim.shard_count(), k, "the run really was split");
    }
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
fn default_engine_and_every_shard_count_drain_identical_telemetry() {
    let default = run(None);
    for k in [2, 4] {
        let sharded = run(Some(k));
        assert_eq!(default.events, sharded.events, "event counts diverged at {k} shards");
        assert_eq!(default.deliveries, sharded.deliveries, "deliveries diverged at {k} shards");
        assert!(default.mid == sharded.mid, "mid-run snapshot diverged at {k} shards");
        assert!(default.drained == sharded.drained, "drained telemetry diverged at {k} shards");
    }
}
