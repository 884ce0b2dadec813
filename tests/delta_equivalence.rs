//! Semantic equivalence of the delta wire protocol: a delta-on run must
//! deliver exactly the news a delta-off run delivers for the same seed.
//!
//! The delta protocol (CDC article deltas, gossip row diffs, compressed-wire
//! accounting) is a wire-format optimization — it changes how bytes are
//! priced and which redundant payload fragments are re-shipped, never which
//! revisions reach which subscribers. This test pins that contract under the
//! E13 chaos cocktail (severe gray nodes plus Poisson churn through the
//! publish window), where repair, reconciliation and gossip all carry real
//! weight: both arms are selected through the one `deltas` switch (the
//! deployment builder derives gossip row diffs and the compressed-wire
//! accounting from it) and must converge every interested node to every
//! story's final revision, with identical per-node outcomes.
//!
//! Mid-chaos *timing* is allowed to differ between arms (delta gossip ships
//! different message sizes, so the latency model schedules differently);
//! converged *state* is not. Within the delta arm, a second same-seed run
//! must drain byte-identical telemetry: the delta wire is exactly as
//! deterministic as the full one.

use std::collections::{BTreeMap, BTreeSet};

use newsml::{Category, ItemId, NewsItem, PublisherId, PublisherProfile};
use newswire::{DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::{fork, ChurnSpec, FaultPlan, GrayProfile, GraySpec, NodeId, RestartMode, SimTime};

const N: u32 = 100;
const STORIES: u32 = 4;
const REVS: u32 = 3;

/// One arm's converged outcome, in a form directly comparable across arms.
#[derive(Debug, PartialEq, Eq)]
struct ArmState {
    /// For every story slug, every node holding it: node → latest cached
    /// revision. Restricted to interested nodes (forwarder-side caching is
    /// routing-dependent and not part of the delivery contract).
    cache: BTreeMap<String, BTreeMap<u32, u32>>,
    /// For every story slug, the latest revision *delivered to the
    /// application* per continuously-live interested node. Churned nodes
    /// clear their delivery logs mid-run, so their delivered view depends on
    /// freeze timing; their converged cache (above) is still compared.
    delivered: BTreeMap<String, BTreeMap<u32, u32>>,
}

struct Arm {
    state: ArmState,
    bytes_sent: u64,
    bytes_wire: u64,
    telemetry: String,
}

/// Runs the seeded chaos workload with the delta protocol explicitly on or
/// off and extracts the converged per-node state.
fn run_arm(deltas: bool, seed: u64) -> Arm {
    let config = NewsWireConfig { deltas, ..NewsWireConfig::tech_news() };
    let mut d = DeploymentBuilder::new(N, seed)
        .branching(8)
        .config(config)
        .wan(0.02)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    d.settle(60);

    // The E13 cocktail, drawn from a stream independent of the delta knob so
    // both arms face the identical fault plan: 20% of subscribers severely
    // gray and a further 20% Poisson-churning through the publish window.
    let total = N + 1; // + the publisher at node 0, which is spared
    let mut pick_rng = fork(seed, 0x13);
    let mut picked = BTreeSet::new();
    let mut gray_nodes = Vec::new();
    while (gray_nodes.len() as u32) < N / 5 {
        let v = rand::Rng::gen_range(&mut pick_rng, 1..total);
        if picked.insert(v) {
            gray_nodes.push(NodeId(v));
        }
    }
    let mut churn_nodes = Vec::new();
    while (churn_nodes.len() as u32) < N / 5 {
        let v = rand::Rng::gen_range(&mut pick_rng, 1..total);
        if picked.insert(v) {
            churn_nodes.push(NodeId(v));
        }
    }
    let plan = FaultPlan {
        salt: seed,
        gray: vec![GraySpec {
            nodes: gray_nodes,
            start: SimTime::from_secs(60),
            end: Some(SimTime::from_secs(130)),
            profile: GrayProfile::severe(),
        }],
        churn: vec![ChurnSpec {
            nodes: churn_nodes.clone(),
            start: SimTime::from_secs(60),
            end: SimTime::from_secs(130),
            mean_up_secs: 30.0,
            mean_down_secs: 10.0,
            recover_at_end: true,
            restart: RestartMode::Freeze,
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);
    let churned: BTreeSet<NodeId> = plan.churned_nodes().into_iter().collect();

    // A revision-heavy feed through the brownout, so revision fusion, named
    // pulls and reconciliation all re-ship bodies the delta arm can price
    // as chunk references.
    let mut items: Vec<NewsItem> = Vec::new();
    let mut prev: Vec<Option<ItemId>> = vec![None; STORIES as usize];
    for rev in 0..REVS {
        for story in 0..STORIES {
            let item = NewsItem::builder(PublisherId(0), u64::from(rev * STORIES + story))
                .headline(format!("story {story} rev {rev}"))
                .slug(format!("eq-story-{story}"))
                .category(Category::Technology)
                .revision(rev, prev[story as usize])
                .body_len(8_000 + 160 * rev)
                .build();
            prev[story as usize] = Some(item.id);
            d.publish(
                SimTime::from_secs(65 + 15 * u64::from(rev) + u64::from(story)),
                item.clone(),
            );
            items.push(item);
        }
    }
    // Ride out the chaos window (ends at t=130), then a long repair and
    // reconciliation tail so both arms reach their converged state.
    d.settle(160);

    let rev_of: BTreeMap<ItemId, (String, u32)> =
        items.iter().map(|i| (i.id, (i.slug.clone(), i.revision))).collect();
    let mut cache = BTreeMap::new();
    let mut delivered = BTreeMap::new();
    for item in items.iter().filter(|i| i.revision == REVS - 1) {
        let cache_slot: &mut BTreeMap<u32, u32> = cache.entry(item.slug.clone()).or_default();
        let deliv_slot: &mut BTreeMap<u32, u32> = delivered.entry(item.slug.clone()).or_default();
        for node in d.interested_nodes(item) {
            let nw = d.sim.node(node);
            if let Some(latest) = nw.cache.latest_for_slug(item.id.publisher, &item.slug) {
                cache_slot.insert(node.0, latest.revision);
            }
            if !churned.contains(&node) {
                let newest = nw
                    .deliveries
                    .iter()
                    .filter_map(|del| rev_of.get(&del.item))
                    .filter(|(slug, _)| *slug == item.slug)
                    .map(|(_, rev)| *rev)
                    .max();
                if let Some(rev) = newest {
                    deliv_slot.insert(node.0, rev);
                }
            }
        }
    }

    let bytes_sent = d.sim.total_counters().bytes_sent;
    let bytes_wire = {
        let hub = d.sim.telemetry();
        let total = hub.borrow().counter_total(obs::ctr::BYTES_WIRE);
        if deltas {
            let hub = hub.borrow();
            assert!(
                hub.counter_total(obs::ctr::DELTA_ITEMS_SENT) > 0,
                "delta arm sanity: CDC article deltas actually ran"
            );
            assert!(
                hub.counter_total(obs::ctr::GOSSIP_REFRESH_ROWS) > 0,
                "delta arm sanity: gossip row diffs actually ran"
            );
        }
        total
    };
    let telemetry = d.sim.drain_telemetry().to_json();
    Arm { state: ArmState { cache, delivered }, bytes_sent, bytes_wire, telemetry }
}

#[test]
fn delta_on_delivers_identical_state_under_chaos() {
    let full = run_arm(false, 0x0DE1_7AE0);
    let delta = run_arm(true, 0x0DE1_7AE0);

    // Neither arm's equivalence may be vacuous: every story must have
    // interested nodes, and every interested node must have converged to the
    // final revision in cache (the chaos plan recovered, repair had 160 s).
    assert_eq!(full.state.cache.len(), STORIES as usize, "every story has interested nodes");
    for (slug, nodes) in &full.state.cache {
        assert!(!nodes.is_empty(), "{slug}: interested set non-empty");
        for (&node, &rev) in nodes {
            assert_eq!(rev, REVS - 1, "{slug}: node {node} converged to the final revision");
        }
    }
    // Continuously-live interested nodes must also have *delivered* the
    // final revision — cache convergence without app delivery is a bug.
    for (slug, nodes) in &full.state.delivered {
        for (&node, &rev) in nodes {
            assert_eq!(rev, REVS - 1, "{slug}: node {node} delivered the final revision");
        }
    }

    // The contract itself: per-node converged state identical across arms.
    assert_eq!(full.state, delta.state, "delta arm must deliver exactly what the full arm does");

    // Same seed, same delta arm, same bytes.
    let again = run_arm(true, 0x0DE1_7AE0);
    assert!(again.telemetry == delta.telemetry, "delta arm telemetry must replay byte for byte");

    // And the delta arm must have actually been cheaper on the wire: the
    // compressed accounting lane strictly undercuts its own full-priced
    // total (the full arm never tallies the lane).
    assert_eq!(full.bytes_wire, 0, "delta accounting stays off in the full arm");
    assert!(delta.bytes_wire > 0, "delta arm tallies the compressed lane");
    assert!(
        delta.bytes_wire < delta.bytes_sent,
        "delta arm saves wire bytes: wire {} vs sent {}",
        delta.bytes_wire,
        delta.bytes_sent
    );
}
