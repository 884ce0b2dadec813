//! Trust-root rotation end to end: a stolen publisher key signs forgeries
//! that honest nodes verify and admit; the registry then revokes the key,
//! the rotation record propagates epidemically, every admission path
//! fences, caches are retroactively purged, and the fleet's servable state
//! converges to byte-equality with a same-seed run that was never
//! compromised at all.

use std::collections::{BTreeMap, BTreeSet};

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{check_invariants, Deployment, DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::{CorruptionOp, CorruptionSpec, FaultPlan, NodeId, SimTime};

/// Subscriber count; the deployment adds one publisher at node 0.
const N: u32 = 48;

/// [`newswire::NewsWireNode::served_articles`]: `(id, key, signature)`.
type Served = Vec<(newsml::ItemId, u64, u64)>;

/// Nothing signed by the revoked key is servable: whatever `served` holds
/// is of the successor-key stream (seqs 8–11).
fn assert_successor_only(node: u32, served: &Served) {
    for (id, _, _) in served {
        assert!(
            id.publisher == PublisherId(0) && (8..12).contains(&id.seq),
            "node {node}: still serving {id:?}, which predates the rotation"
        );
    }
}

fn build(seed: u64) -> Deployment {
    let mut config = NewsWireConfig::tech_news();
    config.admission = true;
    DeploymentBuilder::new(N, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build()
}

/// The nodes the adversary wields the stolen key from.
const THIEVES: [NodeId; 2] = [NodeId(5), NodeId(23)];

fn compromise_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        salt: seed,
        churn: vec![],
        gray: vec![],
        link_cuts: vec![],
        partitions: vec![],
        message_chaos: vec![],
        corruption: vec![CorruptionSpec {
            nodes: THIEVES.to_vec(),
            start: SimTime::from_secs(104),
            end: SimTime::from_secs(118),
            mean_interval_secs: 3.0,
            op: CorruptionOp::StolenKey { publisher: 0, items: 2, attest_bump: 1 },
        }],
        liars: vec![],
        collusion: vec![],
    }
}

/// One full day: publish under the original key, optionally suffer a
/// stolen-key window, rotate at t=120, publish again under the successor
/// key, stabilize. Returns each node's servable-state snapshot, and
/// whether its subscription matches the stream: the tree and anti-entropy
/// owe the articles to those nodes only — what a node that never asked for
/// them happens to cache is not a requirement (ROADMAP item 2(b)).
fn run(seed: u64, compromised: bool) -> BTreeMap<u32, (bool, Served)> {
    let mut d = build(seed);
    d.settle(90);

    let pre: Vec<NewsItem> = (0..8u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("pre-rotation {s}"))
                .category(Category::Technology)
                .build()
        })
        .collect();
    for (i, item) in pre.iter().enumerate() {
        d.publish(SimTime::from_secs(92 + i as u64), item.clone());
    }

    if compromised {
        d.sim.apply_fault_plan(&compromise_plan(seed));
    }

    d.schedule_rotation(SimTime::from_secs(120), PublisherId(0), 3);

    let post: Vec<NewsItem> = (8..12u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("post-rotation {s}"))
                .category(Category::Technology)
                .build()
        })
        .collect();
    for (i, item) in post.iter().enumerate() {
        d.publish(SimTime::from_secs(150 + i as u64), item.clone());
    }
    d.settle(200);

    for (id, node) in d.sim.iter() {
        assert!(
            node.rotation_adopted_at.is_some(),
            "seed {seed}: node {id} never adopted the rotation"
        );
    }
    if compromised {
        let counters = d.sim.fault_counters();
        assert!(counters.key_compromise_strikes > 0, "seed {seed}: stolen key never struck");
        let purged = d.counter(obs::ctr::NW_RETRO_PURGED_ITEMS);
        assert!(purged > 0, "seed {seed}: nothing was retroactively purged");
    }

    // Every item — pre- and post-rotation — must still have reached every
    // interested survivor: the revocation outlaws the *key*, not the
    // history delivered under it, and the successor key must be live.
    let mut all = pre.clone();
    all.extend(post.iter().cloned());
    let exempt: BTreeSet<NodeId> =
        if compromised { THIEVES.into_iter().collect() } else { BTreeSet::new() };
    let report = check_invariants(&d, &all, &exempt);
    assert!(report.survivor_expected > 0, "seed {seed}: vacuous oracle run");
    assert!(
        report.no_post_revocation_delivery(),
        "seed {seed}: post-revocation forged delivery: {report}"
    );
    assert!(report.holds(), "seed {seed}: {report}");
    if compromised {
        assert!(
            d.compromise_exposure_window().is_some(),
            "seed {seed}: exposure window not measured"
        );
    }

    let matching = d.interested_nodes(&all[0]);
    d.sim
        .iter()
        .map(|(id, node)| (id.0, (matching.contains(&id), node.served_articles())))
        .collect()
}

/// The tentpole equivalence: after revocation, purge, and stabilization,
/// the servable article state of a compromised run is byte-equal to the
/// same-seed run in which the key was never stolen — every trace of the
/// adversary's influence on what nodes serve onward has been scrubbed.
#[test]
fn post_revocation_state_matches_never_compromised_run() {
    let seed = 11;
    let attacked = run(seed, true);
    let clean = run(seed, false);
    assert_eq!(attacked.len(), clean.len(), "node sets differ");
    for (node, (matches, served)) in &attacked {
        let (_, clean_served) = clean.get(node).expect("node missing from clean run");
        if *matches {
            assert_eq!(
                served, clean_served,
                "node {node}: servable state diverges from the never-compromised run"
            );
        } else {
            assert_successor_only(*node, served);
            assert_successor_only(*node, clean_served);
        }
    }
}

/// Post-rotation servable state holds only the successor-key stream:
/// everything signed by the revoked key — forged or genuine — has been
/// retroactively purged fleet-wide, and every node subscribed to the stream
/// holds all of it.
#[test]
fn retroactive_purge_scrubs_revoked_key_everywhere() {
    let served = run(7, true);
    for (node, (matches, articles)) in &served {
        assert_successor_only(*node, articles);
        if *matches {
            let seqs: Vec<u64> = articles.iter().map(|(id, _, _)| id.seq).collect();
            assert_eq!(seqs, vec![8, 9, 10, 11], "node {node}: successor-key stream incomplete");
        }
    }
}
