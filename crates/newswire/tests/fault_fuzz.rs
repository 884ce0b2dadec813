//! Randomized fault injection: under seeded chaos plans — Poisson churn,
//! gray brownouts, network duplication/reordering, bounded loss — and
//! ongoing publishing, the system must uphold its core invariants: no
//! duplicate application deliveries, no deliveries to uninterested nodes,
//! no unauthenticated items, and eventual delivery to every
//! continuously-live interested node. Every run is replayable bit-for-bit
//! from its seed.

use std::collections::BTreeSet;
use std::sync::Arc;

use amcast::FilterSpec;
use astrolabe::ZoneId;
use newsml::{Category, ItemId, NewsItem, PublisherId, PublisherProfile};
use newswire::{
    check_invariants, msg_id_of, DeploymentBuilder, Envelope, NewsWireConfig, NewsWireMsg,
    PublisherCredential, PublisherSpec,
};
use rand::Rng;
use simnet::{
    fork, ChurnSpec, CollusionSpec, CorruptionOp, CorruptionSpec, FaultCounters, FaultPlan,
    GrayProfile, GraySpec, MessageChaosSpec, NodeId, SimDuration, SimTime,
};

/// Subscriber count; the deployment adds one publisher at node 0.
const N: u32 = 120;

/// Draws the seeded chaos plan for one fuzz run: Poisson churn over up to
/// 12 victims, a gray brownout over up to 8 further nodes, and a
/// duplication/reordering window across the whole fault era. Node 0 (the
/// publisher) is spared.
fn plan_for(seed: u64) -> FaultPlan {
    let mut rng = fork(seed, 0xF0);
    let mut picked: BTreeSet<u32> = BTreeSet::new();
    let mut victims = Vec::new();
    for _ in 0..12 {
        // Subscribers occupy `1..=N`; draw from `1..N` so the publisher at
        // node 0 is never hit and the bound stays obviously in range.
        let v = rng.gen_range(1..N);
        if picked.insert(v) {
            victims.push(NodeId(v));
        }
    }
    let mut browned = Vec::new();
    for _ in 0..8 {
        let v = rng.gen_range(1..N);
        if picked.insert(v) {
            browned.push(NodeId(v));
        }
    }
    FaultPlan {
        salt: seed,
        churn: vec![ChurnSpec {
            nodes: victims,
            start: SimTime::from_secs(90),
            end: SimTime::from_secs(140),
            mean_up_secs: 20.0,
            mean_down_secs: 12.0,
            recover_at_end: true,
            restart: simnet::RestartMode::Freeze,
        }],
        gray: vec![GraySpec {
            nodes: browned,
            start: SimTime::from_secs(95),
            end: Some(SimTime::from_secs(145)),
            profile: GrayProfile::brownout(),
        }],
        link_cuts: vec![],
        partitions: vec![],
        message_chaos: vec![MessageChaosSpec {
            start: SimTime::from_secs(90),
            end: Some(SimTime::from_secs(145)),
            dup_prob: 0.05,
            reorder_prob: 0.25,
            reorder_jitter: SimDuration::from_millis(40),
        }],
        corruption: vec![],
        liars: vec![],
        collusion: vec![],
    }
}

/// Draws the seeded Byzantine plan for one fuzz run: a colluding group
/// jointly capturing publisher 0's log epoch, plus a separate clique of
/// forgers fabricating items under bogus signatures. Node 0 (the publisher)
/// is spared, and colluders/forgers are disjoint.
fn byzantine_plan_for(seed: u64) -> FaultPlan {
    let mut rng = fork(seed, 0xB7);
    let mut picked: BTreeSet<u32> = BTreeSet::new();
    let draw = |rng: &mut _, picked: &mut BTreeSet<u32>, n: usize| {
        let mut out = Vec::new();
        while out.len() < n {
            let v: u32 = rand::Rng::gen_range(rng, 1..N);
            if picked.insert(v) {
                out.push(NodeId(v));
            }
        }
        out
    };
    let colluders = draw(&mut rng, &mut picked, 5);
    let forgers = draw(&mut rng, &mut picked, 3);
    let (start, end) = (SimTime::from_secs(90), SimTime::from_secs(140));
    FaultPlan {
        salt: seed,
        churn: vec![],
        gray: vec![],
        link_cuts: vec![],
        partitions: vec![],
        message_chaos: vec![],
        corruption: vec![
            CorruptionSpec {
                nodes: colluders.clone(),
                start,
                end,
                mean_interval_secs: 6.0,
                op: CorruptionOp::VoteEpoch { publisher: 0, epoch: 0 },
            },
            CorruptionSpec {
                nodes: forgers,
                start,
                end,
                mean_interval_secs: 8.0,
                op: CorruptionOp::ForgeItems { items: 3, publisher: 0 },
            },
        ],
        liars: vec![],
        collusion: vec![CollusionSpec { nodes: colluders, start, end }],
    }
}

/// Every node a plan's strikes puppet.
fn strikers(plan: &FaultPlan) -> BTreeSet<NodeId> {
    plan.corruption.iter().flat_map(|c| c.nodes.iter().copied()).collect()
}

/// One Byzantine chaos run with defenses on. Returns the same replayable
/// fingerprint as [`fuzz_once`]; asserts the forgery-safety verdict and
/// that the adversary actually struck.
fn byzantine_once(seed: u64) -> (Vec<(u32, u64, u64)>, FaultCounters) {
    let mut d = DeploymentBuilder::new(N, seed)
        .branching(8)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(90);

    let plan = byzantine_plan_for(seed);
    d.sim.apply_fault_plan(&plan);

    let items: Vec<NewsItem> = (0..12u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("byz {s}"))
                .category(Category::Technology)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(92 + 3 * i as u64), item.clone());
    }
    d.settle(150);

    let counters = d.sim.fault_counters();
    assert!(counters.collusion_strikes > 0, "seed {seed}: collusion never struck");
    assert!(counters.forged_items_injected > 0, "seed {seed}: forgery never injected");

    // Byzantine nodes are exempt from eventual delivery (their own state
    // was puppeted — e.g. an epoch-captured log dedups real items as
    // already-seen) but every honest node is held to every invariant, and
    // with defenses on, no forged item may have reached ANY application —
    // colluders and forgers included.
    let exempt = strikers(&plan);
    let report = check_invariants(&d, &items, &exempt);
    assert!(report.survivor_expected > 0, "seed {seed}: vacuous oracle run");
    assert!(report.no_forged_delivery(), "seed {seed}: forged delivery: {report}");
    assert!(report.holds(), "seed {seed}: {report}");

    let mut fingerprint = Vec::new();
    for (id, node) in d.sim.iter() {
        for rec in &node.deliveries {
            fingerprint.push((
                id.0,
                msg_id_of(rec.item),
                rec.delivered.since(SimTime::ZERO).as_micros(),
            ));
        }
    }
    (fingerprint, counters)
}

/// Draws the seeded trust-root plan for one fuzz run: a stolen-key window
/// (the adversary signs forgeries and bogus attestations with publisher 0's
/// real key) plus a Sybil identity burst. Node 0 (the publisher) is spared,
/// and thieves/Sybil strikers are disjoint.
fn trust_plan_for(seed: u64) -> FaultPlan {
    let mut rng = fork(seed, 0x7A);
    let mut picked: BTreeSet<u32> = BTreeSet::new();
    let draw = |rng: &mut _, picked: &mut BTreeSet<u32>, n: usize| {
        let mut out = Vec::new();
        while out.len() < n {
            let v: u32 = rand::Rng::gen_range(rng, 1..N);
            if picked.insert(v) {
                out.push(NodeId(v));
            }
        }
        out
    };
    let thieves = draw(&mut rng, &mut picked, 3);
    let sybils = draw(&mut rng, &mut picked, 2);
    FaultPlan {
        salt: seed,
        churn: vec![],
        gray: vec![],
        link_cuts: vec![],
        partitions: vec![],
        message_chaos: vec![],
        // The stolen-key window opens at t=105, after the real stream has
        // circulated, so forged seqs land beyond the published range and
        // stay visible to the oracle as forgeries rather than colliding
        // with real ids.
        corruption: vec![
            CorruptionSpec {
                nodes: thieves,
                start: SimTime::from_secs(105),
                end: SimTime::from_secs(135),
                mean_interval_secs: 6.0,
                op: CorruptionOp::StolenKey { publisher: 0, items: 2, attest_bump: 2 },
            },
            CorruptionSpec {
                nodes: sybils,
                start: SimTime::from_secs(95),
                end: SimTime::from_secs(140),
                mean_interval_secs: 7.0,
                op: CorruptionOp::SybilFlood { identities: 6, epoch: 0 },
            },
        ],
        liars: vec![],
        collusion: vec![],
    }
}

/// One trust-root chaos run with defenses and admission control on: the
/// adversary holds publisher 0's real signing key mid-run, the registry
/// revokes it at t=125, and the revocation record must propagate and fence
/// every admission path. Returns the same replayable fingerprint as
/// [`fuzz_once`]; asserts the revocation-safety verdict and that both
/// adversaries actually struck.
fn trust_once(seed: u64) -> (Vec<(u32, u64, u64)>, FaultCounters) {
    let mut config = NewsWireConfig::tech_news();
    config.admission = true;
    let mut d = DeploymentBuilder::new(N, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(90);

    let plan = trust_plan_for(seed);
    d.sim.apply_fault_plan(&plan);

    let items: Vec<NewsItem> = (0..12u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("trust {s}"))
                .category(Category::Technology)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(92 + i as u64), item.clone());
    }
    // Revocation lands mid-window: strikes before t=125 are the sanctioned
    // exposure, strikes after it must bounce off every fence.
    d.schedule_rotation(SimTime::from_secs(125), PublisherId(0), 4);
    d.settle(200);

    let counters = d.sim.fault_counters();
    assert!(counters.key_compromise_strikes > 0, "seed {seed}: stolen key never struck");
    assert!(counters.sybil_joins_attempted > 0, "seed {seed}: Sybil burst never struck");

    for (id, node) in d.sim.iter() {
        assert!(
            node.rotation_adopted_at.is_some(),
            "seed {seed}: node {id} never adopted the rotation"
        );
    }

    // Thieves and Sybil strikers are exempt from eventual delivery (their
    // own state was puppeted), but no node — them included — may deliver
    // forged content after adopting the revocation.
    let exempt = strikers(&plan);
    let report = check_invariants(&d, &items, &exempt);
    assert!(report.survivor_expected > 0, "seed {seed}: vacuous oracle run");
    assert!(
        report.no_post_revocation_delivery(),
        "seed {seed}: post-revocation forged delivery: {report}"
    );
    assert!(report.holds(), "seed {seed}: {report}");

    let mut fingerprint = Vec::new();
    for (id, node) in d.sim.iter() {
        for rec in &node.deliveries {
            fingerprint.push((
                id.0,
                msg_id_of(rec.item),
                rec.delivered.since(SimTime::ZERO).as_micros(),
            ));
        }
    }
    (fingerprint, counters)
}

/// Garbage from outside the membership, through the fault era: named pulls
/// of up to a thousand ids — held ones among publishers nobody has and
/// sequence numbers from the future — and, every other one, of nothing at
/// all. The named pull is retired and every node drops these: no panic, no
/// reply, no invariant moved.
fn garbage_repair_requests(d: &mut newswire::Deployment, seed: u64) {
    let mut rng = fork(seed, 0x6A);
    for k in 0..16u64 {
        let ids = if k % 2 == 0 { garbage_ids(&mut rng) } else { Vec::new() };
        d.sim.schedule_external(
            SimTime::from_secs(95 + 3 * k),
            NodeId(rng.gen_range(1..N)),
            NewsWireMsg::RepairRequest { ids },
        );
    }
}

/// Up to a thousand item ids: real ones, publishers nobody has, sequence
/// numbers nobody has published yet.
fn garbage_ids(rng: &mut impl Rng) -> Vec<ItemId> {
    let n = rng.gen_range(1..=1000);
    (0..n)
        .map(|_| ItemId::new(PublisherId(rng.gen_range(0..3)), rng.gen_range(0..1 << 40)))
        .collect()
}

/// Stray genuine `Deliver`s: each published item is `Deliver`ed once more,
/// from outside the membership, to a random node. The receiver has nobody
/// to acknowledge it to and may already hold it; no panic, no second
/// application delivery, no invariant moved.
fn stray_delivers(d: &mut newswire::Deployment, published: &[(SimTime, NewsItem)], seed: u64) {
    let mut rng = fork(seed, 0x6B);
    let cred = d.sim.node(NodeId(0)).publisher().expect("node 0 publishes").credential.clone();
    for (at, item) in published {
        // The bytes the publisher signed: it stamps the issue time.
        let mut item = item.clone();
        item.issued_us = at.as_micros();
        d.sim.schedule_external(
            *at + SimDuration::from_secs(2),
            NodeId(rng.gen_range(1..N)),
            NewsWireMsg::Deliver { env: envelope(&cred, item), announce: false },
        );
    }
}

/// `item` in an envelope under `cred`, as its publisher would send it.
fn envelope(cred: &PublisherCredential, item: NewsItem) -> Arc<Envelope> {
    let item = Arc::new(item);
    Arc::new(Envelope {
        msg_id: msg_id_of(item.id),
        filter: FilterSpec::All,
        scope: ZoneId::root(),
        certificate: cred.certificate.clone(),
        key: cred.key_id(),
        signature: cred.sign(&item),
        attest: cred.attest_epoch(0),
        basis: None,
        item,
    })
}

/// Announces from outside the membership, through the fault era: of
/// articles nobody published — publishers nobody has, sequence numbers past
/// every log head — and of published ones, to random nodes. A receiver reads
/// nothing but the id and has nobody to acknowledge: no panic, no delivery,
/// nothing held.
fn garbage_announces(d: &mut newswire::Deployment, published: &[(SimTime, NewsItem)], seed: u64) {
    let mut rng = fork(seed, 0x6C);
    let cred = d.sim.node(NodeId(0)).publisher().expect("node 0 publishes").credential.clone();
    for k in 0..48u64 {
        let id = match k % 3 {
            0 => ItemId::new(PublisherId(rng.gen_range(0..3)), rng.gen_range(0..1 << 40)),
            1 => ItemId::new(PublisherId(0), published.len() as u64 + rng.gen_range(0..1000u64)),
            _ => published[rng.gen_range(0..published.len())].1.id,
        };
        let env = envelope(&cred, NewsItem::builder(id.publisher, id.seq).build());
        d.sim.schedule_external(
            SimTime::from_secs(93 + k),
            NodeId(rng.gen_range(1..N)),
            NewsWireMsg::Deliver { env, announce: true },
        );
    }
}

/// One full chaos run. Returns a fingerprint of every application delivery
/// `(node, msg_id, delivered_us)` plus the engine's fault counters, so
/// replays can be compared bit-for-bit.
fn fuzz_once(seed: u64) -> (Vec<(u32, u64, u64)>, FaultCounters) {
    let mut d = DeploymentBuilder::new(N, seed)
        .branching(8)
        .wan(0.02)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(90);

    let plan = plan_for(seed);
    d.sim.apply_fault_plan(&plan);
    garbage_repair_requests(&mut d, seed);

    let items: Vec<NewsItem> = (0..12u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("fuzz {s}"))
                .category(Category::Technology)
                .build()
        })
        .collect();
    let published: Vec<(SimTime, NewsItem)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (SimTime::from_secs(92 + 3 * i as u64), item.clone()))
        .collect();
    for (at, item) in &published {
        d.publish(*at, item.clone());
    }
    stray_delivers(&mut d, &published, seed);
    garbage_announces(&mut d, &published, seed);
    // Churn recovers everyone by t=140, brownouts and message chaos heal at
    // t=145; the long tail gives anti-entropy repair time to backfill.
    d.settle(150);

    let auth_rejects = d.counter(obs::ctr::NW_AUTH_REJECTS);
    assert_eq!(auth_rejects, 0, "seed {seed}: unexpected auth rejects");

    // The shared oracle: no dups, no unwanted deliveries anywhere; eventual
    // delivery for every node outside the churn set.
    let exempt: BTreeSet<NodeId> = plan.churned_nodes();
    let report = check_invariants(&d, &items, &exempt);
    assert!(report.survivor_expected > 0, "seed {seed}: vacuous oracle run");
    assert!(report.holds(), "seed {seed}: {report}");

    // Stronger liveness: churned nodes all recovered before the end and
    // repair backfills them, so even they must hold every matching item.
    for item in &items {
        for node in d.interested_nodes(item) {
            assert!(
                d.sim.node(node).has_item(item.id),
                "seed {seed}: node {node} missing item {} (churned: {})",
                item.id,
                exempt.contains(&node)
            );
        }
    }

    // Only published articles were delivered, and no announce was held.
    let ids: BTreeSet<ItemId> = items.iter().map(|item| item.id).collect();
    for (id, node) in d.sim.iter() {
        assert!(node.deliveries.iter().all(|r| ids.contains(&r.item)), "seed {seed}: node {id}");
        assert_eq!(node.held_announces(), 0, "seed {seed}: node {id}");
    }

    let mut fingerprint = Vec::new();
    for (id, node) in d.sim.iter() {
        for rec in &node.deliveries {
            fingerprint.push((
                id.0,
                msg_id_of(rec.item),
                rec.delivered.since(SimTime::ZERO).as_micros(),
            ));
        }
    }
    (fingerprint, d.sim.fault_counters())
}

#[test]
fn fuzz_chaos_plans_uphold_invariants() {
    for seed in 1..=8u64 {
        fuzz_once(seed);
    }
}

#[test]
fn fuzz_runs_replay_bit_for_bit() {
    let first = fuzz_once(42);
    let again = fuzz_once(42);
    assert_eq!(first, again, "same seed must replay identically");
    let other = fuzz_once(43);
    assert_ne!(first.0, other.0, "different seeds must diverge");
}

#[test]
fn trust_fuzz_upholds_revocation_safety() {
    for seed in 1..=3u64 {
        trust_once(seed);
    }
}

#[test]
fn trust_fuzz_replays_bit_for_bit() {
    let first = trust_once(42);
    let again = trust_once(42);
    assert_eq!(first, again, "same seed must replay identically, strikes included");
    let other = trust_once(43);
    assert_ne!(
        (&first.1.key_compromise_strikes, &first.1.sybil_joins_attempted, &first.0),
        (&other.1.key_compromise_strikes, &other.1.sybil_joins_attempted, &other.0),
        "different seeds must diverge"
    );
}

#[test]
fn byzantine_fuzz_upholds_forgery_safety() {
    for seed in 1..=3u64 {
        byzantine_once(seed);
    }
}

#[test]
fn byzantine_fuzz_replays_bit_for_bit() {
    let first = byzantine_once(42);
    let again = byzantine_once(42);
    assert_eq!(first, again, "same seed must replay identically, strikes included");
    let other = byzantine_once(43);
    assert_ne!(
        (&first.1.collusion_strikes, &first.1.forged_items_injected, &first.0),
        (&other.1.collusion_strikes, &other.1.forged_items_injected, &other.0),
        "different seeds must diverge"
    );
}
