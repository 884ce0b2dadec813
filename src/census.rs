//! The NewsWire shapes of the footprint census: `publish_steady`'s and
//! `lossy_revisions`' deployments, built from `newswire`'s public pieces as
//! the benchmark builds them, and what each structure of theirs holds at
//! the end of a run.
//!
//! Two publishers and `subscribers` subscribers sit at the leaves of one
//! Astrolabe tree at branching 8 on the region-structured WAN. Membership
//! settles for 90 sim-s, the schedule publishes over 60 and the run drains
//! for 30 more. `publish_steady` publishes 240 fresh 1.5 KB articles on a
//! lossless network with the delta protocol off; `lossy_revisions` tells 40
//! stories six times each, ~6 KB bodies, at 5 % loss with deltas on. Every
//! figure is computed from lengths and capacities, so [`rows`] is a pure
//! function of the shape, the size and the seed.

use std::collections::BTreeMap;
use std::sync::Arc;

use astrolabe::{Agent, TrustRegistry, ZoneId, ZoneLayout};
use newsml::{
    Category, ItemId, NewsItem, PublisherId, PublisherProfile, Subject, TraceGenerator, Zipf,
};
use newswire::{issue_publisher, NewsWireConfig, NewsWireMsg, NewsWireNode, Subscription};
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::{fork, LatencyModel, NetworkModel, NodeId, SimDuration, SimTime, Simulation};

/// Which NewsWire workload's deployment to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fresh articles, clean network, deltas off.
    PublishSteady,
    /// Revised stories, lossy network, deltas on.
    LossyRevisions,
}

impl Shape {
    /// The workload's name, which prefixes its rows.
    pub fn name(self) -> &'static str {
        match self {
            Shape::PublishSteady => "publish_steady",
            Shape::LossyRevisions => "lossy_revisions",
        }
    }
}

/// Subscribers of the full-size shapes; the benchmark's quick mode runs a
/// tenth.
pub const SUBSCRIBERS: u32 = 300;
/// Zone branching of every shape.
pub const BRANCHING: u16 = 8;
const SETTLE: SimDuration = SimDuration::from_secs(90);
const PUBLISH_WINDOW: SimDuration = SimDuration::from_secs(60);
const DRAIN: SimDuration = SimDuration::from_secs(30);
const ARTICLES: usize = 240;
const STORIES: u32 = 40;
const REVISIONS: u32 = 6;

/// The two publishers of the technical-news configuration.
fn profiles(shape: Shape) -> Vec<PublisherProfile> {
    let per_publisher_per_day = ARTICLES as f64 / 2.0 / PUBLISH_WINDOW.as_secs_f64() * 86_400.0;
    let body_len = match shape {
        Shape::PublishSteady => (1_500, 1_500),
        Shape::LossyRevisions => (6_000, 6_600),
    };
    let tune = |p: PublisherProfile| PublisherProfile {
        items_per_day: per_publisher_per_day,
        body_len,
        revision_prob: 0.0,
        diurnal: false,
        ..p
    };
    vec![
        tune(PublisherProfile::slashdot(PublisherId(0))),
        tune(PublisherProfile::boutique(PublisherId(1), "the-register", Category::Technology)),
    ]
}

/// One subscriber's interests: two Zipf-weighted categories, each with an
/// even chance of a subject subtree.
fn sample_subscription(rng: &mut SmallRng, profiles: &[PublisherProfile]) -> Subscription {
    let mut sub = Subscription::new();
    let pub_zipf = Zipf::new(profiles.len(), 0.7);
    for _ in 0..2 {
        let profile = &profiles[pub_zipf.sample(rng)];
        let cat = profile.categories[Zipf::new(profile.categories.len(), 1.0).sample(rng)];
        sub.subscribe_category(profile.id, cat);
        if rng.gen::<f64>() < 0.5 {
            let mut path = vec![u16::from(cat.bit()) + 1];
            if rng.gen::<f64>() >= 0.5 {
                let topics = Zipf::new(profile.topics_per_category.max(1) as usize, 1.1);
                path.push(topics.sample(rng) as u16 + 1);
            }
            sub.subscribe_subject(Subject::new(path));
        }
    }
    sub
}

/// Publishers at node ids `0..P`, subscribers after.
fn build(
    shape: Shape,
    subscribers: u32,
    profiles: &[PublisherProfile],
    seed: u64,
) -> Simulation<NewsWireNode> {
    let mut config = NewsWireConfig::tech_news();
    let lossy = shape == Shape::LossyRevisions;
    config.deltas = lossy;
    config.astrolabe.delta_gossip = lossy;

    let n = subscribers + profiles.len() as u32;
    let layout = ZoneLayout::new(n, BRANCHING);
    let mut registry = TrustRegistry::new(seed);
    let creds: Vec<_> = profiles
        .iter()
        .map(|p| issue_publisher(&mut registry, p.id, &p.name, &ZoneId::root(), 6_000))
        .collect();
    let registry = Arc::new(registry);
    let ids: Vec<PublisherId> = profiles.iter().map(|p| p.id).collect();
    let mut astro_cfg = config.astrolabe_config(&ids);
    astro_cfg.branching = BRANCHING;

    let region_of: Vec<u32> = (0..n)
        .map(|i| u32::from(layout.leaf_zone(i).path().first().copied().unwrap_or(0)))
        .collect();
    let net = NetworkModel {
        latency: LatencyModel::wan_defaults(region_of),
        drop_prob: if lossy { 0.05 } else { 0.0 },
        ..NetworkModel::default()
    };

    let mut contact_rng = fork(seed, 0xC0);
    let mut interest_rng = fork(seed, 0x1A);
    let mut sim = Simulation::new(net, seed);
    sim.set_delta_accounting(lossy);
    for i in 0..n {
        let contacts: Vec<u32> =
            (0..astro_cfg.contact_fanout).map(|_| contact_rng.gen_range(0..n)).collect();
        let agent = Agent::new(i, &layout, astro_cfg.clone(), contacts);
        let mut node = NewsWireNode::new(agent, config.clone(), Arc::clone(&registry));
        for cred in &creds {
            node.install_publisher_authority(cred.certificate.clone(), cred.attest_epoch(0));
        }
        if let Some(cred) = creds.get(i as usize) {
            node = node.with_publisher(cred.clone(), ZoneId::root(), 6_000, 200);
            // Publishers advertise high load so they are not elected
            // forwarders.
            node.set_subscription(Subscription::new());
            node.load_bias = 1_000.0;
        } else {
            node.set_subscription(sample_subscription(&mut interest_rng, profiles));
        }
        sim.add_node(node);
    }
    sim
}

/// `publish_steady`'s schedule: fresh articles at instants drawn uniformly
/// over the window.
fn fresh_articles(profiles: &[PublisherProfile], seed: u64) -> Vec<(SimDuration, NewsItem)> {
    let mut rng = fork(seed, 0x9E75);
    let window_us = PUBLISH_WINDOW.as_micros();
    let mut events = TraceGenerator::new(profiles.to_vec()).generate(&mut rng, 2 * window_us);
    assert!(events.len() >= ARTICLES, "trace generator came up short: {}", events.len());
    events.truncate(ARTICLES);
    let mut at: Vec<u64> = (0..ARTICLES).map(|_| rng.gen_range(0..window_us)).collect();
    at.sort_unstable();
    at.into_iter().zip(events).map(|(t, e)| (SimDuration::from_micros(t), e.item)).collect()
}

/// `lossy_revisions`' schedule: every story is retold `REVISIONS` times, one
/// telling per sixth of the window at a drawn offset within it.
fn revised_stories(profiles: &[PublisherProfile], seed: u64) -> Vec<(SimDuration, NewsItem)> {
    let mut rng = fork(seed, 0x9E75);
    let slot_us = PUBLISH_WINDOW.as_micros() / u64::from(REVISIONS);
    let mut shaped = Vec::new();
    for story in 0..STORIES {
        let profile = &profiles[story as usize % profiles.len()];
        let nth = story as usize / profiles.len();
        let cat = profile.categories[nth % profile.categories.len()];
        let topic = Zipf::new(profile.topics_per_category as usize, 1.1).sample(&mut rng) as u16;
        for rev in 0..REVISIONS {
            let at = u64::from(rev) * slot_us + rng.gen_range(0..slot_us);
            let body = rng.gen_range(profile.body_len.0..=profile.body_len.1);
            shaped.push((at, story, rev, profile.id, cat, topic, body));
        }
    }
    shaped.sort_unstable_by_key(|e| (e.0, e.1));

    // Sequence numbers rise in publication order per publisher.
    let mut next_seq: BTreeMap<PublisherId, u64> = BTreeMap::new();
    let mut prev: BTreeMap<u32, ItemId> = BTreeMap::new();
    shaped
        .into_iter()
        .map(|(at, story, rev, publisher, cat, topic, body)| {
            let seq = next_seq.entry(publisher).or_insert(0);
            let item = NewsItem::builder(publisher, *seq)
                .headline(format!("story {story} rev {rev}"))
                .slug(format!("story-{story}"))
                .category(cat)
                .subject(Subject::new(vec![u16::from(cat.bit()) + 1, topic + 1]))
                .revision(rev, prev.get(&story).copied())
                .body_len(body)
                .build();
            *seq += 1;
            prev.insert(story, item.id);
            (SimDuration::from_micros(at), item)
        })
        .collect()
}

/// Builds `shape` with `subscribers` subscribers under `seed` and runs it
/// through the settle, the publication window and the drain.
pub fn run(shape: Shape, subscribers: u32, seed: u64) -> Simulation<NewsWireNode> {
    run_settled(shape, subscribers, seed, |_| {})
}

/// [`run`], handing the simulation to `settled` between the settle and the
/// publication window: the benchmark measures from there.
pub fn run_settled(
    shape: Shape,
    subscribers: u32,
    seed: u64,
    settled: impl FnOnce(&mut Simulation<NewsWireNode>),
) -> Simulation<NewsWireNode> {
    let profiles = profiles(shape);
    let mut sim = build(shape, subscribers, &profiles, seed);
    sim.run_until(SimTime::ZERO + SETTLE);
    settled(&mut sim);
    let schedule = match shape {
        Shape::PublishSteady => fresh_articles(&profiles, seed),
        Shape::LossyRevisions => revised_stories(&profiles, seed),
    };
    let start = sim.now();
    for (offset, item) in schedule {
        let publisher = NodeId(u32::from(item.id.publisher.0));
        let msg = NewsWireMsg::PublishRequest { item, scope: None, predicate: None };
        sim.schedule_external(start + offset, publisher, msg);
    }
    sim.run_until(start + PUBLISH_WINDOW);
    sim.run_for(DRAIN);
    sim
}

/// The heap bytes of each structure of every node, summed over nodes:
/// `NewsWireNode::footprint()`'s rows, the node records (each holds its
/// agent), `Agent::footprint()`'s rows, the hub's per-node metric columns
/// and the trace ring. Each name is prefixed with the shape's.
pub fn rows(shape: Shape, sim: &Simulation<NewsWireNode>) -> Vec<(String, usize)> {
    let (mut news, mut astro) = (newswire::Footprint::default(), astrolabe::Footprint::default());
    let mut nodes = 0;
    for (_, node) in sim.iter() {
        let f = node.footprint();
        news.cache += f.cache;
        news.slug_index += f.slug_index;
        news.reconcile += f.reconcile;
        news.deliveries += f.deliveries;
        news.coverage += f.coverage;
        news.queues += f.queues;
        news.acks += f.acks;
        let a = node.agent.footprint();
        astro.tables += a.tables;
        astro.detectors += a.detectors;
        astro.levels += a.levels;
        astro.agg_caches += a.agg_caches;
        astro.peers += a.peers;
        astro.rare += a.rare;
        astro.contacts += a.contacts;
        nodes += 1;
    }
    let hub = sim.telemetry();
    let hub = hub.borrow();
    let rows = [
        ("newswire.node_records", nodes * std::mem::size_of::<NewsWireNode>()),
        ("newswire.cache", news.cache),
        ("newswire.slug_index", news.slug_index),
        ("newswire.reconcile", news.reconcile),
        ("newswire.deliveries", news.deliveries),
        ("newswire.coverage", news.coverage),
        ("newswire.queues", news.queues),
        ("newswire.acks", news.acks),
        ("astrolabe.tables", astro.tables),
        ("astrolabe.detectors", astro.detectors),
        ("astrolabe.levels", astro.levels),
        ("astrolabe.agg_caches", astro.agg_caches),
        ("astrolabe.peers", astro.peers),
        ("astrolabe.rare", astro.rare),
        ("astrolabe.contacts", astro.contacts),
        ("obs.node_metrics", hub.node_metrics_heap_bytes()),
        ("obs.trace_ring", hub.ring().heap_bytes()),
    ];
    rows.into_iter().map(|(name, bytes)| (format!("{}.{name}", shape.name()), bytes)).collect()
}
