//! The two NewsWire workloads: the same four layers used two ways.
//!
//! `publish_steady` is the clean first pass: fresh articles on a lossless
//! WAN with the delta protocol off. First-pass forwarding, dedup, Bloom
//! tests and cache *inserts* dominate; the repair path should be idle, so
//! any share it takes here is waste.
//!
//! `lossy_revisions` is the slow path: 5 % message loss, a feed of stories
//! revised over and over, delta encoding and delta gossip on. Ack retries
//! and failover, repair, reconcile, cache *revision fusion* (writes over
//! existing entries), CDC pricing and delta gossip do the work that
//! `publish_steady` bypasses, so a first-pass gain bought at the slow path's
//! expense shows here.
//!
//! `newswire::DeploymentBuilder` hard-wires `Simulation<NewsWireNode>`, so
//! the deployment is assembled here from the same public pieces, generic
//! over the node wrapper. From the seed: bootstrap contacts, every
//! subscriber's interests, each article's category, topic and headline, the
//! publication instants, and all engine randomness (latency, loss, partner
//! choice).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use astrolabe::{Agent, TrustRegistry, ZoneId, ZoneLayout};
use newsml::{
    Category, ItemId, NewsItem, PublisherId, PublisherProfile, Subject, TraceGenerator, Zipf,
};
use newswire::{issue_publisher, NewsWireConfig, NewsWireMsg, NewsWireNode, Subscription};
use obs::ctr;
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::{fork, LatencyModel, NetworkModel, NodeId, SimDuration, SimTime, Simulation};

use super::{finish, latency_metrics, ratio, Baseline, FullView, Sample, Stopwatch};
use crate::probe::{Bucket, Classify, Mode, Path, Phase, START};

/// Which of the two workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fresh articles, clean network, deltas off.
    PublishSteady,
    /// Revised stories, lossy network, deltas on.
    LossyRevisions,
}

const SUBSCRIBERS: u32 = 300;
const BRANCHING: u16 = 8;
const SETTLE: SimDuration = SimDuration::from_secs(90);
const PUBLISH_WINDOW: SimDuration = SimDuration::from_secs(60);
const DRAIN: SimDuration = SimDuration::from_secs(30);
/// Membership convergence is polled this often while settling.
const POLL: SimDuration = SimDuration::from_millis(100);

/// `publish_steady`: this many fresh 1.5 KB articles.
const ARTICLES: usize = 240;
/// `lossy_revisions`: stories × revisions of ~6 KB bodies.
const STORIES: u32 = 40;
const REVISIONS: u32 = 6;

// The timer tags are private constants of `newswire::node`
// (`GOSSIP_TIMER` = 1, `DRAIN_TIMER` = 2, `REPAIR_TIMER` = 3,
// `REPAIR_WAIT_TIMER` = 4, `RECONCILE_WAIT_TIMER` = 5, ack timeouts from
// `ACK_TAG_BASE` = 1 << 32 up). `finish` checks the gossip tag against the
// `gossip_rounds` counter on every traced run.
const ACK_TAG_BASE: u64 = 1 << 32;

impl Classify for NewsWireNode {
    const BUCKETS: &'static [Bucket] = &[
        START,
        Bucket { name: "Gossip", path: Path::Astrolabe },
        Bucket { name: "Rotate", path: Path::Astrolabe },
        Bucket { name: "PublishRequest", path: Path::Publish },
        Bucket { name: "Forward", path: Path::Amcast },
        Bucket { name: "Deliver", path: Path::Amcast },
        Bucket { name: "ForwardAck", path: Path::Amcast },
        Bucket { name: "RepairRequest", path: Path::Repair },
        Bucket { name: "RepairReply", path: Path::Repair },
        Bucket { name: "ReconcileRequest", path: Path::Repair },
        Bucket { name: "ReconcileReply", path: Path::Repair },
        Bucket { name: "timer.gossip", path: Path::Astrolabe },
        Bucket { name: "timer.drain", path: Path::Amcast },
        Bucket { name: "timer.repair", path: Path::Repair },
        Bucket { name: "timer.repair_wait", path: Path::Repair },
        Bucket { name: "timer.reconcile_wait", path: Path::Repair },
        Bucket { name: "timer.ack_timeout", path: Path::Amcast },
        Bucket { name: "timer.other", path: Path::Other },
    ];

    fn msg_bucket(msg: &NewsWireMsg) -> usize {
        match msg {
            NewsWireMsg::Gossip { .. } => 1,
            NewsWireMsg::Rotate { .. } => 2,
            NewsWireMsg::PublishRequest { .. } => 3,
            NewsWireMsg::Forward { .. } => 4,
            NewsWireMsg::Deliver { .. } => 5,
            NewsWireMsg::ForwardAck { .. } => 6,
            NewsWireMsg::RepairRequest { .. } => 7,
            NewsWireMsg::RepairReply { .. } => 8,
            NewsWireMsg::ReconcileRequest { .. } => 9,
            NewsWireMsg::ReconcileReply { .. } => 10,
        }
    }

    fn timer_bucket(tag: u64) -> usize {
        match tag {
            1 => 11,
            2 => 12,
            3 => 13,
            4 => 14,
            5 => 15,
            t if t >= ACK_TAG_BASE => 16,
            _ => 17,
        }
    }
}

/// The two publishers of the paper's technical-news configuration.
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

/// One subscriber's interests (the sampling `newswire::deploy` applies,
/// which is private there): two Zipf-weighted categories, each with an even
/// chance of a subject subtree.
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

/// Publishers at node ids `0..P`, subscribers after, all leaves of one
/// Astrolabe tree, on the region-structured WAN.
fn build<M: Mode>(
    shape: Shape,
    subscribers: u32,
    profiles: &[PublisherProfile],
    seed: u64,
) -> Simulation<M::Node<NewsWireNode>> {
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
    let mut sim: Simulation<M::Node<NewsWireNode>> = Simulation::new(net, seed);
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
            // forwarders, as in `newswire::DeploymentBuilder`.
            node.set_subscription(Subscription::new());
            node.load_bias = 1_000.0;
        } else {
            node.set_subscription(sample_subscription(&mut interest_rng, profiles));
        }
        sim.add_node(M::wrap(node));
    }
    sim
}

/// `publish_steady`'s schedule: `ARTICLES` fresh articles at instants drawn
/// uniformly over the window — a Poisson process conditioned on its count,
/// so every seed publishes the same amount of work.
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
        // Categories differ widely in readership, so stories cycle through
        // their publisher's categories: every seed then offers about the
        // same number of wanted deliveries. The topic is drawn.
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
    let mut next_seq: HashMap<PublisherId, u64> = HashMap::new();
    let mut prev: HashMap<u32, ItemId> = HashMap::new();
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

/// One build + settle, then the publication window and the drain.
pub fn run<M: Mode>(shape: Shape, seed: u64, quick: bool) -> Result<Sample, String> {
    let name = match shape {
        Shape::PublishSteady => "publish_steady",
        Shape::LossyRevisions => "lossy_revisions",
    };
    let subscribers = if quick { SUBSCRIBERS / 10 } else { SUBSCRIBERS };
    let profiles = profiles(shape);
    let n = subscribers + profiles.len() as u32;
    let mut sw = Stopwatch::default();

    // Set-up: build, then settle membership and subscription summaries.
    let mut sim = sw.time(Phase::Setup, || build::<M>(shape, subscribers, &profiles, seed));
    let mut view = FullView::new(n);
    while sim.now() < SimTime::ZERO + SETTLE {
        let deadline = sim.now() + POLL;
        sw.time(Phase::Setup, || sim.run_until(deadline));
        view.poll(sim.now(), |i| &M::inner::<NewsWireNode>(sim.node(NodeId(i))).agent);
    }
    let Some(converged_at) = view.all_at() else {
        return Err(format!(
            "{name}: {} nodes lack the full view after the settle",
            view.pending()
        ));
    };

    let schedule = match shape {
        Shape::PublishSteady => fresh_articles(&profiles, seed),
        Shape::LossyRevisions => revised_stories(&profiles, seed),
    };
    let start = sim.now();
    for (offset, item) in &schedule {
        let publisher = NodeId(u32::from(item.id.publisher.0));
        let msg = NewsWireMsg::PublishRequest { item: item.clone(), scope: None, predicate: None };
        sim.schedule_external(start + *offset, publisher, msg);
    }

    let base = Baseline::start(&sim);
    sw.time(Phase::Measure, || sim.run_until(start + PUBLISH_WINDOW));
    sw.time(Phase::Drain, || sim.run_for(DRAIN));

    let cached: u64 =
        sim.iter().map(|(_, node)| M::inner::<NewsWireNode>(node).cache.len() as u64).sum();
    let mut s = Sample::default();
    let d = finish::<M, NewsWireNode>(&mut s, name, &sim, &sw, &base, cached)?;

    // Validate every delivery, collect latencies, and count the wanted
    // deliveries: every (item, interested node) pair — of the final
    // revisions only where stories are revised, because an older telling a
    // newer one overtook is fused away, not missed.
    let published: HashMap<ItemId, &NewsItem> = schedule.iter().map(|(_, i)| (i.id, i)).collect();
    let last_rev = match shape {
        Shape::PublishSteady => 0,
        Shape::LossyRevisions => REVISIONS - 1,
    };
    let mut latencies = Vec::new();
    let (mut wanted, mut made) = (0u64, 0u64);
    for (id, node) in sim.iter() {
        let node = M::inner::<NewsWireNode>(node);
        let mut delivered = HashSet::new();
        for rec in &node.deliveries {
            let Some(item) = published.get(&rec.item) else {
                return Err(format!(
                    "{name}: {id} delivered {:?}, which was never published",
                    rec.item
                ));
            };
            if !node.subscription.matches(item) {
                return Err(format!(
                    "{name}: {id} delivered {:?} outside its subscription",
                    rec.item
                ));
            }
            if !delivered.insert(rec.item) {
                return Err(format!("{name}: {id} delivered {:?} twice", rec.item));
            }
            latencies.push(rec.delivered.saturating_since(rec.published).as_micros());
        }
        if node.publisher().is_some_and(|p| p.rate_limited > 0) {
            return Err(format!("{name}: flow control refused a scheduled publish at {id}"));
        }
        for (_, item) in &schedule {
            if item.revision == last_rev && node.subscription.matches(item) {
                wanted += 1;
                made += u64::from(delivered.contains(&item.id));
            }
        }
    }
    if wanted == 0 || latencies.is_empty() {
        return Err(format!("{name}: nothing was wanted or nothing delivered"));
    }
    s.attempted = wanted;
    s.failed = wanted - made;
    s.set("converged_sim_s", converged_at.as_secs_f64());
    s.set("delivered_pct", 100.0 * made as f64 / wanted as f64);
    let lane = if d.of(ctr::BYTES_WIRE) > 0 { ctr::BYTES_WIRE } else { ctr::BYTES_SENT };
    s.set("wire_bytes_per_delivery", ratio(d.of(lane) as f64, latencies.len() as f64));
    latency_metrics(&mut s, latencies);
    Ok(s)
}
