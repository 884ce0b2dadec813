//! Direct timing of public functions of each layer, with no simulator.
//!
//! A path's time in the traced run includes the layers it calls into; these
//! kernels give the pure-layer costs the interaction table refers to. Inputs
//! are drawn from the workload's own generator (`publish_steady`'s articles,
//! `lossy_revisions`' revised stories; the two workloads without articles
//! use `publish_steady`'s), so `cache_insert_ns` times the insert use of the
//! cache and `cache_revise_ns` the overwrite use of the same structure.
//!
//! Every kernel runs a fixed number of operations three times and reports
//! the median per-operation time; results pass through `black_box`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use amcast::{route, CoverageWindow, FilterSpec, ForwardingQueues, SeqLog, Strategy};
use astrolabe::{
    parse_program, run_program, Agent, AttrValue, Config, GossipMsg, Mib, Stamp, TrustRegistry,
    ZoneId, ZoneLayout, ZoneTable,
};
use filters::{positions, BloomFilter};
use newsml::{
    cdc, from_nitf_xml, to_nitf_xml, Category, NewsItem, PublisherId, PublisherProfile,
    TraceGenerator,
};
use newswire::{
    issue_publisher, item_position_groups, verify_item, CachePolicy, MessageCache, NewsWireConfig,
    Subscription,
};
use obs::{kind, Layer, TelemetryHub};
use rand::Rng;
use simnet::{fork, EventQueue, SimDuration, SimTime};

/// Median of three runs of `batch`, which returns a per-operation time.
fn median3(mut batch: impl FnMut() -> f64) -> f64 {
    let mut runs = [batch(), batch(), batch()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// Median over three batches of the per-operation time of `op`, in ns.
/// `op` receives the operation index within its batch.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    median3(|| {
        let t = Instant::now();
        for i in 0..ops {
            op(i);
        }
        t.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// Articles shaped like the workload's: fresh 1.5 KB ones, or 6 KB stories
/// for `lossy_revisions`.
fn articles(workload: &str, seed: u64, count: usize) -> Vec<NewsItem> {
    let body_len = if workload == "lossy_revisions" { (6_000, 6_600) } else { (1_500, 1_500) };
    let profile = PublisherProfile {
        items_per_day: 86_400.0,
        body_len,
        revision_prob: 0.0,
        diurnal: false,
        ..PublisherProfile::slashdot(PublisherId(0))
    };
    let mut rng = fork(seed, 0x4E57);
    let mut events =
        TraceGenerator::new(vec![profile]).generate(&mut rng, 4 * count as u64 * 1_000_000);
    assert!(events.len() >= count, "trace generator came up short");
    events.truncate(count);
    events.into_iter().map(|e| e.item).collect()
}

/// The next telling of `item`: same story, next revision, next sequence slot.
fn revise(item: &NewsItem, seq: u64) -> NewsItem {
    let mut b = NewsItem::builder(item.id.publisher, seq)
        .headline(item.headline.clone())
        .slug(item.slug.clone())
        .revision(item.revision + 1, Some(item.id))
        .body_len(item.body_len);
    for c in &item.categories {
        b = b.category(*c);
    }
    for s in &item.subjects {
        b = b.subject(s.clone());
    }
    b.build()
}

/// 64 NewsWire-configured agents gossiped to convergence by hand: the
/// fixture for `agent_round_us` and `route_us`.
struct Agents {
    agents: Vec<Agent>,
    now: SimTime,
    rng: rand::rngs::SmallRng,
}

impl Agents {
    const N: u32 = 64;

    fn new(seed: u64) -> Self {
        let cfg = NewsWireConfig::tech_news();
        let mut astro = cfg.astrolabe_config(&[PublisherId(0)]);
        astro.branching = 8;
        astro.delta_gossip = false;
        let layout = ZoneLayout::new(Self::N, 8);
        let mut rng = fork(seed, 0xA6E7);
        let agents = (0..Self::N)
            .map(|i| {
                let contacts = (0..3).map(|_| rng.gen_range(0..Self::N)).collect();
                let mut a = Agent::new(i, &layout, astro.clone(), contacts);
                let mut sub = Subscription::new();
                let cats = [Category::Technology, Category::Science, Category::Law];
                sub.subscribe_category(PublisherId(0), cats[rng.gen_range(0..cats.len())]);
                a.set_local_attr("subs", sub.to_bloom(1024, 3));
                a.set_local_attr("load", f64::from(i % 7));
                a
            })
            .collect();
        Agents { agents, now: SimTime::ZERO, rng }
    }

    /// One gossip round of every agent, relaying each message to its target
    /// until the exchange dies down. Returns callbacks made.
    fn round(&mut self) -> u64 {
        self.now += SimDuration::from_secs(2);
        let mut calls = 0;
        let mut inflight: Vec<(u32, u32, GossipMsg)> = Vec::new();
        for i in 0..self.agents.len() {
            calls += 1;
            let out = self.agents[i].on_tick(self.now, &mut self.rng);
            inflight.extend(out.into_iter().map(|(to, m)| (i as u32, to, m)));
        }
        while let Some((from, to, msg)) = inflight.pop() {
            calls += 1;
            let out = self.agents[to as usize].on_message(self.now, from, msg, &mut self.rng);
            inflight.extend(out.into_iter().map(|(next, m)| (to, next, m)));
        }
        calls
    }
}

fn simnet_kernels(out: &mut BTreeMap<String, f64>, seed: u64) {
    // Steady state at a depth like the workloads': pop the earliest event,
    // push one a random hop later.
    let mut rng = fork(seed, 0x51E);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..16_384u64 {
        q.push(rng.gen_range(0..1_000), 0, i, i);
    }
    let mut b = 16_384u64;
    let ns = ns_per_op(400_000, |_| {
        let (t, _, _, body) = q.pop().expect("queue stays full");
        b += 1;
        q.push(t + rng.gen_range(5..=15u64), 0, b, black_box(body));
    });
    out.insert("simnet.queue_push_pop_ns".into(), ns);
}

fn astrolabe_kernels(out: &mut BTreeMap<String, f64>, agents: &mut Agents) {
    // Newest-wins merge of a fresher version of a row the table holds.
    // Rows are built outside the timed region.
    const MERGES: u64 = 65_536;
    let mut table = ZoneTable::new(ZoneId::root());
    let mut version = 0u64;
    let ns = median3(|| {
        let rows: Vec<(u16, Arc<Mib>)> = (0..MERGES)
            .map(|i| {
                version += 1;
                let label = (i % 64) as u16;
                let attrs = vec![
                    ("load".into(), AttrValue::Float(f64::from(label))),
                    ("nmembers".into(), AttrValue::Int(1)),
                ];
                let stamp = Stamp { issued_us: version, version, origin: u32::from(label) };
                (label, Arc::new(Mib::new(stamp, attrs)))
            })
            .collect();
        let t = Instant::now();
        for (label, row) in rows {
            black_box(table.merge_row(label, row));
        }
        t.elapsed().as_nanos() as f64 / MERGES as f64
    });
    out.insert("astrolabe.merge_row_ns".into(), ns);

    // The core management program over a full 64-row child table.
    let prog = parse_program(&Config::core_program(2)).expect("core program parses");
    let rows: Vec<Arc<Mib>> = (0..64u16)
        .map(|l| {
            let attrs = vec![
                ("load".into(), AttrValue::Float(f64::from(l % 9))),
                ("nmembers".into(), AttrValue::Int(64)),
                ("reps".into(), AttrValue::Set([u64::from(l), u64::from(l) + 64].into())),
            ];
            Arc::new(Mib::new(Stamp { issued_us: 1, version: 1, origin: u32::from(l) }, attrs))
        })
        .collect();
    let ns = ns_per_op(2_000, |_| {
        black_box(run_program(&prog, &rows).expect("core program runs"));
    });
    out.insert("astrolabe.run_program_64rows_us".into(), ns / 1e3);

    // Whole agent rounds — tick plus the exchange it triggers — per callback.
    for _ in 0..15 {
        agents.round();
    }
    let mut calls = 0;
    let t = Instant::now();
    for _ in 0..10 {
        calls += agents.round();
    }
    out.insert("astrolabe.agent_round_us".into(), t.elapsed().as_secs_f64() * 1e6 / calls as f64);
}

fn amcast_kernels(out: &mut BTreeMap<String, f64>, agents: &mut Agents, items: &[NewsItem]) {
    let filters: Vec<FilterSpec> = items
        .iter()
        .map(|i| FilterSpec::BloomAny {
            attr: "subs".into(),
            groups: item_position_groups(i, 1024, 3),
        })
        .collect();
    let root = ZoneId::root();
    let (all, rng) = (&agents.agents, &mut agents.rng);
    let ns = ns_per_op(20_000, |i| {
        let i = i as usize;
        black_box(route(&all[i % all.len()], &filters[i % filters.len()], &root, 2, rng));
    });
    out.insert("amcast.route_us".into(), ns / 1e3);

    let mut q: ForwardingQueues<u64> = ForwardingQueues::new(Strategy::WeightedRoundRobin);
    for child in 0..8 {
        q.declare_child(child, 1 + u32::from(child));
    }
    for i in 0..256u64 {
        q.push((i % 8) as u16, i, 5, i);
    }
    let ns = ns_per_op(400_000, |i| {
        q.push((i % 8) as u16, i, (i % 8) as u8, i);
        black_box(q.pop());
    });
    out.insert("amcast.queue_push_pop_ns".into(), ns);

    let mut log: SeqLog<()> = SeqLog::new(8_192);
    let mut seq = 0u64;
    let ns = ns_per_op(400_000, |i| {
        // Mostly in order, every 16th arrival late: what a lossy feed logs.
        seq += 1;
        let s = if i % 16 == 15 { seq.saturating_sub(9) } else { seq };
        black_box(log.insert(s, ()));
    });
    out.insert("amcast.seqlog_insert_ns".into(), ns);

    let mut window = CoverageWindow::new(4_096);
    let ns = ns_per_op(400_000, |i| {
        // Each id arrives twice (redundancy 2): one admit, one duplicate.
        black_box(window.admit(i / 2, 2));
    });
    out.insert("amcast.dedup_admit_ns".into(), ns);
}

fn newswire_kernels(out: &mut BTreeMap<String, f64>, items: &[NewsItem], seed: u64) {
    let now = SimTime::from_secs(1);
    let n = items.len() as u64;

    // Insert use: fresh stories into a cache that has never seen them.
    // Clones are made outside the timed region.
    let mut cache = MessageCache::new(CachePolicy::default());
    let ns = median3(|| {
        cache = MessageCache::new(CachePolicy::default());
        let feed = items.to_vec();
        let t = Instant::now();
        for item in feed {
            black_box(cache.insert(item, now));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    });
    out.insert("newswire.cache_insert_ns".into(), ns);

    // Overwrite use: the next revision of every story the cache holds.
    let mut current: Vec<NewsItem> = items.to_vec();
    let mut next_seq = n;
    let ns = median3(|| {
        for item in &mut current {
            next_seq += 1;
            *item = revise(item, next_seq);
        }
        let feed = current.clone();
        let t = Instant::now();
        for item in feed {
            black_box(cache.insert(item, now));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    });
    out.insert("newswire.cache_revise_ns".into(), ns);

    let ids: Vec<_> = current.iter().map(|i| i.id).collect();
    let ns = ns_per_op(400_000, |i| {
        black_box(cache.get(ids[i as usize % ids.len()]));
    });
    out.insert("newswire.cache_get_ns".into(), ns);

    let mut registry = TrustRegistry::new(seed);
    let root = ZoneId::root();
    let cred = issue_publisher(&mut registry, PublisherId(0), "slashdot", &root, 6_000);
    let signed: Vec<_> = items.iter().map(|i| (i, cred.sign(i))).collect();
    let ns = ns_per_op(100_000, |i| {
        let (item, sig) = signed[i as usize % signed.len()];
        let ok = verify_item(&registry, &cred.certificate, item, &root, cred.key_id(), sig);
        assert!(black_box(ok), "a genuine signature verifies");
    });
    out.insert("newswire.verify_item_ns".into(), ns);

    let mut sub = Subscription::new();
    sub.subscribe_category(PublisherId(0), Category::Science);
    sub.subscribe_subject(newsml::Subject::new(vec![u16::from(Category::Technology.bit()) + 1, 3]));
    let ns = ns_per_op(400_000, |i| {
        black_box(sub.matches(&items[i as usize % items.len()]));
    });
    out.insert("newswire.subscription_match_ns".into(), ns);
}

fn newsml_filters_obs_kernels(out: &mut BTreeMap<String, f64>, items: &[NewsItem]) {
    let ns = ns_per_op(50_000, |i| {
        let it = &items[i as usize % items.len()];
        black_box(revise(it, i));
    });
    out.insert("newsml.item_build_us".into(), ns / 1e3);

    let ns = ns_per_op(300, |i| {
        let it = &items[i as usize % items.len()];
        black_box(cdc::delta_cost(it.id.publisher, &it.slug, 0, it.body_len, 1, it.body_len));
    });
    out.insert("newsml.cdc_delta_cost_us".into(), ns / 1e3);

    let ns = ns_per_op(3_000, |i| {
        let it = &items[i as usize % items.len()];
        black_box(from_nitf_xml(&to_nitf_xml(it)).expect("round trip parses"));
    });
    out.insert("newsml.nitf_roundtrip_us".into(), ns / 1e3);

    let keys: Vec<String> = items.iter().flat_map(|i| i.subscription_keys()).collect();
    let mut bloom = BloomFilter::new(1024, 3);
    for k in keys.iter().step_by(3) {
        bloom.insert(k);
    }
    let ns = ns_per_op(400_000, |i| {
        black_box(bloom.contains(&keys[i as usize % keys.len()]));
    });
    out.insert("filters.bloom_contains_ns".into(), ns);
    let other = bloom.clone();
    let ns = ns_per_op(400_000, |_| {
        bloom.union(black_box(&other));
    });
    out.insert("filters.bloom_union_ns".into(), ns);
    let ns = ns_per_op(400_000, |i| {
        black_box(positions(&keys[i as usize % keys.len()], 1024, 3));
    });
    out.insert("filters.positions_ns".into(), ns);

    let mut hub = TelemetryHub::new(0);
    hub.ensure_nodes(1);
    let ns = ns_per_op(1_000_000, |i| {
        hub.trace((i % 1_024) as u32, Layer::News, kind::NW_DELIVER, i, i);
    });
    out.insert("obs.trace_record_ns".into(), ns);
}

/// Times every kernel on inputs shaped like `workload`'s.
pub fn run(workload: &str, seed: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let items = articles(workload, seed, 512);
    let mut agents = Agents::new(seed);
    simnet_kernels(&mut out, seed);
    astrolabe_kernels(&mut out, &mut agents);
    amcast_kernels(&mut out, &mut agents, &items);
    newswire_kernels(&mut out, &items, seed);
    newsml_filters_obs_kernels(&mut out, &items);
    out
}
