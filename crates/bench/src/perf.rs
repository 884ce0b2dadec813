//! Wall-clock performance scenarios — the `perf` binary's workload library.
//!
//! Unlike the E1–E14 experiments (which report *simulated* time and bytes),
//! these scenarios measure how fast the simulator itself chews through a
//! fixed, seeded workload on real hardware: wall-clock seconds, events per
//! second, and the event queue's high-water mark. The `perf` binary emits
//! them as `BENCH.json`, the committed baseline future PRs regress against.
//!
//! Every scenario is deterministic in its *simulated* outcome (the `detail`
//! field records a seed-stable check value); only the wall-clock figures
//! vary between machines and runs.

use std::time::Instant;

use astrolabe::{Agent, AstroNode, Config, ZoneLayout};
use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{check_invariants, DeploymentBuilder, NewsWireConfig, PublisherSpec};
use rand::Rng;
use simnet::{
    fork, ChurnSpec, Context, FaultPlan, GrayProfile, GraySpec, NetworkModel, Node, NodeId,
    SimDuration, SimTime, Simulation, TimerId,
};

/// One scenario's measurement.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Stable scenario identifier (`astro_convergence_n10000_b16`, …).
    pub name: String,
    /// Wall-clock seconds for the measured portion of the scenario.
    pub wall_s: f64,
    /// Simulator events processed during the measured portion.
    pub events: u64,
    /// `events / wall_s`.
    pub events_per_s: f64,
    /// High-water mark of the simulator's event queue.
    pub peak_queue_depth: usize,
    /// Process peak RSS (`VmHWM`) in MiB as of the end of this scenario.
    /// The kernel counter is monotone across the process lifetime, so within
    /// one suite run a scenario's figure is "largest footprint so far" — the
    /// biggest scenario dominates, earlier ones bound it from below.
    pub peak_rss_mb: f64,
    /// Bytes the accounting model says crossed the simulated network: the
    /// compressed `bytes_wire` lane when delta accounting ran, the
    /// full-price `bytes_sent` figure otherwise.
    pub wire_bytes_total: u64,
    /// Bytes the delta protocol avoided sending (`bytes_sent -
    /// bytes_wire`); 0 whenever delta accounting was off.
    pub wire_bytes_saved: u64,
    /// Seed-stable check value (simulated outcome, not timing) — identical
    /// across machines for the same code and seed, so a behavior change
    /// shows up as a `detail` diff even when timings drift.
    pub detail: String,
}

/// Wire-byte totals for a finished simulation: `(total, saved)`. The total
/// is the compressed `bytes_wire` lane when delta accounting tallied it,
/// else the full-price `bytes_sent` figure (so the field is comparable
/// across modes); `saved` is the difference.
fn wire_totals<N: Node>(sim: &Simulation<N>) -> (u64, u64) {
    let sent = sim.total_counters().bytes_sent;
    if !obs::ENABLED {
        return (sent, 0);
    }
    let hub = sim.telemetry();
    let wire = hub.borrow().counter_total(obs::ctr::BYTES_WIRE);
    if wire == 0 {
        (sent, 0)
    } else {
        (wire, sent.saturating_sub(wire))
    }
}

/// Process peak resident-set size in MiB, from `/proc/self/status` `VmHWM`
/// (0.0 where procfs is unavailable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Astrolabe membership convergence from cold start: `n` agents gossip
/// until three probe nodes account for full membership at the root, plus a
/// 30-simulated-second steady-state window (the per-round recompute cost).
pub fn astro_convergence(n: u32, branching: u16, seed: u64) -> PerfResult {
    let layout = ZoneLayout::new(n, branching);
    let mut config = Config::standard();
    config.branching = branching;
    let mut contact_rng = fork(seed, 99);
    let mut sim = Simulation::new(NetworkModel::default(), seed);
    for i in 0..n {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..n)).collect();
        sim.add_node(AstroNode::new(Agent::new(i, &layout, config.clone(), contacts)));
    }
    let probes = [0u32, n / 2, n - 1];
    let members_at_root = |sim: &Simulation<AstroNode>, probe: u32| -> i64 {
        sim.node(NodeId(probe))
            .agent
            .root_table()
            .iter()
            .filter_map(|(_, r)| r.get("nmembers").and_then(|v| v.as_i64()))
            .sum()
    };

    // Sharded runs (SIMNET_SHARDS > 1) go through the threaded window
    // executor; its output is byte-identical to the sequential sharded path.
    let parallel = sim.shard_count() > 1;
    let start = Instant::now();
    let mut converged_at = None;
    for t in 1..=600u64 {
        if parallel {
            sim.run_until_parallel(SimTime::from_secs(t));
        } else {
            sim.run_until(SimTime::from_secs(t));
        }
        if probes.iter().all(|&p| members_at_root(&sim, p) == i64::from(n)) {
            converged_at = Some(t);
            break;
        }
    }
    if parallel {
        sim.run_for_parallel(SimDuration::from_secs(30));
    } else {
        sim.run_for(SimDuration::from_secs(30));
    }
    let wall = start.elapsed().as_secs_f64();

    let events = sim.events_processed();
    let (wire_bytes_total, wire_bytes_saved) = wire_totals(&sim);
    PerfResult {
        name: format!("astro_convergence_n{n}_b{branching}"),
        wall_s: wall,
        events,
        events_per_s: events as f64 / wall,
        peak_queue_depth: sim.peak_queue_depth(),
        peak_rss_mb: peak_rss_mb(),
        wire_bytes_total,
        wire_bytes_saved,
        detail: format!(
            "converged_sim_s={}",
            converged_at.map_or("never".into(), |t| t.to_string())
        ),
    }
}

/// NewsWire publish fan-out under E13-style chaos: a first-pass tree with
/// acknowledged hand-offs, 20% of subscribers severely gray and a further
/// 20% Poisson-churning, ten items published through the brownout.
pub fn newswire_chaos(n: u32, seed: u64) -> PerfResult {
    let start = Instant::now();
    let mut config = NewsWireConfig::tech_news();
    config.redundancy = 1;
    config.anti_entropy = false;
    let mut d = DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .wan(0.02)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    d.settle(90);

    let total = n + 1; // + the publisher at node 0, which is spared
    let mut pick_rng = fork(seed, 0x13);
    let mut picked = std::collections::HashSet::new();
    let mut gray_nodes = Vec::new();
    while (gray_nodes.len() as u32) < n / 5 {
        let v = pick_rng.gen_range(1..total);
        if picked.insert(v) {
            gray_nodes.push(NodeId(v));
        }
    }
    let mut churn_nodes = Vec::new();
    while (churn_nodes.len() as u32) < n / 5 {
        let v = pick_rng.gen_range(1..total);
        if picked.insert(v) {
            churn_nodes.push(NodeId(v));
        }
    }
    let plan = FaultPlan {
        salt: seed,
        gray: vec![GraySpec {
            nodes: gray_nodes,
            start: SimTime::from_secs(90),
            end: None,
            profile: GrayProfile::severe(),
        }],
        churn: vec![ChurnSpec {
            nodes: churn_nodes,
            start: SimTime::from_secs(90),
            end: SimTime::from_secs(150),
            mean_up_secs: 30.0,
            mean_down_secs: 10.0,
            recover_at_end: true,
            restart: simnet::RestartMode::Freeze,
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);

    let items: Vec<NewsItem> = (0..10u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("story {s}"))
                .category(Category::Technology)
                .body_len(1_200)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + 3 * i as u64), item.clone());
    }
    d.settle(70);
    let wall = start.elapsed().as_secs_f64();

    let report = check_invariants(&d, &items, &plan.churned_nodes());
    let events = d.sim.events_processed();
    let (wire_bytes_total, wire_bytes_saved) = wire_totals(&d.sim);
    PerfResult {
        name: format!("newswire_chaos_n{n}"),
        wall_s: wall,
        events,
        events_per_s: events as f64 / wall,
        peak_queue_depth: d.sim.peak_queue_depth(),
        peak_rss_mb: peak_rss_mb(),
        wire_bytes_total,
        wire_bytes_saved,
        detail: format!("survivor_pct={:.1}", 100.0 * report.survivor_delivery_ratio()),
    }
}

/// The delta wire protocol under a revision-heavy feed: eight stories each
/// revised four times, so forwarding, repair and reconciliation traffic in
/// bodies the receivers mostly already hold. The delta protocol is forced
/// on through explicit configuration (not the `NEWSWIRE_DELTAS` switch) so
/// the scenario measures the same thing in every CI arm; `wire_bytes_total`
/// / `wire_bytes_saved` report the compressed accounting lane.
pub fn wire_deltas(n: u32, seed: u64) -> PerfResult {
    let start = Instant::now();
    let mut config = NewsWireConfig::tech_news();
    config.deltas = true;
    config.astrolabe.delta_gossip = true;
    let mut d = DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .wan(0.01)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    d.sim.set_delta_accounting(true);
    d.settle(60);

    let stories = 8u32;
    let revs = 4u32;
    let mut items = Vec::new();
    let mut prev: Vec<Option<newsml::ItemId>> = vec![None; stories as usize];
    for rev in 0..revs {
        for story in 0..stories {
            let seq = u64::from(rev * stories + story);
            let item = NewsItem::builder(PublisherId(0), seq)
                .headline(format!("story {story} rev {rev}"))
                .slug(format!("wire-story-{story}"))
                .category(Category::Technology)
                .revision(rev, prev[story as usize])
                .body_len(6_000 + 120 * rev)
                .build();
            prev[story as usize] = Some(item.id);
            d.publish(
                SimTime::from_secs(60 + 20 * u64::from(rev) + u64::from(story)),
                item.clone(),
            );
            items.push(item);
        }
    }
    d.settle(100);
    let wall = start.elapsed().as_secs_f64();

    // Completeness over *final* revisions: older tellings are revision-fused
    // away, so holding the last revision is the meaningful endpoint.
    let (mut want, mut have) = (0u64, 0u64);
    for item in items.iter().filter(|i| i.revision == revs - 1) {
        for node in d.interested_nodes(item) {
            want += 1;
            have += u64::from(d.sim.node(node).has_item(item.id));
        }
    }
    let events = d.sim.events_processed();
    let (wire_bytes_total, wire_bytes_saved) = wire_totals(&d.sim);
    let full = wire_bytes_total + wire_bytes_saved;
    PerfResult {
        name: format!("wire_deltas_n{n}"),
        wall_s: wall,
        events,
        events_per_s: events as f64 / wall,
        peak_queue_depth: d.sim.peak_queue_depth(),
        peak_rss_mb: peak_rss_mb(),
        wire_bytes_total,
        wire_bytes_saved,
        detail: format!(
            "saved_pct={:.1} final_rev_pct={:.1}",
            100.0 * wire_bytes_saved as f64 / full.max(1) as f64,
            if want == 0 { 100.0 } else { 100.0 * have as f64 / want as f64 },
        ),
    }
}

/// A trivial ring forwarder: every message costs exactly one event, so this
/// measures the engine's raw event dispatch rate with no protocol work.
struct Ring {
    next: NodeId,
}
impl Node for Ring {
    type Msg = Vec<u8>;
    fn on_start(&mut self, _ctx: &mut Context<'_, Vec<u8>>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, mut m: Vec<u8>) {
        if m[0] > 0 {
            m[0] -= 1;
            ctx.send(self.next, m);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _t: TimerId, _tag: u64) {}
}

/// Raw simnet event throughput: `tokens` messages circulate a 16-node ring
/// for 200 hops each (~201 events per token).
pub fn simnet_ring(tokens: u32, seed: u64) -> PerfResult {
    let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_micros(10)), seed);
    for i in 0..16u32 {
        sim.add_node(Ring { next: NodeId((i + 1) % 16) });
    }
    for i in 0..tokens {
        sim.schedule_external(SimTime::from_micros(u64::from(i)), NodeId(i % 16), vec![200u8]);
    }
    let start = Instant::now();
    sim.run_to_quiescence(u64::MAX);
    let wall = start.elapsed().as_secs_f64();
    let events = sim.events_processed();
    let (wire_bytes_total, wire_bytes_saved) = wire_totals(&sim);
    PerfResult {
        name: format!("simnet_ring_{tokens}tok"),
        wall_s: wall,
        events,
        events_per_s: events as f64 / wall,
        peak_queue_depth: sim.peak_queue_depth(),
        peak_rss_mb: peak_rss_mb(),
        wire_bytes_total,
        wire_bytes_saved,
        detail: format!("events={events}"),
    }
}

/// Scenario selection for [`run_all`].
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Small sizes only (CI smoke). The full suite is a superset, so every
    /// quick scenario name exists in a committed full baseline and CI deltas
    /// always find their counterpart.
    pub quick: bool,
    /// Also run the stretch sizes (n = 1M convergence) — minutes of wall
    /// clock; excluded from the committed baseline by default.
    pub slow: bool,
    /// Run only scenarios whose name contains this substring.
    pub only: Option<String>,
}

/// Runs the suite per `opts`.
pub fn run_all(opts: &RunOpts) -> Vec<PerfResult> {
    type Spec = (&'static str, Box<dyn FnOnce() -> PerfResult>);
    let mut specs: Vec<Spec> = Vec::new();
    specs.push(("astro_convergence_n1000_b16", Box::new(|| astro_convergence(1_000, 16, 0xA57))));
    if !opts.quick {
        specs.push((
            "astro_convergence_n10000_b16",
            Box::new(|| astro_convergence(10_000, 16, 0xA57)),
        ));
        specs.push((
            "astro_convergence_n100000_b16",
            Box::new(|| astro_convergence(100_000, 16, 0xA57)),
        ));
    }
    if opts.slow {
        specs.push((
            "astro_convergence_n1000000_b16",
            Box::new(|| astro_convergence(1_000_000, 16, 0xA57)),
        ));
    }
    specs.push(("newswire_chaos_n200", Box::new(|| newswire_chaos(200, 0xFA11))));
    if !opts.quick {
        specs.push(("newswire_chaos_n400", Box::new(|| newswire_chaos(400, 0xFA11))));
    }
    specs.push(("simnet_ring_500tok", Box::new(|| simnet_ring(500, 0x516))));
    if !opts.quick {
        specs.push(("simnet_ring_5000tok", Box::new(|| simnet_ring(5_000, 0x516))));
    }
    specs.push(("wire_deltas_n150", Box::new(|| wire_deltas(150, 0xDE17A))));
    if !opts.quick {
        specs.push(("wire_deltas_n300", Box::new(|| wire_deltas(300, 0xDE17A))));
    }

    eprintln!("perf suite ({}):", if opts.quick { "quick" } else { "full" });
    let mut out = Vec::new();
    for (name, run) in specs {
        if let Some(f) = &opts.only {
            if !name.contains(f.as_str()) {
                continue;
            }
        }
        let r = run();
        debug_assert_eq!(r.name, name, "spec label out of sync with scenario name");
        eprintln!(
            "  {:<32} {:>8.3}s  {:>12.0} ev/s  peak_q {:>8}  rss {:>6.0}MB  {}",
            r.name, r.wall_s, r.events_per_s, r.peak_queue_depth, r.peak_rss_mb, r.detail
        );
        out.push(r);
    }
    out
}

/// Serializes results as `BENCH.json`: one scenario object per line, so the
/// comparison (and any greps) stay line-oriented.
pub fn to_json(results: &[PerfResult], quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"version\": 1,\n  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0}, \"peak_queue_depth\": {}, \"peak_rss_mb\": {:.0}, \"wire_bytes_total\": {}, \"wire_bytes_saved\": {}, \"detail\": \"{}\"}}{}\n",
            r.name,
            r.wall_s,
            r.events,
            r.events_per_s,
            r.peak_queue_depth,
            r.peak_rss_mb,
            r.wire_bytes_total,
            r.wire_bytes_saved,
            r.detail,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Per-scenario wire-byte table: what crossed the simulated network, what
/// the delta protocol avoided sending, and the savings percentage. Printed
/// by the `perf` binary after every run (`--only wire --quick` gives just
/// the delta scenario); the perf CI job uploads it as an artifact.
pub fn wire_table(results: &[PerfResult]) -> String {
    let mut s = String::from("wire bytes by scenario:\n");
    s.push_str(&format!(
        "  {:<32} {:>14} {:>14} {:>7}\n",
        "scenario", "wire_bytes", "saved", "saved%"
    ));
    for r in results {
        let full = r.wire_bytes_total + r.wire_bytes_saved;
        let pct = 100.0 * r.wire_bytes_saved as f64 / full.max(1) as f64;
        s.push_str(&format!(
            "  {:<32} {:>14} {:>14} {:>6.1}%\n",
            r.name, r.wire_bytes_total, r.wire_bytes_saved, pct
        ));
    }
    s
}

/// Extracts `"key": <number>` from a one-scenario-per-line JSON line.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// Report-only comparison of freshly measured results against a committed
/// `BENCH.json` baseline. Never fails: machines differ, CI is noisy — the
/// delta is information, the committed baseline is the record.
pub fn compare(results: &[PerfResult], baseline: &str) -> String {
    // One record per scenario object, whether the baseline is the compact
    // one-line-per-scenario form or pretty-printed multi-line JSON (the
    // committed BENCH.json): flatten newlines, then cut at object ends so
    // every chunk holds at most one scenario's fields.
    let flat = baseline.replace('\n', " ");
    let records: Vec<&str> = flat.split('}').filter(|c| c.contains("\"name\"")).collect();
    let mut out = String::new();
    out.push_str("perf delta vs committed baseline (report only; >0% wall = slower):\n");
    for r in results {
        let base = records.iter().copied().find(|l| field_str(l, "name") == Some(r.name.as_str()));
        match base {
            Some(line) => {
                let bw = field_f64(line, "wall_s").unwrap_or(f64::NAN);
                let be = field_f64(line, "events_per_s").unwrap_or(f64::NAN);
                let dw = 100.0 * (r.wall_s - bw) / bw;
                let de = 100.0 * (r.events_per_s - be) / be;
                let bd = field_str(line, "detail").unwrap_or("?");
                let behavior = if bd == r.detail { "detail ok" } else { "DETAIL CHANGED" };
                out.push_str(&format!(
                    "  {:<32} wall {:>8.3}s vs {:>8.3}s ({:+.1}%)  ev/s {:+.1}%  [{}]\n",
                    r.name, r.wall_s, bw, dw, de, behavior
                ));
            }
            None => {
                out.push_str(&format!("  {:<32} (no baseline entry)\n", r.name));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_compare_fields() {
        let r = PerfResult {
            name: "x".into(),
            wall_s: 1.5,
            events: 100,
            events_per_s: 66.7,
            peak_queue_depth: 9,
            peak_rss_mb: 12.0,
            wire_bytes_total: 420,
            wire_bytes_saved: 80,
            detail: "converged_sim_s=12".into(),
        };
        let json = to_json(std::slice::from_ref(&r), true);
        let line = json.lines().find(|l| l.contains("\"name\"")).unwrap();
        assert_eq!(field_str(line, "name"), Some("x"));
        assert_eq!(field_f64(line, "wall_s"), Some(1.5));
        assert_eq!(field_f64(line, "peak_queue_depth"), Some(9.0));
        assert_eq!(field_str(line, "detail"), Some("converged_sim_s=12"));
        let report = compare(&[r], &json);
        assert!(report.contains("detail ok"), "{report}");
        assert!(report.contains("+0.0%"), "{report}");
    }

    #[test]
    fn compare_flags_behavior_change_and_missing_entries() {
        let a = PerfResult {
            name: "x".into(),
            wall_s: 1.0,
            events: 1,
            events_per_s: 1.0,
            peak_queue_depth: 1,
            peak_rss_mb: 1.0,
            wire_bytes_total: 10,
            wire_bytes_saved: 0,
            detail: "v=1".into(),
        };
        let mut b = a.clone();
        b.detail = "v=2".into();
        let baseline = to_json(&[a], true);
        let report = compare(&[b.clone()], &baseline);
        assert!(report.contains("DETAIL CHANGED"), "{report}");
        b.name = "y".into();
        let report = compare(&[b], &baseline);
        assert!(report.contains("no baseline entry"), "{report}");
    }

    #[test]
    fn compare_parses_pretty_printed_baselines() {
        let r = PerfResult {
            name: "astro".into(),
            wall_s: 2.0,
            events: 10,
            events_per_s: 5.0,
            peak_queue_depth: 3,
            peak_rss_mb: 2.0,
            wire_bytes_total: 10,
            wire_bytes_saved: 0,
            detail: "v=1".into(),
        };
        // The committed BENCH.json format: one field per line.
        let baseline = "{\n  \"version\": 1,\n  \"scenarios\": [\n    {\n      \
                        \"name\": \"astro\",\n      \"wall_s\": 1.0,\n      \
                        \"events\": 10,\n      \"events_per_s\": 10.0,\n      \
                        \"peak_queue_depth\": 3,\n      \"detail\": \"v=1\"\n    }\n  ]\n}\n";
        let report = compare(&[r], baseline);
        assert!(report.contains("+100.0%"), "{report}");
        assert!(report.contains("detail ok"), "{report}");
        assert!(!report.contains("NaN"), "{report}");
    }

    #[test]
    fn ring_scenario_is_deterministic_in_events() {
        let a = simnet_ring(8, 1);
        let b = simnet_ring(8, 1);
        assert_eq!(a.events, b.events);
        assert_eq!(a.detail, b.detail);
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
        assert!(a.events >= 8 * 200);
    }
}
