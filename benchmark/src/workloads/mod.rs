//! The four workloads and the scaffolding they share.
//!
//! Every workload is a batch job generated from one process and one thread:
//! inputs follow a fixed, seed-derived schedule in *simulated* time (open
//! loop in sim time), and host cost is the time to complete a stated input
//! size. One call of [`run`] is one set-up plus one measured phase; the
//! parent process repeats it in fresh subprocesses and takes medians.

pub mod engine_ring;
pub mod gossip_cold_start;
pub mod newswire;

use std::collections::BTreeMap;
use std::time::Instant;

use astrolabe::Agent;
use obs::{ctr, gauge, CtrId};
use simnet::{Node, SimTime, Simulation};

use crate::alloc;
use crate::probe::{self, Bare, Classify, Path, Phase, Traced};

/// Workload names, in the order the whole-benchmark command runs them.
pub const NAMES: [&str; 4] =
    ["engine_ring", "gossip_cold_start", "publish_steady", "lossy_revisions"];

/// Everything one run measured, keyed by metric name. Keys for which
/// [`crate::metrics::is_host_key`] holds carry host noise; every other value
/// is simulated or counted and must repeat exactly for one build and seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Sample {
    /// Metric values.
    pub values: BTreeMap<String, f64>,
    /// Operations the workload attempted (tokens, nodes, wanted deliveries).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
}

impl Sample {
    /// Records one value.
    pub fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_owned(), value);
    }
}

/// Runs `workload` once. `quick` divides the node count by ten (tests only;
/// quick and full sizes are never mixed in one set of results).
///
/// # Errors
///
/// Returns the reason when the workload's outputs fail validation.
pub fn run(workload: &str, seed: u64, quick: bool, traced: bool) -> Result<Sample, String> {
    if traced {
        run_as::<Traced>(workload, seed, quick)
    } else {
        run_as::<Bare>(workload, seed, quick)
    }
}

fn run_as<M: probe::Mode>(workload: &str, seed: u64, quick: bool) -> Result<Sample, String> {
    match workload {
        "engine_ring" => engine_ring::run::<M>(seed, quick),
        "gossip_cold_start" => gossip_cold_start::run::<M>(seed, quick),
        "publish_steady" => newswire::run::<M>(newswire::Shape::PublishSteady, seed, quick),
        "lossy_revisions" => newswire::run::<M>(newswire::Shape::LossyRevisions, seed, quick),
        _ => Err(format!("unknown workload {workload:?} (expected one of {NAMES:?})")),
    }
}

/// Host seconds per phase. Only time inside the closures counts, so the
/// harness's own polling and bookkeeping between simulator calls stays out
/// of `wall_s`.
#[derive(Debug, Default)]
pub struct Stopwatch {
    secs: [f64; 3],
}

impl Stopwatch {
    /// Runs `f` under `phase`, adding its host time to that phase.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        probe::set_phase(phase);
        let t = Instant::now();
        let r = f();
        self.secs[phase as usize] += t.elapsed().as_secs_f64();
        r
    }

    /// Host seconds of the measured phase (`measure` + `drain`).
    pub fn wall(&self) -> f64 {
        self.secs[Phase::Measure as usize] + self.secs[Phase::Drain as usize]
    }
}

/// Tracks, poll by poll, when each node's root table first accounts for the
/// whole membership.
#[derive(Debug)]
pub struct FullView {
    at: Vec<Option<SimTime>>,
    pending: usize,
    all_at: Option<SimTime>,
}

impl FullView {
    /// Nobody has the full view of `n` members yet.
    pub fn new(n: u32) -> Self {
        FullView { at: vec![None; n as usize], pending: n as usize, all_at: None }
    }

    /// Checks every node still waiting; `agent_of` maps a node id to its
    /// Astrolabe agent.
    pub fn poll<'a>(&mut self, now: SimTime, agent_of: impl Fn(u32) -> &'a Agent) {
        let n = self.at.len() as i64;
        for (i, slot) in self.at.iter_mut().enumerate().filter(|(_, s)| s.is_none()) {
            let members: i64 = agent_of(i as u32)
                .root_table()
                .iter()
                .filter_map(|(_, row)| row.get("nmembers").and_then(|v| v.as_i64()))
                .sum();
            if members == n {
                *slot = Some(now);
                self.pending -= 1;
            }
        }
        if self.pending == 0 && self.all_at.is_none() {
            self.all_at = Some(now);
        }
    }

    /// Nodes still without the full view.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The poll at which the last node got the full view.
    pub fn all_at(&self) -> Option<SimTime> {
        self.all_at
    }

    /// Simulated µs from cold start to the full view, per node that got it.
    pub fn times_us(&self) -> Vec<u64> {
        self.at.iter().flatten().map(|t| t.as_micros()).collect()
    }
}

/// A reading of every registry counter plus the engine's event count, taken
/// at the start of the measured phase so the per-layer counts cover that
/// phase only.
#[derive(Debug)]
pub struct Baseline {
    counters: Vec<u64>,
    events: u64,
}

fn read_counters<N: Node>(sim: &Simulation<N>) -> Vec<u64> {
    let hub = sim.telemetry();
    let hub = hub.borrow();
    (0..ctr::NAMES.len()).map(|i| hub.counter_total(CtrId(i as u16))).collect()
}

impl Baseline {
    /// Reads the baseline and zeroes the allocation counters: call it as the
    /// last thing before the measured phase starts.
    pub fn start<N: Node>(sim: &Simulation<N>) -> Self {
        let b = Baseline { counters: read_counters(sim), events: sim.events_processed() };
        alloc::reset();
        b
    }
}

/// Counter deltas over the measured phase.
#[derive(Debug)]
pub struct Deltas(Vec<u64>);

impl Deltas {
    /// The measured-phase increase of one counter.
    pub fn of(&self, id: CtrId) -> u64 {
        self.0[id.0 as usize]
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work has no ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A percentile as an exact fraction, so that ranks are computed in
/// integers (`100 × (1 − 0.9)` is not 10 in floating point).
pub type Pct = (usize, usize);

const P50: Pct = (1, 2);
const P99: Pct = (99, 100);

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: Pct) -> usize {
    (n * p.0).div_ceil(p.1).clamp(1, n)
}

/// The highest percentile of {99.9, 99, 90} that has at least ten samples
/// beyond it, or the median when even p90 does not.
pub fn supported_percentile(n: usize) -> Pct {
    [(999, 1000), P99, (9, 10)].into_iter().find(|&p| n - rank(n, p) >= 10).unwrap_or(P50)
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], p: Pct) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Records the latency metrics from publish→deliver (or analogous) sample
/// latencies in simulated microseconds. `deliver_p999_ms` is the highest
/// percentile the sample supports, which is p99.9 from 10,000 samples up;
/// `deliver_top_pct` says which one it is.
pub fn latency_metrics(s: &mut Sample, mut lat_us: Vec<u64>) {
    lat_us.sort_unstable();
    let top = supported_percentile(lat_us.len());
    let p99 = if top.0 * P99.1 < P99.0 * top.1 { top } else { P99 };
    s.set("deliver_p50_ms", quantile(&lat_us, P50) as f64 / 1e3);
    s.set("deliver_p99_ms", quantile(&lat_us, p99) as f64 / 1e3);
    s.set("deliver_p999_ms", quantile(&lat_us, top) as f64 / 1e3);
    s.set("deliver_samples", lat_us.len() as f64);
    s.set("deliver_top_pct", 100.0 * top.0 as f64 / top.1 as f64);
}

/// Process peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Fills in what every workload reports the same way: host time and memory,
/// allocation counts, each layer's registry counters over the measured
/// phase, and — in the traced run — the per-path callback times with
/// `simnet.self_s` as the remainder. `cached_items` is the number of items
/// held in NewsWire caches at the end (0 where there are none). Returns the
/// measured-phase counter deltas.
pub fn finish<M: probe::Mode, N: Classify>(
    s: &mut Sample,
    workload: &str,
    sim: &Simulation<M::Node<N>>,
    sw: &Stopwatch,
    base: &Baseline,
    cached_items: u64,
) -> Result<Deltas, String> {
    let (allocs, alloc_bytes) = alloc::snapshot();
    let now = read_counters(sim);
    let d = Deltas(now.iter().zip(&base.counters).map(|(a, b)| a - b).collect());
    let c = |id: CtrId| d.of(id) as f64;
    let events = (sim.events_processed() - base.events) as f64;
    let wall = sw.wall();
    let rss_mb = peak_rss_mb();

    s.set("setup_s", sw.secs[Phase::Setup as usize]);
    s.set("wall_s", wall);
    s.set("peak_rss_mb", rss_mb);
    s.set("host.allocs", allocs as f64);
    s.set("host.alloc_bytes", alloc_bytes as f64);
    s.set("host.allocs_per_event", ratio(allocs as f64, events));

    s.set("simnet.events", events);
    s.set("simnet.events_per_s", ratio(events, wall));
    s.set("simnet.ns_per_event", ratio(wall * 1e9, events));
    s.set("simnet.peak_queue_depth", sim.peak_queue_depth() as f64);
    s.set("simnet.msgs_sent", c(ctr::MSGS_SENT));
    s.set("simnet.msgs_lost", c(ctr::MSGS_LOST));
    s.set("simnet.timers_fired", c(ctr::TIMERS_FIRED));

    let (rows_held, peak_queue, trace_len, trace_dropped) = {
        let hub = sim.telemetry();
        let hub = hub.borrow();
        let peak = (0..hub.node_count()).map(|i| hub.node_gauge(i, gauge::NW_PEAK_QUEUE)).max();
        let ring = hub.ring();
        (hub.gauge_total(gauge::ASTRO_ROWS_HELD), peak.unwrap_or(0), ring.len(), ring.dropped())
    };
    s.set("astrolabe.gossip_rounds", c(ctr::GOSSIP_ROUNDS));
    s.set("astrolabe.rows_merged", c(ctr::GOSSIP_ROWS_MERGED));
    s.set("astrolabe.agg_recomputes", c(ctr::AGG_RECOMPUTES));
    s.set(
        "astrolabe.agg_cache_hit_ratio",
        ratio(c(ctr::AGG_CACHE_HITS), c(ctr::AGG_CACHE_HITS) + c(ctr::AGG_RECOMPUTES)),
    );
    s.set("astrolabe.refresh_rows", c(ctr::GOSSIP_REFRESH_ROWS));
    s.set("astrolabe.rows_held", rows_held as f64);
    s.set("astrolabe.rss_bytes_per_row", ratio(rss_mb * 1048576.0, rows_held as f64));

    s.set("amcast.forwards", c(ctr::NW_FORWARDS));
    s.set(
        "amcast.dup_ratio",
        ratio(c(ctr::NW_DUPLICATES), c(ctr::NW_DELIVERED) + c(ctr::NW_DUPLICATES)),
    );
    s.set("amcast.ack_retries", c(ctr::NW_ACK_RETRIES));
    s.set("amcast.ack_failovers", c(ctr::NW_ACK_FAILOVERS));
    s.set("amcast.peak_queue", peak_queue as f64);

    let resent = c(ctr::NW_REPAIR_ITEMS_SENT) + c(ctr::NW_RECONCILE_ITEMS_SENT);
    s.set("newswire.repair_items_sent", c(ctr::NW_REPAIR_ITEMS_SENT));
    s.set("newswire.repair_useful_ratio", ratio(c(ctr::NW_DELIVERED_REPAIR), resent));
    s.set("newswire.reconcile_requests", c(ctr::NW_RECONCILE_REQUESTS));
    s.set("newswire.delivered", c(ctr::NW_DELIVERED));
    let saved =
        if d.of(ctr::BYTES_WIRE) == 0 { 0.0 } else { c(ctr::BYTES_SENT) - c(ctr::BYTES_WIRE) };
    s.set("newswire.delta_saved_pct", 100.0 * ratio(saved, c(ctr::BYTES_SENT)));
    s.set("newswire.delta_fallbacks", c(ctr::DELTA_FALLBACK_FULL));
    s.set("newswire.rss_bytes_per_cached_item", ratio(rss_mb * 1048576.0, cached_items as f64));

    s.set("obs.trace_records", (trace_len as u64 + trace_dropped) as f64);
    s.set("obs.trace_dropped", trace_dropped as f64);
    let t = Instant::now();
    std::hint::black_box(sim.snapshot_telemetry());
    s.set("obs.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);

    if M::TRACED {
        let t = probe::path_totals::<N>();
        let self_s = wall - t.callback_secs();
        for (prefix, path) in [
            ("astrolabe.path", Path::Astrolabe),
            ("amcast.path", Path::Amcast),
            ("newswire.repair_path", Path::Repair),
        ] {
            s.set(&format!("{prefix}_s"), t.secs_of(path));
            s.set(&format!("{prefix}_share"), ratio(t.secs_of(path), wall));
        }
        s.set("newswire.publish_path_s", t.secs_of(Path::Publish));
        s.set("astrolabe.callbacks", t.calls_of(Path::Astrolabe) as f64);
        s.set("amcast.callbacks", t.calls_of(Path::Amcast) as f64);
        s.set("astrolabe.gossip_bytes", t.bytes_of(Path::Astrolabe) as f64);
        s.set(
            "astrolabe.gossip_bytes_per_node_round",
            ratio(t.bytes_of(Path::Astrolabe) as f64, c(ctr::GOSSIP_ROUNDS)),
        );
        s.set("amcast.forward_bytes", t.bytes_of(Path::Amcast) as f64);
        s.set("newswire.repair_bytes", t.bytes_of(Path::Repair) as f64);
        s.set("simnet.self_s", self_s);
        s.set("simnet.self_share", ratio(self_s, wall));
        // The map from timer tags to layers is copied from private constants
        // in the crates; this is the check that guards it.
        if t.gossip_timer_calls != d.of(ctr::GOSSIP_ROUNDS) {
            return Err(format!(
                "timer tag 1 fired {} times but gossip_rounds rose by {}: \
                 the timer-tag → layer map is stale",
                t.gossip_timer_calls,
                d.of(ctr::GOSSIP_ROUNDS)
            ));
        }
        let attributed = wall - t.secs_of(Path::Other);
        if attributed < 0.95 * wall {
            return Err(format!("only {attributed:.3}s of {wall:.3}s measured wall attributed"));
        }
        // Under the working directory, whether that is the repository root
        // (the contract's form) or this package.
        let dir =
            if std::path::Path::new("benchmark/src").is_dir() { "benchmark/out" } else { "out" };
        let json = probe::trace_json::<N>(workload, sw.secs);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(format!("{dir}/{workload}.trace.json"), json))
            .map_err(|e| format!("writing the trace under {dir}: {e}"))?;
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helper_wants_ten_samples_beyond() {
        assert_eq!(supported_percentile(10_000), (999, 1000));
        assert_eq!(supported_percentile(9_999), (99, 100));
        assert_eq!(supported_percentile(1_000), (99, 100));
        assert_eq!(supported_percentile(999), (9, 10));
        assert_eq!(supported_percentile(100), (9, 10));
        assert_eq!(supported_percentile(99), (1, 2));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, (1, 2)), 50);
        assert_eq!(quantile(&v, (99, 100)), 99);
        assert_eq!(quantile(&v, (9, 10)), 90);
        assert_eq!(quantile(&[7], (999, 1000)), 7);
    }

    #[test]
    fn latency_metrics_fall_back_to_the_supported_percentile() {
        let mut s = Sample::default();
        latency_metrics(&mut s, (1..=200).map(|i| i * 1_000).collect());
        assert_eq!(s.values["deliver_p50_ms"], 100.0);
        assert_eq!(s.values["deliver_top_pct"], 90.0);
        assert_eq!(s.values["deliver_p99_ms"], 180.0, "p99 has 2 samples beyond it, p90 has 20");
        assert_eq!(s.values["deliver_p999_ms"], 180.0);
    }

    fn determinism(workload: &str) {
        let sim_only = |s: Sample| -> Vec<(String, f64)> {
            s.values.into_iter().filter(|(k, _)| crate::metrics::must_repeat(k)).collect()
        };
        let a = run(workload, 11, true, false).expect("valid");
        let b = run(workload, 11, true, false).expect("valid");
        let c = run(workload, 12, true, false).expect("valid");
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        let (a, b, c) = (sim_only(a), sim_only(b), sim_only(c));
        assert!(a.len() > 10, "{a:?}");
        assert_eq!(a, b, "same seed, same simulated metrics and counts");
        assert_ne!(a, c, "another seed, other inputs");
    }

    #[test]
    fn engine_ring_quick_is_deterministic() {
        determinism("engine_ring");
    }

    #[test]
    fn gossip_cold_start_quick_is_deterministic() {
        determinism("gossip_cold_start");
    }

    #[test]
    fn publish_steady_quick_is_deterministic() {
        determinism("publish_steady");
    }

    #[test]
    fn lossy_revisions_quick_is_deterministic() {
        determinism("lossy_revisions");
    }
}
