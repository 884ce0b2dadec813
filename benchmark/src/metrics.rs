//! The metric tables: every name the benchmark prints, with its unit, the
//! direction that is better, and — for end-to-end metrics — the bound by
//! which it may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`--print-contract`); a test keeps the two in step.

use crate::workloads;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric's contract.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit. `sim_s` / `sim_ms` are simulated time; `s`, `ms`, `us`, `ns`
    /// are host time.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
    /// True when the value carries host noise (time, memory). Everything
    /// else a run reports is simulated or counted and must repeat exactly
    /// for one build and one seed.
    pub host: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound, host: false }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0, host: false }
}

impl Metric {
    const fn host(self) -> Metric {
        Metric { host: true, ..self }
    }
}

use Better::{Higher, Lower};

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// What a user of the system — a subscriber, an operator, or someone running
/// the reproduction on a laptop — sees. Every workload reports every one.
///
/// The acceptance rule compares runs *across seeds*, so each bound is about
/// three times the widest seed-to-seed spread (interquartile range ÷ median)
/// seen on any workload, capped at the contract's 0.25. Host time on the
/// 2-core VM these were chosen on drifts by 15–40 % between quiet and busy
/// minutes, which no amount of repetition inside one run removes; hence the
/// cap for `setup_s` and `wall_s`.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25).host(),
    e2e("wall_s", "s", Lower, 0.25).host(),
    e2e("peak_rss_mb", "MB", Lower, 0.05).host(),
    e2e("converged_sim_s", "sim_s", Lower, 0.25),
    e2e("deliver_p50_ms", "sim_ms", Lower, 0.15),
    e2e("deliver_p99_ms", "sim_ms", Lower, 0.15),
    e2e("deliver_p999_ms", "sim_ms", Lower, 0.25),
    e2e("delivered_pct", "%", Higher, 0.001),
    e2e("wire_bytes_per_delivery", "B", Lower, 0.15),
];

/// What single layers did. No bounds: they explain an end-to-end move, they
/// do not gate one.
pub const PER_LAYER: &[Metric] = &[
    layer("host.wall_s_min", "s", Lower).host(),
    layer("host.wall_s_iqr", "s", Lower).host(),
    layer("host.allocs", "count", Lower),
    layer("host.alloc_bytes", "B", Lower),
    layer("host.allocs_per_event", "1/event", Lower),
    layer("host.trace_overhead_pct", "%", Lower).host(),
    layer("simnet.events", "count", Lower),
    layer("simnet.events_per_s", "1/s", Higher).host(),
    layer("simnet.ns_per_event", "ns", Lower).host(),
    layer("simnet.self_s", "s", Lower).host(),
    layer("simnet.self_share", "ratio", Lower).host(),
    layer("simnet.peak_queue_depth", "count", Lower),
    layer("simnet.msgs_sent", "count", Lower),
    layer("simnet.msgs_lost", "count", Lower),
    layer("simnet.timers_fired", "count", Lower),
    layer("simnet.queue_push_pop_ns", "ns", Lower).host(),
    layer("astrolabe.path_s", "s", Lower).host(),
    layer("astrolabe.path_share", "ratio", Lower).host(),
    layer("astrolabe.callbacks", "count", Lower),
    layer("astrolabe.gossip_bytes", "B", Lower),
    layer("astrolabe.gossip_bytes_per_node_round", "B", Lower),
    layer("astrolabe.gossip_rounds", "count", Lower),
    layer("astrolabe.rows_merged", "count", Lower),
    layer("astrolabe.agg_recomputes", "count", Lower),
    layer("astrolabe.agg_cache_hit_ratio", "ratio", Higher),
    layer("astrolabe.refresh_rows", "count", Higher),
    layer("astrolabe.rows_held", "count", Lower),
    layer("astrolabe.rss_bytes_per_row", "B", Lower).host(),
    layer("astrolabe.merge_row_ns", "ns", Lower).host(),
    layer("astrolabe.run_program_64rows_us", "us", Lower).host(),
    layer("astrolabe.agent_round_us", "us", Lower).host(),
    layer("amcast.path_s", "s", Lower).host(),
    layer("amcast.path_share", "ratio", Lower).host(),
    layer("amcast.callbacks", "count", Lower),
    layer("amcast.forward_bytes", "B", Lower),
    layer("amcast.forwards", "count", Lower),
    layer("amcast.dup_ratio", "ratio", Lower),
    layer("amcast.ack_retries", "count", Lower),
    layer("amcast.ack_failovers", "count", Lower),
    layer("amcast.peak_queue", "count", Lower),
    layer("amcast.route_us", "us", Lower).host(),
    layer("amcast.queue_push_pop_ns", "ns", Lower).host(),
    layer("amcast.seqlog_insert_ns", "ns", Lower).host(),
    layer("amcast.dedup_admit_ns", "ns", Lower).host(),
    layer("newswire.repair_path_s", "s", Lower).host(),
    layer("newswire.repair_path_share", "ratio", Lower).host(),
    layer("newswire.publish_path_s", "s", Lower).host(),
    layer("newswire.repair_bytes", "B", Lower),
    layer("newswire.repair_items_sent", "count", Lower),
    layer("newswire.repair_useful_ratio", "ratio", Higher),
    layer("newswire.reconcile_requests", "count", Lower),
    layer("newswire.delivered", "count", Higher),
    layer("newswire.delta_saved_pct", "%", Higher),
    layer("newswire.delta_fallbacks", "count", Lower),
    layer("newswire.rss_bytes_per_cached_item", "B", Lower).host(),
    layer("newswire.cache_insert_ns", "ns", Lower).host(),
    layer("newswire.cache_revise_ns", "ns", Lower).host(),
    layer("newswire.cache_get_ns", "ns", Lower).host(),
    layer("newswire.verify_item_ns", "ns", Lower).host(),
    layer("newswire.subscription_match_ns", "ns", Lower).host(),
    layer("newsml.item_build_us", "us", Lower).host(),
    layer("newsml.cdc_delta_cost_us", "us", Lower).host(),
    layer("newsml.nitf_roundtrip_us", "us", Lower).host(),
    layer("filters.bloom_contains_ns", "ns", Lower).host(),
    layer("filters.bloom_union_ns", "ns", Lower).host(),
    layer("filters.positions_ns", "ns", Lower).host(),
    layer("obs.trace_records", "count", Lower),
    layer("obs.trace_dropped", "count", Lower),
    layer("obs.trace_record_ns", "ns", Lower).host(),
    layer("obs.snapshot_ms", "ms", Lower).host(),
];

/// Why each workload exists, for `BENCHMARK.json`.
pub const WHY: [&str; 4] = [
    "pure engine work: simnet does all of it, the protocol layers none, so an engine change shows 1:1",
    "Astrolabe alone: merge and aggregation over a deep timer queue, amcast and newswire idle",
    "NewsWire first pass on a clean WAN: forwarding, dedup, Bloom tests, cache inserts; repair should idle",
    "the same layers on the slow path: 5% loss, revised stories, ack retries, repair, fusion, deltas",
];

/// Whether `key` carries host noise. Keys outside the tables (sample
/// counts and the like) are simulated.
pub fn is_host_key(key: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == key && m.host)
}

/// Whether `key` must be identical between two runs of one build and seed:
/// everything simulated or counted, except the allocation counts, which are
/// expected to repeat but wobble by a few in millions with `HashMap`'s
/// per-process hash seeds and so only warn.
pub fn must_repeat(key: &str) -> bool {
    !is_host_key(key) && !key.starts_with("host.alloc")
}

/// Renders `BENCHMARK.json`.
pub fn contract_json() -> String {
    let better = |b: Better| if b == Lower { "lower" } else { "higher" };
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = workloads::NAMES
        .iter()
        .zip(WHY)
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    s.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    s.push_str(&format!("  \"per_layer\": [\n{}\n  ]\n}}\n", rows.join(",\n")));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, contract_json(), "regenerate with `-- --print-contract`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).chain(workloads::NAMES).collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().chain(PER_LAYER).all(|m| m.unit.len() <= 16));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
