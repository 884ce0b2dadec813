//! E13 — the chaos sweep: gray failures, sustained churn, and the
//! acknowledged-forwarding ablation.
//!
//! Paper basis (§9): the robustness section argues the tree survives
//! forwarder failures through redundant representatives and the cache, but
//! its failure model is crash-stop. Gray failures — a representative that
//! is alive (it gossips, it stays elected) yet drops or delays most of what
//! it forwards — silently blackhole a subtree, which is exactly the case
//! acknowledged hand-offs with retry/backoff and representative failover
//! are built to cover.
//!
//! The sweep runs a first-pass-tree deployment (forwarding redundancy 1,
//! anti-entropy repair off, so the tree itself is what is measured) under
//! churn × gray-fraction chaos plans, with acknowledged forwarding on vs
//! off, and reports the survivor delivery ratio, delivery p99, and the ack
//! machinery's work (retries / failovers / abandons).

use std::collections::HashSet;

use newswire::{check_invariants, NewsWireConfig};
use rand::Rng;
use simnet::{fork, ChurnSpec, FaultPlan, GrayProfile, GraySpec, NodeId, SimTime};

use crate::experiments::support::{dump_telemetry, tech_item};
use crate::Table;

struct Point {
    survivor_pct: f64,
    p99_secs: f64,
    retries: u64,
    failovers: u64,
    abandoned: u64,
}

/// One chaos run: `gray_pct`% of subscribers go severely gray for the whole
/// publish window; with `churn`, a further 20% Poisson-churn through it.
fn run_point(n: u32, churn: bool, gray_pct: u32, ack: bool, seed: u64) -> Point {
    let mut config = NewsWireConfig::tech_news();
    config.redundancy = 1; // isolate the first-pass tree: one rep per hand-off
    config.anti_entropy = false; // nothing periodic to mask tree losses
    config.acks = ack;
    let mut d = newswire::DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .wan(0.02)
        .publisher(newswire::PublisherSpec::global(newsml::PublisherProfile::slashdot(
            newsml::PublisherId(0),
        )))
        .cats_per_subscriber(2)
        .build();
    d.settle(90);

    // Fault sets are drawn from a stream independent of the ack knob, so
    // both arms of the ablation face the identical chaos plan.
    let total = n + 1; // + the publisher at node 0, which is spared
    let mut pick_rng = fork(seed, 0x13);
    let mut picked: HashSet<u32> = HashSet::new();
    let mut gray_nodes = Vec::new();
    while (gray_nodes.len() as u32) < n * gray_pct / 100 {
        let v = pick_rng.gen_range(1..total);
        if picked.insert(v) {
            gray_nodes.push(NodeId(v));
        }
    }
    let mut churn_nodes = Vec::new();
    if churn {
        while (churn_nodes.len() as u32) < n / 5 {
            let v = pick_rng.gen_range(1..total);
            if picked.insert(v) {
                churn_nodes.push(NodeId(v));
            }
        }
    }
    let mut plan = FaultPlan { salt: seed, ..FaultPlan::default() };
    if !gray_nodes.is_empty() {
        plan.gray.push(GraySpec {
            nodes: gray_nodes,
            start: SimTime::from_secs(90),
            end: None, // the brownout outlasts the measurement window
            profile: GrayProfile::severe(),
        });
    }
    if !churn_nodes.is_empty() {
        plan.churn.push(ChurnSpec {
            nodes: churn_nodes,
            start: SimTime::from_secs(90),
            end: SimTime::from_secs(150),
            mean_up_secs: 30.0,
            mean_down_secs: 10.0,
            recover_at_end: true,
            restart: simnet::RestartMode::Freeze,
        });
    }
    d.sim.apply_fault_plan(&plan);

    let items: Vec<_> = (0..10u64).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + 3 * i as u64), item.clone());
    }
    // Bounded horizon: enough for retries and failovers, no repair to lean on.
    d.settle(70);

    let report = check_invariants(&d, &items, &plan.churned_nodes());
    // Ack-machinery counters from the telemetry registry (they do not reset
    // on recovery); churned nodes clear their delivery logs, so the p99
    // keeps the walk, which reflects what survivors actually hold.
    let (retries, failovers, abandoned) = (
        d.counter(obs::ctr::NW_ACK_RETRIES),
        d.counter(obs::ctr::NW_ACK_FAILOVERS),
        d.counter(obs::ctr::NW_HANDOFFS_ABANDONED),
    );
    let mut lat = d.delivery_latency_summary();
    dump_telemetry(
        &format!("e13_churn{}_gray{gray_pct}_ack{}", u8::from(churn), u8::from(ack)),
        &mut d.sim,
    );
    Point {
        survivor_pct: 100.0 * report.survivor_delivery_ratio(),
        p99_secs: if lat.is_empty() { 0.0 } else { lat.quantile(0.99) },
        retries,
        failovers,
        abandoned,
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 200 } else { 400 };
    let grays: &[u32] = if quick { &[0, 20] } else { &[0, 10, 20, 30] };
    let churns: &[bool] = if quick { &[true] } else { &[false, true] };
    let mut table = Table::new(
        "E13 — chaos sweep: survivor delivery, acked vs unacked hand-offs (k=1 tree, anti-entropy off)",
        &["churn", "gray %", "no-ack %", "ack %", "ack p99 s", "retries", "failovers", "abandoned"],
    );
    for &churn in churns {
        for &g in grays {
            let off = run_point(n, churn, g, false, 0xE13);
            let on = run_point(n, churn, g, true, 0xE13);
            table.row(&[
                if churn { "on" } else { "off" }.to_string(),
                g.to_string(),
                format!("{:.1}", off.survivor_pct),
                format!("{:.1}", on.survivor_pct),
                format!("{:.2}", on.p99_secs),
                on.retries.to_string(),
                on.failovers.to_string(),
                on.abandoned.to_string(),
            ]);
        }
    }
    table.caption(format!(
        "{n} subscribers, branching 8, 2% WAN loss; gray = severe profile (+2 s, 40% recv \
         drop, 60% send throttle) for the whole window, churn = 20% of nodes at 30 s up / \
         10 s down; survivor ratio counts continuously-live interested nodes (gray ones \
         included — slow is not dead). Paper §9 covers crash-stop only; acked hand-offs \
         route around the gray representatives its model misses."
    ));
    table.print();
}
