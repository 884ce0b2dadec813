//! E16 — durable-state crash recovery: restart mode × churn intensity,
//! with the anti-entropy ablation.
//!
//! Paper basis (§9): the robustness section claims the collaborative
//! infrastructure rides out end-system failures because "no process plays
//! a special role" and the cache-plus-repair machinery makes delivery
//! eventual — but its failure model is crash-*stop*: a failed node either
//! stays gone or comes back with its memory intact. Real crash-*recovery*
//! is harsher: a restarting process loses its volatile state and returns
//! with whatever survived on stable storage, possibly nothing. This sweep
//! measures that regime. Every arm runs the identical seeded churn plan;
//! the only things that vary are how churned nodes come back — `Freeze`
//! (legacy ambient memory), `ColdDurable` (volatile state wiped, the
//! simulated disk survives and recovery re-derives subscription, cache,
//! article logs and delivery records from it), `ColdAmnesia` (the disk is
//! lost too: re-subscribe from configuration, burn a fresh incarnation,
//! backfill everything from peers) — and whether log anti-entropy (PR-2's
//! reconciliation) is there to close the deep holes.
//!
//! Reported per arm: eventual delivery completeness over the churned
//! interested nodes (the paper's implicit 100% claim), recoveries run to
//! completion with their mean duration, backfill volume, incarnation
//! bumps observed by peers, and unsynced disk writes destroyed by crashes.

use std::collections::HashSet;

use newswire::{check_invariants, NewsWireConfig};
use rand::Rng;
use simnet::{fork, ChurnSpec, FaultPlan, NodeId, RestartMode, SimTime};

use crate::experiments::support::{dump_telemetry, tech_item};
use crate::Table;

struct Point {
    completeness_pct: f64,
    oracle_ok: bool,
    recoveries: u64,
    mean_recovery_secs: f64,
    backfill: u64,
    incar_bumps: u64,
    writes_lost: u64,
}

fn mode_label(mode: RestartMode) -> &'static str {
    match mode {
        RestartMode::Freeze => "freeze",
        RestartMode::ColdDurable => "cold-durable",
        RestartMode::ColdAmnesia => "cold-amnesia",
    }
}

/// One recovery run: 20% of subscribers churn through a three-minute
/// window, all restarting in `mode`; stories publish throughout.
fn run_point(n: u32, mode: RestartMode, heavy: bool, ae: bool, seed: u64) -> Point {
    let mut config = NewsWireConfig::tech_news();
    config.durable_state = true;
    config.anti_entropy = ae;
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

    // The churned set is drawn from a stream independent of every ablation
    // knob, so all arms face the identical fault schedule (one seeded
    // harness, three ways of coming back). Node 0, the publisher, is spared.
    let total = n + 1;
    let mut pick_rng = fork(seed, 0x16);
    let mut picked: HashSet<u32> = HashSet::new();
    let mut churned = Vec::new();
    while (churned.len() as u32) < n / 5 {
        let v = pick_rng.gen_range(1..total);
        if picked.insert(v) {
            churned.push(NodeId(v));
        }
    }
    let (up, down) = if heavy { (25.0, 20.0) } else { (60.0, 15.0) };
    let plan = FaultPlan {
        salt: seed,
        churn: vec![ChurnSpec {
            nodes: churned,
            start: SimTime::from_secs(90),
            end: SimTime::from_secs(270),
            mean_up_secs: up,
            mean_down_secs: down,
            recover_at_end: true,
            restart: mode,
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);

    // 24 stories, one every 7 s, spanning the whole churn window — a
    // backlog nothing but reconcile reconstructs for a node that comes back
    // with an empty log (that is the ablation's point).
    let items: Vec<_> = (0..24u64).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + 7 * i as u64), item.clone());
    }
    // Ride out the churn plus a recovery/backfill tail.
    d.settle(300);

    let report = check_invariants(&d, &items, &plan.churned_nodes());
    let stats = d.total_stats();
    // Eventual completeness over the *churned* interested nodes — the arm's
    // whole question is what a restarted node ends up holding.
    let exempt = plan.churned_nodes();
    let (mut want, mut have) = (0u64, 0u64);
    for item in &items {
        for node in d.interested_nodes(item) {
            if exempt.contains(&node) {
                want += 1;
                have += u64::from(d.sim.node(node).has_item(item.id));
            }
        }
    }
    let (incar_bumps, writes_lost, recovery_us) = if obs::ENABLED {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        (
            hub.counter_total(obs::ctr::INCARNATION_BUMPS),
            hub.counter_total(obs::ctr::DISK_WRITES_LOST),
            hub.merged_series(obs::series::RECOVERY_DURATION_US),
        )
    } else {
        (0, 0, Vec::new())
    };
    let mean_recovery_secs = if recovery_us.is_empty() {
        0.0
    } else {
        recovery_us.iter().sum::<u64>() as f64 / recovery_us.len() as f64 / 1e6
    };
    dump_telemetry(
        &format!(
            "e16_{}_{}_ae{}",
            mode_label(mode),
            if heavy { "heavy" } else { "light" },
            u8::from(ae)
        ),
        &mut d.sim,
    );
    Point {
        completeness_pct: if want == 0 { 100.0 } else { 100.0 * have as f64 / want as f64 },
        oracle_ok: report.holds(),
        recoveries: stats.recoveries_completed,
        mean_recovery_secs,
        backfill: stats.recovery_backfill_items,
        incar_bumps,
        writes_lost,
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 120 } else { 300 };
    let intensities: &[bool] = if quick { &[true] } else { &[false, true] };
    let mut table = Table::new(
        "E16 — crash recovery: eventual completeness by restart mode × churn, AE ablation",
        &[
            "mode",
            "churn",
            "AE",
            "complete %",
            "oracle",
            "recoveries",
            "mean rec s",
            "backfill",
            "incar",
            "lost writes",
        ],
    );
    for &heavy in intensities {
        let churn_label = if heavy { "heavy" } else { "light" };
        for mode in [RestartMode::Freeze, RestartMode::ColdDurable, RestartMode::ColdAmnesia] {
            let mut arms = vec![true];
            // The ablation only means something where recovery leans on
            // reconciliation: the cold modes under the heavier churn.
            if heavy && mode != RestartMode::Freeze {
                arms.push(false);
            }
            for ae in arms {
                let p = run_point(n, mode, heavy, ae, 0xE16);
                table.row(&[
                    mode_label(mode).to_string(),
                    churn_label.to_string(),
                    if ae { "on" } else { "off" }.to_string(),
                    format!("{:.1}", p.completeness_pct),
                    if p.oracle_ok { "ok" } else { "FAIL" }.to_string(),
                    p.recoveries.to_string(),
                    format!("{:.1}", p.mean_recovery_secs),
                    p.backfill.to_string(),
                    p.incar_bumps.to_string(),
                    p.writes_lost.to_string(),
                ]);
            }
        }
    }
    table.caption(format!(
        "{n} subscribers, branching 8, 2% WAN loss, durable state on; 20% of nodes churn \
         90 s–270 s (light 60 s up / 15 s down, heavy 25 s up / 20 s down), 24 stories \
         published every 7 s across the window, 120 s recovery tail. Completeness is over \
         churned interested nodes only. The paper's §9 crash-stop model implies 100% for \
         every mode; in the AE-off ablation nothing refills a cold log (its oracle column \
         reads FAIL: the named pull reaches only the last items of a live link) — \
         reconciliation (sys$ae digests) is what makes recovery whole, freeze included."
    ));
    table.print();
}
