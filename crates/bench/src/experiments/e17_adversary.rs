//! E17 — adversarial state corruption under production-shaped load:
//! corruption type × workload × defenses, with the self-stabilization
//! verdict.
//!
//! Paper basis (§8–§9): the security section worries about "malicious or
//! corrupted servers" but the robustness story is measured only against
//! crash faults — nothing quantifies what happens when a node's *state*
//! goes bad while the process stays up: scrambled zone-table replicas,
//! article logs claiming epochs that never happened, torn disk snapshots,
//! or a representative that lies in its aggregates. This sweep injects
//! exactly those faults mid-run, under the two workloads a news system
//! actually faces — a breaking-news flash crowd and sustained
//! subscription churn — and asks the oracle's `self_stabilized` question:
//! are all invariants restored within a bounded number of gossip rounds
//! after the corruption window closes?
//!
//! The defenses (ingest validation, periodic self-audit, the consensus
//! epoch fence) are on by default; each cell also runs the ablation with
//! them off. The headline asymmetry: every defenses-on cell stabilizes,
//! while the defenses-off log-epoch cells *never* do — a fabricated
//! newer epoch spreads by reconciliation contagion (each absorber adopts
//! it and wipes its log) and honest servers refuse to serve requesters
//! claiming an epoch from the future, so the damage is self-sustaining.

use std::collections::BTreeSet;

use baselines::{FlashCrowdSpec, SubscriptionChurnSpec};
use newswire::{self_stabilized, NewsWireConfig, Subscription};
use simnet::{
    ChurnSpec, CorruptionOp, CorruptionSpec, FaultPlan, LiarBehavior, LiarMode, LiarSpec, NodeId,
    RestartMode, SimDuration, SimTime,
};

use crate::experiments::support::{dump_telemetry, tech_item};
use crate::Table;

/// The corruption axis. `Liar` is a behavioral fault (mis-aggregating
/// representative) rather than a state strike, but it answers the same
/// question: does the damage outlive its window?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Adversary {
    ZoneRows,
    LogEpoch,
    DiskBytes,
    Liar,
}

impl Adversary {
    const ALL: [Adversary; 4] =
        [Adversary::ZoneRows, Adversary::LogEpoch, Adversary::DiskBytes, Adversary::Liar];

    fn label(self) -> &'static str {
        match self {
            Adversary::ZoneRows => "zone-rows",
            Adversary::LogEpoch => "log-epoch",
            Adversary::DiskBytes => "disk-bytes",
            Adversary::Liar => "liar",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Flash,
    Churn,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Flash => "flash",
            Workload::Churn => "churn",
        }
    }
}

struct Point {
    struck: u64,
    intercepts: u64,
    rejected: u64,
    repairs: u64,
    stabilized: bool,
    rounds_used: u32,
    delivery_pct: f64,
}

/// The corruption window every arm shares.
const WINDOW: (u64, u64) = (100, 160);
/// Gossip rounds the oracle allows after the window (2 s each = 3 min).
const ROUND_BUDGET: u32 = 90;

/// One cell: a deployment under `workload`, hit by `adversary` through the
/// shared window, judged by the self-stabilization oracle afterwards.
fn run_point(n: u32, adversary: Adversary, workload: Workload, defenses: bool, seed: u64) -> Point {
    let mut config = NewsWireConfig::tech_news();
    config.defenses = defenses;
    // The disk arm needs durable state (or there is nothing to corrupt)
    // and cold restarts (or nobody ever reads the torn bytes back).
    config.durable_state = adversary == Adversary::DiskBytes;
    let mut d = newswire::DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .publisher(newswire::PublisherSpec::global(newsml::PublisherProfile::slashdot(
            newsml::PublisherId(0),
        )))
        .cats_per_subscriber(2)
        .build();
    d.settle(60);

    // Victims: a fixed slice of mid-tree subscribers (the publisher at
    // node 0 is spared so ground truth stays intact).
    let victims: Vec<NodeId> = (0..3).map(|k| NodeId(2 + k * (n / 4))).collect();
    let (start, end) = (SimTime::from_secs(WINDOW.0), SimTime::from_secs(WINDOW.1));
    let mut plan = FaultPlan { salt: seed ^ 0xE17, ..FaultPlan::default() };
    match adversary {
        Adversary::ZoneRows => plan.corruption.push(CorruptionSpec {
            nodes: victims.clone(),
            start,
            end,
            mean_interval_secs: 6.0,
            op: CorruptionOp::ZoneRows { rows: 3 },
        }),
        Adversary::LogEpoch => plan.corruption.push(CorruptionSpec {
            nodes: victims.clone(),
            start,
            end,
            mean_interval_secs: 10.0,
            op: CorruptionOp::LogEpoch { entries: 4 },
        }),
        Adversary::DiskBytes => {
            plan.corruption.push(CorruptionSpec {
                nodes: victims.clone(),
                start,
                end,
                mean_interval_secs: 6.0,
                op: CorruptionOp::DiskBytes { flips: 16 },
            });
            // Cold-restart the victims inside the window so the torn
            // snapshots are actually read back.
            plan.churn.push(ChurnSpec {
                nodes: victims.clone(),
                start,
                end,
                mean_up_secs: 20.0,
                mean_down_secs: 8.0,
                recover_at_end: true,
                restart: RestartMode::ColdDurable,
            });
        }
        Adversary::Liar => plan.liars.push(LiarSpec {
            nodes: victims.clone(),
            start,
            end: Some(end),
            behavior: LiarBehavior { mode: LiarMode::MisSummarize, prob: 1.0 },
        }),
    }
    d.sim.apply_fault_plan(&plan);

    // The workload. Flash: a breaking story publishes 24 items whose
    // spacing compresses 10 s → 2 s into a crest inside the corruption
    // window. Churn: the same volume on a steady 7 s drumbeat while
    // subscribers round-robin out and back under the summaries' feet.
    let mut exempt: BTreeSet<NodeId> = plan.churned_nodes();
    let items: Vec<_> = (0..24u64).map(tech_item).collect();
    let tail_until = match workload {
        Workload::Flash => {
            let burst = FlashCrowdSpec {
                onset: SimTime::from_secs(65),
                items: items.len() as u32,
                calm_spacing: SimDuration::from_secs(10),
                peak_spacing: SimDuration::from_secs(2),
            };
            for (at, item) in burst.schedule().into_iter().zip(items.iter()) {
                d.publish(at, item.clone());
            }
            burst.last_publish() + SimDuration::from_secs(20)
        }
        Workload::Churn => {
            for (i, item) in items.iter().enumerate() {
                d.publish(SimTime::from_secs(65 + 7 * i as u64), item.clone());
            }
            let churners = n.min(12);
            let originals: Vec<Subscription> =
                (0..churners).map(|s| d.sim.node(NodeId(1 + s)).subscription.clone()).collect();
            let spec = SubscriptionChurnSpec::sustained(
                SimTime::from_secs(70),
                SimTime::from_secs(160),
                churners,
            );
            for flip in spec.schedule() {
                let node = NodeId(1 + flip.subscriber);
                d.sim.run_until(flip.at);
                let sub = if flip.subscribe {
                    originals[flip.subscriber as usize].clone()
                } else {
                    Subscription::new()
                };
                d.sim.node_mut(node).set_subscription(sub);
                exempt.insert(node);
            }
            SimTime::from_secs(240)
        }
    };

    // Ride out the workload and a short tail past the window, then put
    // the question.
    let deadline = tail_until.max(end + SimDuration::from_secs(20)).max(d.sim.now());
    d.sim.run_until(deadline);
    let verdict = self_stabilized(&mut d, &items, &exempt, ROUND_BUDGET);

    let faults = d.sim.fault_counters();
    let (rejected, repairs) = {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        (
            hub.counter_total(obs::ctr::CORRUPT_ROWS_REJECTED),
            hub.counter_total(obs::ctr::SELF_AUDIT_REPAIRS),
        )
    };
    dump_telemetry(
        &format!(
            "e17_{}_{}_{}",
            adversary.label(),
            workload.label(),
            if defenses { "def" } else { "abl" }
        ),
        &mut d.sim,
    );
    Point {
        struck: faults.state_corruptions,
        intercepts: faults.liar_intercepts,
        rejected,
        repairs,
        stabilized: verdict.stabilized,
        rounds_used: verdict.rounds_used,
        delivery_pct: 100.0 * verdict.report.survivor_delivery_ratio(),
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 48 } else { 120 };
    let mut table = Table::new(
        "E17 — adversarial corruption: self-stabilization by fault × workload × defenses",
        &[
            "adversary",
            "workload",
            "defenses",
            "struck",
            "intercepts",
            "rejected",
            "repairs",
            "stabilized",
            "rounds",
            "delivery %",
        ],
    );
    for adversary in Adversary::ALL {
        for workload in [Workload::Flash, Workload::Churn] {
            for defenses in [true, false] {
                let p = run_point(n, adversary, workload, defenses, 0xE17);
                table.row(&[
                    adversary.label().to_string(),
                    workload.label().to_string(),
                    if defenses { "on" } else { "off" }.to_string(),
                    p.struck.to_string(),
                    p.intercepts.to_string(),
                    p.rejected.to_string(),
                    p.repairs.to_string(),
                    if p.stabilized { "yes" } else { "NO" }.to_string(),
                    if p.stabilized {
                        p.rounds_used.to_string()
                    } else {
                        format!(">{ROUND_BUDGET}")
                    },
                    format!("{:.1}", p.delivery_pct),
                ]);
            }
        }
    }
    table.caption(format!(
        "{n} subscribers, branching 8; three victim nodes corrupted through a {}–{} s window \
         (zone-row scrambles + zeroed advertisements, fabricated log epochs with phantom \
         coverage, torn disk snapshots read back by in-window cold restarts, or a \
         mis-aggregating liar at prob 1.0). Workloads: a 24-item flash crowd cresting inside \
         the window, or the same volume under round-robin subscription churn. `stabilized` is \
         the oracle's self_stabilized verdict within {ROUND_BUDGET} gossip rounds after the \
         window closes; `rounds` is how many it took. Defenses on (ingest validation + \
         self-audit + epoch fence) must stabilize every cell; the defenses-off log-epoch \
         cells never do — epoch contagion is self-sustaining, which is the ablation's point.",
        WINDOW.0, WINDOW.1
    ));
    table.print();
}
