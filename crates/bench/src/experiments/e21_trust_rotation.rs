//! E21 — Trust-root rotation: key compromise, revocation propagation, and
//! Sybil admission control, swept over compromise duration × revocation
//! seeding × Sybil burst size × defenses.
//!
//! Paper basis (§8): the security section prescribes certificates issued by
//! "certification authorities" but never exercises the authority itself —
//! E18 covered adversaries with *bogus* keys; this sweep covers the worst
//! case the PKI axiom allows: the adversary holds a publisher's *real*
//! signing key, so every forgery and bogus epoch attestation verifies. The
//! registry answers with a signed rotation record (revoke + successor)
//! that propagates epidemically on the gossip Astrolabe already sends,
//! while a Sybil burst probes the membership layer with fabricated
//! identities that only registry-endorsed join tickets keep out.
//!
//! The headline asymmetries the nightly gate pins: every defenses-on cell
//! delivers zero forged items after its fence arms and stabilizes at 100%
//! survivor delivery; the exposure window (revocation → fleet-wide
//! adoption) shrinks monotonically as the rotation is seeded wider; the
//! fence-ablated cell admits forgeries through the full compromise window;
//! and Sybil-defended cells leave epoch consensus and representative
//! election byte-identical to a no-Sybil same-seed run.

use std::collections::BTreeSet;

use newsml::{PublisherId, PublisherProfile};
use newswire::{self_stabilized, NewsWireConfig, PublisherSpec};
use simnet::{CorruptionOp, CorruptionSpec, FaultPlan, NodeId, SimDuration, SimTime};

use crate::experiments::support::{dump_telemetry, tech_item};
use crate::{print_ledger_line, Table};

/// The defense axis: the full stack, the revocation fence ablated (no
/// fencing, no purge — rotation records are ignored), or Sybil admission
/// control ablated (join tickets not demanded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defense {
    Full,
    NoFence,
    NoAdmission,
}

impl Defense {
    fn label(self) -> &'static str {
        match self {
            Defense::Full => "full",
            Defense::NoFence => "no-fence",
            Defense::NoAdmission => "no-admission",
        }
    }
}

/// Compromise-window durations (seconds) swept in the defended grid.
const DURATIONS: [u64; 2] = [30, 90];
/// Revocation seeding widths swept in the defended grid: the record lands
/// at the publisher plus this many evenly-spaced subscribers, and spreads
/// epidemically from there.
const SEEDS: [u32; 3] = [1, 4, 16];
/// The compromise window opens here; the rotation fires mid-window.
const WINDOW_START: u64 = 110;
/// Gossip rounds the oracle allows after the window (2 s each = 3 min).
const ROUND_BUDGET: u32 = 90;

struct Point {
    strikes: u64,
    joins_attempted: u64,
    joins_refused: u64,
    exposure_delivered: usize,
    post_revocation_forged: usize,
    purged: u64,
    fence_rejects: u64,
    adopted: usize,
    nodes: usize,
    exposure_secs: f64,
    forged_through_end: bool,
    stabilized: bool,
    delivery_pct: f64,
    /// Per-honest-node (publisher-0 log epoch, rep-election bits for zone
    /// levels 0–2): the state the Sybil neutrality check compares.
    consensus: Vec<(u32, u32, u8)>,
}

/// One cell: a stolen-key window of `duration` seconds with a mid-window
/// rotation seeded at `seeds` subscribers, a Sybil burst of `sybil`
/// identities per strike, judged afterwards by the self-stabilization
/// oracle (which folds in the post-revocation forgery verdict).
fn run_point(n: u32, duration: u64, seeds: u32, sybil: u32, defense: Defense, seed: u64) -> Point {
    let mut config = NewsWireConfig::tech_news();
    config.defenses = defense != Defense::NoFence;
    config.admission = defense != Defense::NoAdmission;
    let mut d = newswire::DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    d.settle(60);

    // Two footholds for the stolen key and one Sybil striker, placed
    // relative to n so quick runs stay in range; node 0 (the publisher) is
    // spared so ground truth stays intact.
    let thieves = vec![NodeId(n / 6 + 1), NodeId(n / 2 + 1)];
    let striker = NodeId(n - 4);
    let (start, end) =
        (SimTime::from_secs(WINDOW_START), SimTime::from_secs(WINDOW_START + duration));
    let mut plan = FaultPlan {
        salt: seed ^ 0xE21,
        corruption: vec![CorruptionSpec {
            nodes: thieves.clone(),
            start,
            end,
            mean_interval_secs: 8.0,
            op: CorruptionOp::StolenKey { publisher: 0, items: 3, attest_bump: 2 },
        }],
        ..FaultPlan::default()
    };
    if sybil > 0 {
        plan.corruption.push(CorruptionSpec {
            nodes: vec![striker],
            start,
            end,
            mean_interval_secs: 9.0,
            op: CorruptionOp::SybilFlood { identities: sybil, epoch: 0 },
        });
    }
    d.sim.apply_fault_plan(&plan);

    // The workload: a 24-item drumbeat finishing before the window opens,
    // so the forged stream plants at sequence numbers past every genuine
    // item — squatting the genuine stream's ids would conflate the purge
    // re-delivery accounting with plain delivery.
    let items: Vec<_> = (0..24u64).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(65 + (3 * i as u64) / 2), item.clone());
    }

    // The registry reacts mid-window: the stolen key stays valid for
    // duration/2 seconds before the revocation is even issued, and keeps
    // striking for the remaining duration/2 against a closing fence.
    let revocation_at = SimTime::from_secs(WINDOW_START + duration / 2);
    d.schedule_rotation(revocation_at, PublisherId(0), seeds);
    d.sim.run_until(end + SimDuration::from_secs(40));

    // The striker is exempt even in burst-free runs, so the consensus
    // fingerprint below covers the same honest node set in every cell.
    let mut exempt: BTreeSet<NodeId> = thieves.into_iter().collect();
    exempt.insert(striker);
    let verdict = self_stabilized(&mut d, &items, &exempt, ROUND_BUDGET);

    let faults = d.sim.fault_counters();
    let adopted = d.sim.iter().filter(|(_, node)| node.rotation_adopted_at.is_some()).count();
    let nodes = d.sim.len();
    let exposure_secs = if adopted == nodes {
        d.compromise_exposure_window().map_or(0.0, |w| w.as_secs_f64())
    } else {
        f64::INFINITY // never fully adopted: the key stays live somewhere
    };
    // Did fabricated content keep landing in honest applications to the
    // very end of the window? (The last strike interval is the margin.)
    let truth: BTreeSet<_> = items.iter().map(|i| i.id).collect();
    let window_tail = SimTime::from_secs(WINDOW_START + duration - 10);
    let forged_through_end = d
        .sim
        .iter()
        .filter(|(id, _)| !exempt.contains(id))
        .flat_map(|(_, node)| node.deliveries.iter())
        .any(|rec| !truth.contains(&rec.item) && rec.delivered >= window_tail);
    let joins_refused = d.counter(obs::ctr::SYBIL_JOINS_REFUSED);
    let purged = d.counter(obs::ctr::NW_RETRO_PURGED_ITEMS);
    let fence_rejects = d.counter(obs::ctr::NW_REVOKED_KEY_REJECTS);
    let consensus = d
        .sim
        .iter()
        .filter(|(id, _)| !exempt.contains(id))
        .map(|(id, node)| {
            let epoch = node.article_log(PublisherId(0)).map_or(0, |log| log.epoch());
            let reps =
                (0..3).fold(0u8, |bits, level| bits | u8::from(node.agent.is_rep(level)) << level);
            (id.0, epoch, reps)
        })
        .collect();
    dump_telemetry(
        &format!("e21_{}_{duration}s_{seeds}seeds_{sybil}sybil", defense.label()),
        &mut d.sim,
    );
    Point {
        strikes: faults.key_compromise_strikes,
        joins_attempted: faults.sybil_joins_attempted,
        joins_refused,
        exposure_delivered: verdict.report.compromise_exposure.len(),
        post_revocation_forged: verdict.report.post_revocation_forged.len(),
        purged,
        fence_rejects,
        adopted,
        nodes,
        exposure_secs,
        forged_through_end,
        stabilized: verdict.stabilized,
        delivery_pct: 100.0 * verdict.report.survivor_delivery_ratio(),
        consensus,
    }
}

#[allow(clippy::too_many_lines)]
pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 48 } else { 120 };
    let seed = 0xE21;
    let mut table = Table::new(
        "E21 — Trust-root rotation: compromise duration × revocation seeding × Sybil burst \
         × defenses",
        &[
            "defense",
            "window s",
            "seeds",
            "sybil",
            "strikes",
            "joins",
            "refused",
            "exposure dlvd",
            "post-rev forged",
            "purged",
            "fence rej",
            "adopted",
            "exposure s",
            "thru-end",
            "stabilized",
            "delivery %",
        ],
    );
    let mut row = |p: &Point, defense: Defense, duration: u64, seeds: u32, sybil: u32| {
        table.row(&[
            defense.label().to_string(),
            duration.to_string(),
            seeds.to_string(),
            sybil.to_string(),
            p.strikes.to_string(),
            p.joins_attempted.to_string(),
            p.joins_refused.to_string(),
            p.exposure_delivered.to_string(),
            p.post_revocation_forged.to_string(),
            p.purged.to_string(),
            p.fence_rejects.to_string(),
            format!("{}/{}", p.adopted, p.nodes),
            if p.exposure_secs.is_finite() {
                format!("{:.1}", p.exposure_secs)
            } else {
                "unbounded".to_string()
            },
            if p.forged_through_end { "yes" } else { "no" }.to_string(),
            if p.stabilized { "yes" } else { "NO" }.to_string(),
            format!("{:.1}", p.delivery_pct),
        ]);
    };

    // The defended grid: exposure must shrink monotonically as the
    // rotation is seeded wider, at every compromise duration.
    let mut monotone = true;
    for duration in DURATIONS {
        let mut prev = f64::INFINITY;
        for seeds in SEEDS {
            let p = run_point(n, duration, seeds, 8, Defense::Full, seed);
            monotone &= p.exposure_secs <= prev;
            prev = p.exposure_secs;
            row(&p, Defense::Full, duration, seeds, 8);
        }
    }

    // The ablations, at the long window and middle seeding: no-fence must
    // keep admitting forgeries to the very end of the window; no-admission
    // must let the Sybil burst through unrefused.
    let ablation_dur = DURATIONS[1];
    let ablation_seeds = SEEDS[1];
    let no_fence = run_point(n, ablation_dur, ablation_seeds, 8, Defense::NoFence, seed);
    row(&no_fence, Defense::NoFence, ablation_dur, ablation_seeds, 8);
    let no_admission = run_point(n, ablation_dur, ablation_seeds, 8, Defense::NoAdmission, seed);
    row(&no_admission, Defense::NoAdmission, ablation_dur, ablation_seeds, 8);

    // The Sybil-burst axis, defended: admission control must hold the
    // membership layer *byte-identical* to a burst-free same-seed run —
    // epoch consensus and representative election included.
    let baseline = run_point(n, ablation_dur, ablation_seeds, 0, Defense::Full, seed);
    row(&baseline, Defense::Full, ablation_dur, ablation_seeds, 0);
    let mut neutral = true;
    for sybil in [8, 24] {
        let p = run_point(n, ablation_dur, ablation_seeds, sybil, Defense::Full, seed);
        neutral &= p.consensus == baseline.consensus;
        if sybil != 8 {
            row(&p, Defense::Full, ablation_dur, ablation_seeds, sybil);
        }
    }

    table.caption(format!(
        "{n} subscribers, branching 8; 2 footholds wield publisher 0's *real* signing key \
         (3 forged items + a bogus epoch attestation per strike, mean 8 s — everything \
         verifies) through a window opening at {WINDOW_START} s, while 1 striker floods \
         `sybil` fabricated identities per strike (mean 9 s). The signed rotation record is \
         injected mid-window at the publisher plus `seeds` evenly-spaced subscribers and \
         spreads epidemically. 24-item drumbeat workload. `exposure dlvd` counts forged \
         deliveries while the stolen key was still locally valid (pre-adoption; the paper's \
         unavoidable exposure), `post-rev forged` counts deliveries past an armed fence \
         (must be 0 in every defended cell), `exposure s` is revocation → fleet-wide \
         adoption, `thru-end` is whether forgeries still landed in the window's last 10 s. \
         Defenses = versioned certificates + rotation records with freshness fencing on \
         every admission path + retroactive cache purge; admission = registry-endorsed join \
         tickets + zone quotas + probation. self_stabilized budget: {ROUND_BUDGET} rounds.",
    ));
    table.print();
    let monotone = if monotone { "yes" } else { "NO" };
    println!("  exposure window monotone shrinking with revocation seeding: {monotone}");
    print_ledger_line("E21", "verdict", "exposure_monotone", monotone);
    let neutral = if neutral { "unchanged" } else { "DIVERGED" };
    println!("  Sybil-defended epoch consensus & rep election vs no-Sybil same-seed: {neutral}");
    print_ledger_line("E21", "verdict", "sybil_neutral", neutral);
}
