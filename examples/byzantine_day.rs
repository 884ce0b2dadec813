//! A breaking-news day with Byzantine zones in the house: while a flash
//! crowd of stories crests, three coordinated adversaries strike at once —
//! a colluding group jointly voting a fabricated log epoch into its leaf
//! zone, a split-brain pair telling every peer a different digest story,
//! and a forgery clique fabricating news items under bogus signatures.
//!
//! The signed-authority defenses (end-to-end signature verification on
//! every admission path, the publisher-signed epoch fence, misbehavior
//! quarantine) are on by default. After the windows close, the
//! self-stabilization oracle steps the system round by round and rules:
//! zero forged deliveries anywhere, every invariant restored on every
//! honest node, bounded rounds, no scar.
//!
//! Run with: `cargo run --release --example byzantine_day [seed]`

use std::collections::BTreeSet;

use baselines::FlashCrowdSpec;
use newswire::{self_stabilized, tech_news_deployment};
use simnet::{CollusionScript, CollusionSpec, FaultPlan, ForgeSpec, NodeId, SimDuration, SimTime};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0xB12);
    let subscribers = 96u32;
    let mut d = tech_news_deployment(subscribers, seed);
    println!(
        "byzantine day: {subscribers} subscribers, 2 publishers, seed {seed:#x}; \
         signed-authority defenses on; letting gossip converge…"
    );
    d.settle(90);

    // The attack, declared up front: an epoch-capture cartel, a split-brain
    // pair, and a forgery clique, all inside a 120 s–240 s window. The
    // publishers (nodes 0 and 1) are spared so ground truth stays intact.
    let (start, end) = (SimTime::from_secs(120), SimTime::from_secs(240));
    let plan = FaultPlan {
        salt: 0xB12,
        collusion: vec![
            CollusionSpec {
                // Adjacent ids: the cartel shares a leaf zone, the paper's
                // captured-neighborhood scenario.
                nodes: vec![NodeId(5), NodeId(6), NodeId(7), NodeId(8)],
                start,
                end,
                mean_interval_secs: 7.0,
                script: CollusionScript::EpochCapture { publisher: 0 },
            },
            CollusionSpec {
                nodes: vec![NodeId(29), NodeId(30)],
                start,
                end,
                mean_interval_secs: 7.0,
                script: CollusionScript::SplitBrain,
            },
        ],
        forgery: vec![ForgeSpec {
            nodes: vec![NodeId(53), NodeId(54)],
            start,
            end,
            mean_interval_secs: 10.0,
            items_per_strike: 3,
            publisher: 0,
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);
    println!(
        "incident: 4-node epoch-capture cartel, 2 split-brain liars, 2 forgers \
         fabricating signed-looking items, all 120 s–240 s"
    );

    // The workload does not yield to the attack: a flash crowd of stories
    // crests inside the Byzantine window.
    let burst = FlashCrowdSpec::breaking_news(SimTime::from_secs(100));
    let items: Vec<_> = (0..u64::from(burst.items))
        .map(|s| {
            newsml::NewsItem::builder(newsml::PublisherId(0), s)
                .headline(format!("flash {s}")) // distinct slugs: no revision fusion
                .category(newsml::Category::Technology)
                .body_len(900)
                .build()
        })
        .collect();
    for (at, item) in burst.schedule().into_iter().zip(items.iter()) {
        d.publish(at, item.clone());
    }

    // Ride out the burst and the Byzantine window.
    let deadline = burst.last_publish().max(end) + SimDuration::from_secs(30);
    d.sim.run_until(deadline);

    let faults = d.sim.fault_counters();
    println!(
        "engine: {} collusion strikes, {} coordinated lies intercepted, \
         {} forged items fabricated",
        faults.collusion_strikes, faults.collusion_intercepts, faults.forged_items_injected
    );
    assert!(faults.collusion_strikes > 0, "the cartel must actually strike");
    assert!(faults.collusion_intercepts > 0, "the split-brain pair must actually lie");
    assert!(faults.forged_items_injected > 0, "the forgers must actually forge");

    // The verdict: zero forged deliveries anywhere (colluders included),
    // every invariant restored on every honest node within a bounded number
    // of gossip rounds. Byzantine nodes are exempt from eventual delivery
    // only — their state was puppeted and quarantine legitimately isolates
    // them.
    let mut exempt: BTreeSet<NodeId> = plan.colluding_nodes();
    exempt.extend(plan.forging_nodes());
    let verdict = self_stabilized(&mut d, &items, &exempt, 60);
    print!("{verdict}");
    assert!(verdict.report.no_forged_delivery(), "no forged item may reach any application");
    assert!(verdict.stabilized, "defenses-on run must self-stabilize within budget");

    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    println!(
        "telemetry: {} forged items rejected at admission, {} peers quarantined, \
         {} signed-authority epoch refusals",
        hub.counter_total(obs::ctr::NW_FORGED_REJECTS),
        hub.counter_total(obs::ctr::NW_QUARANTINES),
        hub.counter_total(obs::ctr::NW_SIGNED_EPOCH_REFUSALS),
    );
    assert!(
        hub.counter_total(obs::ctr::NW_FORGED_REJECTS) > 0,
        "the signature checks must have done visible work"
    );
    assert!(
        hub.counter_total(obs::ctr::NW_SIGNED_EPOCH_REFUSALS) > 0,
        "the signed epoch fence must have done visible work"
    );
    println!("ok");
}
