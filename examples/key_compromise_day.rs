//! The trust root under fire: mid-run, an adversary walks out with a real
//! publisher signing key — its forged items and bogus epoch attestations
//! verify perfectly — while a Sybil burst floods fabricated identities into
//! leaf zones. The registry answers with a signed rotation record: old key
//! revoked, successor endorsed, propagated epidemically through the gossip
//! Astrolabe already sends.
//!
//! The defenses (revocation fencing on every admission path, retroactive
//! cache purge, registry-endorsed join tickets with per-zone quotas) are
//! on. After the windows close, the self-stabilization oracle rules: zero
//! forged deliveries after any node adopts the revocation, every invariant
//! restored, and the servable state scrubbed of the stolen key — the
//! exposure window is the propagation lag, nothing more.
//!
//! Run with: `cargo run --release --example key_compromise_day [seed]`

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{self_stabilized, DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::{FaultPlan, KeyCompromiseSpec, NodeId, SimTime, SybilSpec};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0x715);
    let subscribers = 96u32;
    let mut config = NewsWireConfig::tech_news();
    config.admission = true;
    let mut d = DeploymentBuilder::new(subscribers, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    println!(
        "key-compromise day: {subscribers} subscribers, 1 publisher, seed {seed:#x}; \
         rotation fencing and Sybil admission control on; letting gossip converge…"
    );
    d.settle(90);

    // The morning stream, published under the original key.
    let mut items: Vec<NewsItem> = (0..16u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("morning dispatch {s}"))
                .category(Category::Technology)
                .body_len(700)
                .build()
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(95 + i as u64), item.clone());
    }

    // The attack, declared up front: the adversary holds publisher 0's real
    // signing key from two footholds, and a Sybil striker floods fabricated
    // identities, all inside a 120 s–240 s window. The publisher (node 0)
    // is spared so ground truth stays intact.
    let (start, end) = (SimTime::from_secs(120), SimTime::from_secs(240));
    let plan = FaultPlan {
        salt: 0x715,
        key_compromise: vec![KeyCompromiseSpec {
            nodes: vec![NodeId(17), NodeId(41)],
            start,
            end,
            mean_interval_secs: 8.0,
            items_per_strike: 3,
            attest_bump: 2,
            publisher: 0,
        }],
        sybil: vec![SybilSpec {
            nodes: vec![NodeId(63)],
            start,
            end,
            mean_interval_secs: 9.0,
            identities_per_strike: 8,
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);
    println!(
        "incident: stolen publisher key wielded from 2 footholds (forged items + bogus \
         attestations that VERIFY), 1 Sybil striker fabricating identities, all 120 s–240 s"
    );

    // The registry detects the compromise mid-window and issues the signed
    // rotation: revocation seeded at the publisher plus 4 spread-out
    // subscribers, everyone else learns epidemically.
    d.schedule_rotation(SimTime::from_secs(180), PublisherId(0), 4);
    println!("response: signed rotation record injected at t=180 s (publisher + 4 seeds)");

    // The afternoon stream rides the successor key — publishing does not
    // pause for the incident.
    let post: Vec<NewsItem> = (16..24u64)
        .map(|s| {
            NewsItem::builder(PublisherId(0), s)
                .headline(format!("afternoon dispatch {s}"))
                .category(Category::Technology)
                .body_len(700)
                .build()
        })
        .collect();
    for (i, item) in post.iter().enumerate() {
        d.publish(SimTime::from_secs(245 + i as u64), item.clone());
    }
    items.extend(post);
    d.sim.run_until(SimTime::from_secs(280));

    let faults = d.sim.fault_counters();
    println!(
        "engine: {} stolen-key strikes, {} Sybil join attempts",
        faults.key_compromise_strikes, faults.sybil_joins_attempted
    );
    assert!(faults.key_compromise_strikes > 0, "the stolen key must actually strike");
    assert!(faults.sybil_joins_attempted > 0, "the Sybil burst must actually strike");

    // The verdict: every node adopted the rotation, nothing forged was
    // delivered after any node's fence armed, and every invariant is
    // restored within a bounded number of gossip rounds. The adversary's
    // footholds are exempt from eventual delivery only — their state was
    // puppeted directly.
    let mut exempt: BTreeSet<NodeId> = plan.compromised_nodes();
    exempt.extend(plan.sybil_nodes());
    let verdict = self_stabilized(&mut d, &items, &exempt, 60);
    print!("{verdict}");
    for (id, node) in d.sim.iter() {
        assert!(node.rotation_adopted_at.is_some(), "node {id} never adopted the rotation");
    }
    assert!(
        verdict.report.no_post_revocation_delivery(),
        "no forged item may be delivered past an armed fence"
    );
    assert!(verdict.stabilized, "defenses-on run must self-stabilize within budget");
    let exposure = d.compromise_exposure_window().expect("a rotation was scheduled");
    println!(
        "exposure window: {:.1} s from revocation to fleet-wide adoption (sanctioned \
         deliveries inside it: {})",
        exposure.as_secs_f64(),
        verdict.report.compromise_exposure.len()
    );

    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    println!(
        "telemetry: {} revocations adopted, {} revoked-key rejects across admission \
         paths, {} items retroactively purged, {} Sybil joins refused, {} identities \
         held in probation",
        hub.counter_total(obs::ctr::CERT_REVOCATIONS_SEEN),
        hub.counter_total(obs::ctr::NW_REVOKED_KEY_REJECTS),
        hub.counter_total(obs::ctr::NW_RETRO_PURGED_ITEMS),
        hub.counter_total(obs::ctr::SYBIL_JOINS_REFUSED),
        hub.counter_total(obs::ctr::NW_PROBATION_HOLDS),
    );
    assert!(
        hub.counter_total(obs::ctr::CERT_REVOCATIONS_SEEN) >= u64::from(subscribers),
        "the rotation must reach the whole fleet"
    );
    assert!(
        hub.counter_total(obs::ctr::NW_RETRO_PURGED_ITEMS) > 0,
        "the retroactive purge must have done visible work"
    );
    assert!(
        hub.counter_total(obs::ctr::SYBIL_JOINS_REFUSED) > 0,
        "admission control must have done visible work"
    );
    println!("ok");
}
