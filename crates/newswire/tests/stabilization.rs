//! Self-stabilization oracle tests: a corruption window scrambles one
//! node's zone-table replicas and its own subscription advertisement
//! mid-run, and with defenses on the system must pass `self_stabilized`
//! within a small round budget — *and* the repaired node's leaf-zone state
//! must end byte-identical (attribute-for-attribute) to the same node in
//! an uncorrupted run of the same seed. The repair leaves no scar.

use std::collections::BTreeSet;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{self_stabilized, Deployment, DeploymentBuilder, PublisherSpec};
use simnet::{CorruptionOp, CorruptionSpec, FaultPlan, NodeId, SimTime};

const N_SUB: u32 = 23;
const VICTIM: NodeId = NodeId(5);

fn item(seq: u64) -> NewsItem {
    NewsItem::builder(PublisherId(0), seq)
        .headline(format!("stab {seq}")) // distinct slugs: no revision fusion
        .category(Category::Technology)
        .build()
}

/// Settle, publish, optionally corrupt one node through a 20 s window,
/// then ride past the window's close.
fn run(seed: u64, corrupt: bool) -> (Deployment, Vec<NewsItem>) {
    let mut d = DeploymentBuilder::new(N_SUB, seed)
        .branching(4)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(60);
    if corrupt {
        d.sim.apply_fault_plan(&FaultPlan {
            salt: 0x57AB,
            corruption: vec![CorruptionSpec {
                nodes: vec![VICTIM],
                start: SimTime::from_secs(65),
                end: SimTime::from_secs(85),
                mean_interval_secs: 4.0,
                op: CorruptionOp::ZoneRows { rows: 3 },
            }],
            ..FaultPlan::default()
        });
    }
    let items: Vec<NewsItem> = (0..4u64).map(item).collect();
    for (k, it) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(66 + 4 * k as u64), it.clone());
    }
    d.settle(40); // to t=100, past the corruption window
    (d, items)
}

#[test]
fn corrupted_run_self_stabilizes_and_repairs_without_a_scar() {
    let seed = 0xBAD5EED;
    let (mut dirty, items) = run(seed, true);
    let (mut clean, _) = run(seed, false);

    let struck = dirty.sim.fault_counters().state_corruptions;
    assert!(struck > 0, "the corruption window must actually strike");

    let exempt = BTreeSet::new();
    let verdict = self_stabilized(&mut dirty, &items, &exempt, 15);
    assert!(
        verdict.stabilized,
        "defenses-on run must restore all invariants within budget:\n{}",
        verdict.report
    );

    // Give the clean run the same wall-clock tail so both tables are
    // compared at quiescence, then hold the victim's leaf-zone state to
    // byte-identity: same labels, and every row attribute-for-attribute
    // equal (stamps are timing artifacts and excluded; `same_attrs`
    // compares the full sorted attribute list).
    let rounds = u64::from(verdict.rounds_used.max(1));
    let tail = clean.config.astrolabe.gossip_interval * rounds;
    let deadline = clean.sim.now() + tail;
    clean.sim.run_until(deadline);

    let repaired = dirty.sim.node(VICTIM);
    let pristine = clean.sim.node(VICTIM);
    let (rt, pt) = (repaired.agent.table(0), pristine.agent.table(0));
    let labels = |t: &astrolabe::ZoneTable| t.iter().map(|(l, _)| l).collect::<Vec<_>>();
    assert_eq!(labels(rt), labels(pt), "leaf-zone membership diverged after repair");
    for ((label, r), (_, p)) in rt.iter().zip(pt.iter()) {
        assert!(
            r.same_attrs(p),
            "leaf row {label} differs after repair:\n  repaired: {r:?}\n  pristine: {p:?}"
        );
    }

    let hub = dirty.sim.telemetry();
    let hub = hub.borrow();
    assert!(
        hub.counter_total(obs::ctr::SELF_AUDIT_REPAIRS) > 0,
        "the self-audit must have repaired something"
    );
    assert_eq!(
        hub.global().ctr(obs::ctr::ORACLE_STABILIZATION_RUNS),
        1,
        "the stabilization verdict is recorded once"
    );
}

/// The control: an uncorrupted run is already stabilized — the oracle
/// returns immediately with zero rounds used, and the sweep itself never
/// perturbs converged state.
#[test]
fn clean_run_stabilizes_in_zero_rounds() {
    let (mut d, items) = run(0xC1EA4, false);
    let verdict = self_stabilized(&mut d, &items, &BTreeSet::new(), 15);
    assert!(verdict.stabilized);
    assert_eq!(verdict.rounds_used, 0, "nothing to repair, nothing to wait for");
}
