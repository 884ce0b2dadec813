//! End-to-end Byzantine-defense checks over a running deployment: the
//! signed epoch fence refuses a fabricated reconcile-reply epoch that the
//! defenses-off ablation happily adopts, and the bare-item admission funnel
//! refuses forged repair traffic while admitting genuinely signed items —
//! all driven through real wire messages, not internal calls.

use amcast::RangeSummary;
use astrolabe::{KeyId, Signature, TrustRegistry, ZoneId};
use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{
    issue_publisher, DeploymentBuilder, NewsWireConfig, NewsWireMsg, PublisherSpec, SignedItem,
};
use simnet::{NodeId, SimTime};

const N: u32 = 24;
const VICTIM: NodeId = NodeId(10);

fn deployment(defenses: bool, seed: u64) -> newswire::Deployment {
    let mut config = NewsWireConfig::tech_news();
    config.defenses = defenses;
    let mut d = DeploymentBuilder::new(N, seed)
        .branching(8)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(60);
    // Give every node a real epoch-0 article log to defend.
    for seq in 0..4u64 {
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline(format!("real {seq}"))
            .category(Category::Technology)
            .build();
        d.publish(SimTime::from_secs(60 + seq), item);
    }
    d.settle(30);
    d
}

/// The deployment's publisher credential, reconstructed from the same
/// deterministic registry seed `DeploymentBuilder::build` uses — how the
/// test signs items the deployment's nodes will accept.
fn publisher_credential(seed: u64) -> newswire::PublisherCredential {
    let mut registry = TrustRegistry::new(seed);
    issue_publisher(&mut registry, PublisherId(0), "slashdot", &ZoneId::root(), 6000)
}

/// A reconcile reply claiming a fabricated future epoch — the contagion
/// vector a captured zone majority uses to spread a history that never
/// happened.
fn captured_epoch_reply() -> NewsWireMsg {
    NewsWireMsg::ReconcileReply {
        publisher: PublisherId(0),
        summary: RangeSummary { epoch: 100, floor: 0, next: 9, present: 9 },
        attest: None,
        items: vec![],
        withheld: vec![],
    }
}

#[test]
fn signed_epoch_fence_refuses_fabricated_reconcile_epoch() {
    let mut d = deployment(true, 7);
    assert_eq!(
        d.sim.node(VICTIM).article_log(PublisherId(0)).map(|l| l.epoch()),
        Some(0),
        "victim holds a real epoch-0 log before the attack"
    );
    d.sim.schedule_external(SimTime::from_secs(95), VICTIM, captured_epoch_reply());
    d.settle(10);
    let victim = d.sim.node(VICTIM);
    assert_eq!(victim.article_log(PublisherId(0)).map(|l| l.epoch()), Some(0), "epoch held");
    let refusals =
        d.sim.telemetry().borrow().node_counter(VICTIM.index(), obs::ctr::NW_SIGNED_EPOCH_REFUSALS);
    assert_eq!(refusals, 1, "the refusal was signed-authority-backed");
}

#[test]
fn ablation_without_defenses_adopts_the_fabricated_epoch() {
    let mut d = deployment(false, 7);
    d.sim.schedule_external(SimTime::from_secs(95), VICTIM, captured_epoch_reply());
    d.settle(10);
    let victim = d.sim.node(VICTIM);
    assert_eq!(
        victim.article_log(PublisherId(0)).map(|l| l.epoch()),
        Some(100),
        "defenses off adopts the fabricated epoch — the E18 ablation in miniature"
    );
    assert_eq!(
        d.sim.telemetry().borrow().node_counter(VICTIM.index(), obs::ctr::NW_SIGNED_EPOCH_REFUSALS),
        0
    );
}

#[test]
fn repair_reply_funnel_refuses_forged_items_but_admits_signed_ones() {
    let mut d = deployment(true, 7);
    let cred = publisher_credential(7);

    // A forged item under an invented signature, plus a genuine one the
    // publisher really signed, arriving in the same repair batch.
    let forged = NewsItem::builder(PublisherId(0), 50)
        .headline("FORGED dispatch 50")
        .category(Category::Technology)
        .build();
    let genuine = NewsItem::builder(PublisherId(0), 60)
        .headline("late real dispatch")
        .category(Category::Technology)
        .build();
    let genuine_sig = cred.sign(&genuine);
    let reply = NewsWireMsg::RepairReply {
        items: vec![
            SignedItem {
                item: forged.clone().into(),
                key: KeyId(123),
                signature: Signature(456),
                basis: None,
            },
            SignedItem {
                item: genuine.clone().into(),
                key: cred.key_id(),
                signature: genuine_sig,
                basis: None,
            },
        ],
    };
    let before =
        d.sim.telemetry().borrow().node_counter(VICTIM.index(), obs::ctr::NW_FORGED_REJECTS);
    d.sim.schedule_external(SimTime::from_secs(95), VICTIM, reply);
    d.settle(10);
    let victim = d.sim.node(VICTIM);
    let after =
        d.sim.telemetry().borrow().node_counter(VICTIM.index(), obs::ctr::NW_FORGED_REJECTS);
    assert_eq!(after, before + 1, "the forged item was refused");
    assert!(!victim.has_item(forged.id), "forged content never reached the application");
    if victim.subscription.matches(&genuine) {
        assert!(victim.has_item(genuine.id), "the genuinely signed item admitted");
    }
}
