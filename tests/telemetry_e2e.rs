//! End-to-end checks of the observability layer over a full NewsWire
//! deployment: the metrics registry must agree with the delivery logs it
//! summarizes, and a drained telemetry snapshot must be byte-for-byte
//! deterministic for a given seed (the property CI enforces).

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{
    tech_news_deployment, Deployment, DeploymentBuilder, NewsWireConfig, NodeStats, PublisherSpec,
};
use simnet::{ChurnSpec, FaultPlan, NodeId, RestartMode, SimTime};

/// A small churn-free run: settle, publish a handful of items, settle.
fn sample_run(seed: u64) -> Deployment {
    let mut d = tech_news_deployment(100, seed);
    d.settle(60);
    for seq in 0..4u64 {
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline("telemetry e2e")
            .category(Category::Technology)
            .build();
        d.publish(SimTime::from_secs(60 + 2 * seq), item);
    }
    d.settle(25);
    d
}

/// The registry-derived latency summary must agree with the authoritative
/// per-node delivery-log walk on a churn-free run (no node ever cleared its
/// log, so the two views see the identical sample set).
#[test]
fn registry_latency_matches_delivery_log_walk() {
    let d = sample_run(0x0B5);
    let mut walk = d.delivery_latency_summary();
    let mut reg = d.delivery_latency_from_registry();
    assert!(!walk.is_empty(), "workload sanity: something delivered");
    assert_eq!(walk.len(), reg.len(), "sample counts differ");
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        let (w, r) = (walk.quantile(q), reg.quantile(q));
        // Registry samples are recorded in whole microseconds; the walk
        // computes the same microsecond difference, so they match exactly.
        assert!((w - r).abs() < 1e-9, "q{q}: walk {w} vs registry {r}");
    }
    assert!((walk.max() - reg.max()).abs() < 1e-9);
}

/// The two recovery-item counters are appended after every slot a contract
/// metric reads (none of those moved), and they classify what the recovery
/// paths actually carried: nothing is counted that was not sent.
#[test]
fn recovery_item_counters_append_after_the_existing_slots() {
    use obs::ctr;
    assert_eq!(
        (ctr::NW_PROBATION_HOLDS.0, ctr::NW_RECOVERY_HELD.0, ctr::NW_RECOVERY_UNWANTED.0),
        (91, 92, 93)
    );
    let d = sample_run(0x0B7);
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    let sent = hub.counter_total(ctr::NW_REPAIR_ITEMS_SENT)
        + hub.counter_total(ctr::NW_RECONCILE_ITEMS_SENT);
    let (held, unwanted) =
        (hub.counter_total(ctr::NW_RECOVERY_HELD), hub.counter_total(ctr::NW_RECOVERY_UNWANTED));
    // Reconcile withholds what the receiver's summary rejects, so a
    // lossless run sends nothing unwanted and next to nothing held.
    assert_eq!(unwanted, 0, "an article was shipped to a node that never wanted it");
    assert!(held + unwanted <= sent, "{held} + {unwanted} classified of {sent} sent");
    assert!(held * 10 <= sent, "{held} of {sent} recovery items were already held");
}

/// The delivery chain's two counters are appended after those; on a
/// lossless run they read what the mechanism did there — nothing.
#[test]
fn gap_pull_counters_append_after_the_existing_slots() {
    use obs::ctr;
    assert_eq!(
        (ctr::NW_RECOVERY_UNWANTED.0, ctr::NW_GAP_PULLS.0, ctr::NW_GAP_PULL_ITEMS.0),
        (93, 94, 95)
    );
    let d = sample_run(0x0B7);
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    assert_eq!(hub.counter_total(ctr::NW_ACK_RETRIES), 0, "nothing lost, nothing retransmitted");
    assert_eq!(
        (hub.counter_total(ctr::NW_GAP_PULLS), hub.counter_total(ctr::NW_GAP_PULL_ITEMS)),
        (0, 0)
    );
}

/// The gossip byte counter is appended after those. On the default (full)
/// gossip wire, a row whose values did not change moves by stamp alone —
/// taken from a digest entry or a refresh record — so the refresh counters
/// are live there too, and the bytes they saved are the larger part of what
/// the rows would have cost.
#[test]
fn the_full_gossip_wire_moves_unchanged_rows_by_stamp() {
    use obs::ctr;
    assert_eq!((ctr::NW_GAP_PULL_ITEMS.0, ctr::GOSSIP_BYTES_SENT.0), (95, 96));
    assert_eq!(
        (
            ctr::NW_RECONCILE_WITHHELD.0,
            ctr::NW_RECONCILE_UNVOUCHED.0,
            ctr::NW_GAP_PULL_UNANSWERED.0
        ),
        (97, 98, 99),
        "what reconcile vouches for is appended after the gossip byte counter"
    );
    assert_eq!(ctr::NAMES.len(), 100);
    let d = sample_run(0x0B8);
    assert!(!d.sim.node(NodeId(0)).agent.config().delta_gossip, "the default is the full wire");
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    let (rows, saved) = (
        hub.counter_total(ctr::GOSSIP_REFRESH_ROWS),
        hub.counter_total(ctr::GOSSIP_REFRESH_BYTES_SAVED),
    );
    assert!(rows > 0, "no row moved by stamp on the full wire");
    assert!(saved > 30 * rows, "{saved} B saved over {rows} rows");
    let gossip = hub.counter_total(ctr::GOSSIP_BYTES_SENT);
    assert!(gossip > 0 && gossip < hub.counter_total(ctr::BYTES_SENT));
}

/// Two runs with the same seed drain byte-identical telemetry JSON and
/// trace CSV. This is the exact property the CI telemetry-determinism gate
/// checks.
#[test]
fn same_seed_drains_identical_telemetry() {
    let mut a = sample_run(0xD37);
    let mut b = sample_run(0xD37);
    let ta = a.sim.drain_telemetry();
    let tb = b.sim.drain_telemetry();
    assert_eq!(ta.to_json(), tb.to_json(), "same-seed telemetry JSON diverged");
    assert_eq!(ta.events_csv(), tb.events_csv(), "same-seed trace CSV diverged");
}

/// A durable-state churn run exercising all three restart modes — the
/// `cold_restart` example's scenario in miniature. Disk writes, cold
/// restarts, incarnation bumps and recovery backfill must all replay
/// bit-for-bit: the persistence and recovery paths draw no randomness of
/// their own. This is the property the CI determinism matrix pins for the
/// `cold_restart` example.
#[test]
fn same_seed_cold_restart_run_drains_identical_telemetry() {
    fn cold_run(seed: u64) -> (String, String) {
        let mut config = NewsWireConfig::tech_news();
        config.durable_state = true;
        let mut d = DeploymentBuilder::new(30, seed)
            .branching(4)
            .config(config)
            .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
            .build();
        d.settle(60);
        let spec = |rem: u32, restart: RestartMode| ChurnSpec {
            // 30 subscribers + 1 publisher = node ids 0..=30; spare node 0.
            nodes: (1..31).filter(|i| i % 3 == rem).map(NodeId).collect(),
            start: SimTime::from_secs(60),
            end: SimTime::from_secs(180),
            mean_up_secs: 40.0,
            mean_down_secs: 15.0,
            recover_at_end: true,
            restart,
        };
        d.sim.apply_fault_plan(&FaultPlan {
            salt: 0xC0,
            churn: vec![
                spec(0, RestartMode::Freeze),
                spec(1, RestartMode::ColdDurable),
                spec(2, RestartMode::ColdAmnesia),
            ],
            gray: vec![],
            link_cuts: vec![],
            partitions: vec![],
            message_chaos: vec![],
            ..FaultPlan::default()
        });
        for seq in 0..6u64 {
            let item = NewsItem::builder(PublisherId(0), seq)
                .headline(format!("cold determinism {seq}"))
                .category(Category::Technology)
                .build();
            d.publish(SimTime::from_secs(65 + 15 * seq), item);
        }
        d.settle(200);
        let t = d.sim.drain_telemetry();
        (t.to_json(), t.events_csv())
    }
    let (ja, ca) = cold_run(0xC0DE);
    let (jb, cb) = cold_run(0xC0DE);
    assert_eq!(ja, jb, "same-seed cold-restart telemetry JSON diverged");
    assert_eq!(ca, cb, "same-seed cold-restart trace CSV diverged");
}

/// An adversary run — corruption strikes, a liar window, the
/// self-stabilization verdict — replays bit-for-bit: strike expansion,
/// per-strike RNG forks, liar interception and the defenses (ingest
/// validation, self-audit, epoch fence) draw no nondeterminism. This is
/// the property the CI determinism matrix pins for the `adversary_day`
/// example.
#[test]
fn same_seed_adversary_run_drains_identical_telemetry() {
    use newswire::self_stabilized;
    use simnet::{CorruptionOp, CorruptionSpec, LiarBehavior, LiarMode, LiarSpec};

    fn adversary_run(seed: u64) -> (String, String) {
        let mut d = tech_news_deployment(40, seed);
        d.settle(60);
        d.sim.apply_fault_plan(&FaultPlan {
            salt: 0xAD,
            corruption: vec![
                CorruptionSpec {
                    nodes: vec![NodeId(4), NodeId(19)],
                    start: SimTime::from_secs(65),
                    end: SimTime::from_secs(95),
                    mean_interval_secs: 5.0,
                    op: CorruptionOp::ZoneRows { rows: 2 },
                },
                CorruptionSpec {
                    nodes: vec![NodeId(9)],
                    start: SimTime::from_secs(65),
                    end: SimTime::from_secs(95),
                    mean_interval_secs: 9.0,
                    op: CorruptionOp::LogEpoch { entries: 3 },
                },
            ],
            liars: vec![LiarSpec {
                nodes: vec![NodeId(14)],
                start: SimTime::from_secs(65),
                end: Some(SimTime::from_secs(95)),
                behavior: LiarBehavior { mode: LiarMode::MisSummarize, prob: 1.0 },
            }],
            ..FaultPlan::default()
        });
        let items: Vec<NewsItem> = (0..6u64)
            .map(|seq| {
                NewsItem::builder(PublisherId(0), seq)
                    .headline(format!("adversary determinism {seq}"))
                    .category(Category::Technology)
                    .build()
            })
            .collect();
        for (i, item) in items.iter().enumerate() {
            d.publish(SimTime::from_secs(66 + 5 * i as u64), item.clone());
        }
        d.settle(55); // rides out the corruption window to t=115
        let verdict = self_stabilized(&mut d, &items, &std::collections::BTreeSet::new(), 30);
        assert!(verdict.stabilized, "defenses-on adversary run must stabilize");
        let t = d.sim.drain_telemetry();
        (t.to_json(), t.events_csv())
    }
    let (ja, ca) = adversary_run(0xAD5);
    let (jb, cb) = adversary_run(0xAD5);
    assert_eq!(ja, jb, "same-seed adversary telemetry JSON diverged");
    assert_eq!(ca, cb, "same-seed adversary trace CSV diverged");
    // The adversary counters and the oracle verdict are part of the
    // drained snapshot (slot coverage for the new instrumentation).
    for name in [
        "state_corruptions",
        "liar_messages_intercepted",
        "corrupt_rows_rejected",
        "self_audit_repairs",
        "oracle_stabilization_runs",
    ] {
        assert!(ja.contains(name), "drained telemetry must carry `{name}`");
    }
}

/// A Byzantine run — an epoch-capture collusion group, a split-brain
/// colluder pair, a forger, plus crafted wire-level forgeries — replays
/// bit-for-bit, and the drained snapshot carries every defense counter the
/// nightly gates read. Collusion scripting, forgery strikes, signature
/// verification, the signed epoch fence and quarantine bookkeeping draw no
/// nondeterminism of their own. This is the property the CI determinism
/// matrix pins for the `byzantine_day` example.
#[test]
fn same_seed_byzantine_run_drains_identical_telemetry() {
    use amcast::RangeSummary;
    use astrolabe::{KeyId, Signature};
    use newswire::{self_stabilized, NewsWireMsg, SignedItem};
    use simnet::{CollusionScript, CollusionSpec, ForgeSpec};
    use std::collections::BTreeSet;

    fn byzantine_run(seed: u64) -> (String, String) {
        let mut d = tech_news_deployment(40, seed);
        d.settle(60);
        let plan = FaultPlan {
            salt: 0xB2,
            collusion: vec![
                CollusionSpec {
                    nodes: vec![NodeId(5), NodeId(11), NodeId(17)],
                    start: SimTime::from_secs(65),
                    end: SimTime::from_secs(95),
                    mean_interval_secs: 6.0,
                    script: CollusionScript::EpochCapture { publisher: 0 },
                },
                CollusionSpec {
                    nodes: vec![NodeId(22), NodeId(28)],
                    start: SimTime::from_secs(65),
                    end: SimTime::from_secs(95),
                    mean_interval_secs: 6.0,
                    script: CollusionScript::SplitBrain,
                },
            ],
            forgery: vec![ForgeSpec {
                nodes: vec![NodeId(33)],
                start: SimTime::from_secs(65),
                end: SimTime::from_secs(95),
                mean_interval_secs: 8.0,
                items_per_strike: 2,
                publisher: 0,
            }],
            ..FaultPlan::default()
        };
        d.sim.apply_fault_plan(&plan);
        let items: Vec<NewsItem> = (0..6u64)
            .map(|seq| {
                NewsItem::builder(PublisherId(0), seq)
                    .headline(format!("byzantine determinism {seq}"))
                    .category(Category::Technology)
                    .build()
            })
            .collect();
        for (i, item) in items.iter().enumerate() {
            d.publish(SimTime::from_secs(66 + 5 * i as u64), item.clone());
        }
        // Crafted wire-level attacks on honest victims, so the forged-reject
        // and signed-epoch-refusal defenses fire on a deterministic schedule
        // regardless of how the emergent strikes land.
        let forged = NewsItem::builder(PublisherId(0), 77)
            .headline("FORGED byzantine dispatch")
            .category(Category::Technology)
            .build();
        d.sim.schedule_external(
            SimTime::from_secs(100),
            NodeId(7),
            NewsWireMsg::RepairReply {
                items: vec![SignedItem {
                    item: forged.into(),
                    key: KeyId(123),
                    signature: Signature(456),
                    basis: None,
                }],
            },
        );
        d.sim.schedule_external(
            SimTime::from_secs(100),
            NodeId(3),
            NewsWireMsg::ReconcileReply {
                publisher: PublisherId(0),
                summary: RangeSummary { epoch: 100, floor: 0, next: 9, present: 9 },
                attest: None,
                items: vec![],
                withheld: vec![],
            },
        );
        d.settle(55); // rides out the Byzantine window to t=115
        let mut exempt: BTreeSet<NodeId> = plan.colluding_nodes();
        exempt.extend(plan.forging_nodes());
        let verdict = self_stabilized(&mut d, &items, &exempt, 30);
        assert!(verdict.stabilized, "defenses-on byzantine run must stabilize");
        let t = d.sim.drain_telemetry();
        (t.to_json(), t.events_csv())
    }
    let (ja, ca) = byzantine_run(0xB12);
    let (jb, cb) = byzantine_run(0xB12);
    assert_eq!(ja, jb, "same-seed byzantine telemetry JSON diverged");
    assert_eq!(ca, cb, "same-seed byzantine trace CSV diverged");
    // The defense counters and trace kinds are part of the drained snapshot
    // (slot coverage for the Byzantine instrumentation the nightly gate
    // reads). Only non-zero slots export, so this also proves every defense
    // actually fired in the run.
    for name in [
        "collusion_strikes",
        "collusion_intercepts",
        "forged_items_injected",
        "forged_rejects",
        "quarantines",
        "signed_epoch_refusals",
        "oracle_stabilization_runs",
    ] {
        assert!(ja.contains(name), "drained telemetry must carry `{name}`");
    }
    for kind in ["collusion_strike", "forged_reject", "peer_quarantine", "signed_epoch_refusal"] {
        assert!(ca.contains(kind), "trace CSV must carry `{kind}` records");
    }
}

/// A trust-root rotation run — a stolen-key window straddling the
/// revocation, a Sybil identity burst, admission control on — replays
/// bit-for-bit, and the drained snapshot carries every counter and trace
/// kind the E21 nightly gate reads. Strike expansion, rotation adoption,
/// the admission-path fences, retroactive purges and probation bookkeeping
/// draw no nondeterminism of their own. This is the property the CI
/// determinism matrix pins for the `key_compromise_day` example.
#[test]
fn same_seed_trust_rotation_run_drains_identical_telemetry() {
    use newswire::self_stabilized;
    use simnet::{KeyCompromiseSpec, SybilSpec};
    use std::collections::BTreeSet;

    fn trust_run(seed: u64) -> (String, String) {
        let mut config = NewsWireConfig::tech_news();
        config.admission = true;
        let mut d = DeploymentBuilder::new(40, seed)
            .branching(4)
            .config(config)
            .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
            .build();
        d.settle(60);
        let plan = FaultPlan {
            salt: 0x15,
            key_compromise: vec![KeyCompromiseSpec {
                nodes: vec![NodeId(6), NodeId(21)],
                start: SimTime::from_secs(70),
                end: SimTime::from_secs(110),
                mean_interval_secs: 4.0,
                items_per_strike: 2,
                attest_bump: 1,
                publisher: 0,
            }],
            sybil: vec![SybilSpec {
                nodes: vec![NodeId(13)],
                start: SimTime::from_secs(65),
                end: SimTime::from_secs(110),
                mean_interval_secs: 5.0,
                identities_per_strike: 6,
                publisher: 0,
            }],
            ..FaultPlan::default()
        };
        d.sim.apply_fault_plan(&plan);
        let items: Vec<NewsItem> = (0..6u64)
            .map(|seq| {
                NewsItem::builder(PublisherId(0), seq)
                    .headline(format!("trust determinism {seq}"))
                    .category(Category::Technology)
                    .build()
            })
            .collect();
        for (i, item) in items.iter().enumerate() {
            d.publish(SimTime::from_secs(62 + i as u64), item.clone());
        }
        // Revocation lands mid-window: the fleet adopts while the thieves
        // keep striking, so the admission-path fences fire on live traffic.
        d.schedule_rotation(SimTime::from_secs(90), PublisherId(0), 3);
        d.settle(90); // rides out the compromise window to t=150
        let mut exempt: BTreeSet<NodeId> = plan.compromised_nodes();
        exempt.extend(plan.sybil_nodes());
        let verdict = self_stabilized(&mut d, &items, &exempt, 30);
        assert!(verdict.stabilized, "defenses-on trust-rotation run must stabilize");
        assert!(
            verdict.report.no_post_revocation_delivery(),
            "no forged delivery may postdate adoption"
        );
        let t = d.sim.drain_telemetry();
        (t.to_json(), t.events_csv())
    }
    let (ja, ca) = trust_run(0x7205);
    let (jb, cb) = trust_run(0x7205);
    assert_eq!(ja, jb, "same-seed trust-rotation telemetry JSON diverged");
    assert_eq!(ca, cb, "same-seed trust-rotation trace CSV diverged");
    // The rotation counters and trace kinds are part of the drained
    // snapshot (slot coverage for the E21 instrumentation the nightly gate
    // reads). Only non-zero slots export, so this also proves every
    // defense actually fired in the run.
    for name in [
        "key_compromise_strikes",
        "sybil_joins_attempted",
        "sybil_joins_refused",
        "cert_revocations_seen",
        "revoked_key_rejects",
        "retro_purged_items",
        "probation_holds",
    ] {
        assert!(ja.contains(name), "drained telemetry must carry `{name}`");
    }
    for kind in [
        "key_compromise_strike",
        "sybil_strike",
        "cert_revoked",
        "revoked_key_reject",
        "retro_purge",
        "probation_hold",
    ] {
        assert!(ca.contains(kind), "trace CSV must carry `{kind}` records");
    }
}

/// Draining is destructive: a second drain yields an empty snapshot, while
/// `snapshot_telemetry` leaves state in place.
#[test]
fn drain_resets_snapshot_does_not() {
    let mut d = sample_run(0xD38);
    let snap1 = d.sim.snapshot_telemetry();
    let snap2 = d.sim.snapshot_telemetry();
    assert_eq!(snap1.to_json(), snap2.to_json(), "snapshot must be non-destructive");
    let drained = d.sim.drain_telemetry();
    assert_eq!(drained.to_json(), snap1.to_json(), "drain returns what snapshot saw");
    let after = d.sim.snapshot_telemetry();
    assert!(after.events.is_empty(), "drain must clear the trace ring");
}

/// `total_stats` is a view of the registry, so it lives exactly as long as
/// the registry's counters: a snapshot leaves it unchanged, a drain zeroes
/// it.
#[test]
fn total_stats_survives_a_snapshot_and_not_a_drain() {
    let mut d = sample_run(0xD39);
    let before = d.total_stats();
    assert!(before.delivered > 0 && before.forwards_sent > 0, "workload sanity");
    let _ = d.sim.snapshot_telemetry();
    assert_eq!(d.total_stats(), before, "a snapshot must not touch the counters");
    let _ = d.sim.drain_telemetry();
    assert_eq!(d.total_stats(), NodeStats::default(), "a drain zeroes every counter");
}
