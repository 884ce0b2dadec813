//! End-to-end checks of the observability layer over a full NewsWire
//! deployment: the metrics registry must count what the paths carried, and
//! a drained telemetry snapshot must be byte-for-byte deterministic for a
//! given seed (the property CI enforces).

use newsml::{Category, NewsItem, PublisherId, PublisherProfile};
use newswire::{
    tech_news_deployment, Deployment, DeploymentBuilder, NewsWireConfig, PublisherSpec,
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

/// The acknowledged final hop's two counters are appended after every
/// other slot; on a lossless run every `Deliver` is acknowledged and none is
/// re-sent. They are apart from the hand-off counters: `nw_ack_retries`
/// still counts hand-offs only.
#[test]
fn deliver_ack_counters_append_after_the_existing_slots() {
    use obs::ctr;
    assert_eq!(
        (ctr::RETIRED_99.0, ctr::NW_DELIVER_ACKS.0, ctr::NW_DELIVER_RESENDS.0),
        (99, 100, 101)
    );
    let d = sample_run(0x0B7);
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    assert_eq!(hub.counter_total(ctr::NW_ACK_RETRIES), 0, "nothing lost, nothing retransmitted");
    assert!(hub.counter_total(ctr::NW_DELIVER_ACKS) > 0, "members acknowledge their Delivers");
    assert_eq!(hub.counter_total(ctr::NW_DELIVER_RESENDS), 0);
    let retired =
        [ctr::RETIRED_83, ctr::RETIRED_84, ctr::RETIRED_94, ctr::RETIRED_95, ctr::RETIRED_99];
    assert!(retired.iter().all(|&id| hub.counter_total(id) == 0), "retired slots stay zero");
}

/// The gossip byte counter is appended after those. On the one gossip
/// wire, a row whose values did not change moves by stamp alone —
/// taken from a digest entry or a refresh record — so the refresh counters
/// are live there too, and the bytes they saved are the larger part of what
/// the rows would have cost.
#[test]
fn the_full_gossip_wire_moves_unchanged_rows_by_stamp() {
    use obs::ctr;
    assert_eq!((ctr::RETIRED_95.0, ctr::GOSSIP_BYTES_SENT.0), (95, 96));
    assert_eq!(
        (ctr::NW_RECONCILE_WITHHELD.0, ctr::NW_RECONCILE_UNVOUCHED.0, ctr::RETIRED_99.0),
        (97, 98, 99),
        "what reconcile vouches for is appended after the gossip byte counter"
    );
    assert_eq!(ctr::NAMES.len(), 114);
    let d = sample_run(0x0B8);
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    let (rows, saved) = (
        hub.counter_total(ctr::GOSSIP_REFRESH_ROWS),
        hub.counter_total(ctr::GOSSIP_REFRESH_BYTES_SAVED),
    );
    assert!(rows > 0, "no row moved by stamp");
    assert!(saved > 30 * rows, "{saved} B saved over {rows} rows");
    let gossip = hub.counter_total(ctr::GOSSIP_BYTES_SENT);
    assert!(gossip > 0 && gossip < hub.counter_total(ctr::BYTES_SENT));
}

/// `bytes_sent` split by cause is appended after every other slot, and on
/// a small lossy deployment — ack retries, re-sent `Deliver`s and reconcile
/// pulls all on the wire, beside gossip — the causes sum to it exactly, on
/// every node.
#[test]
fn the_byte_causes_sum_to_bytes_sent() {
    use obs::ctr;
    let causes = [
        ctr::BYTES_HANDOFF,
        ctr::BYTES_HANDOFF_ANNOUNCE,
        ctr::BYTES_DELIVER,
        ctr::BYTES_DELIVER_ANNOUNCE,
        ctr::BYTES_ACK,
        ctr::BYTES_GOSSIP,
        ctr::BYTES_RECONCILE,
        ctr::BYTES_OTHER,
    ];
    assert_eq!(causes.map(|c| c.0), [104, 105, 106, 107, 108, 109, 110, 111]);
    let mut d = DeploymentBuilder::new(60, 0xB17)
        .wan(0.05)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(60);
    for seq in 0..12u64 {
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline(format!("byte split {seq}"))
            .category(Category::Technology)
            .build();
        d.publish(SimTime::from_secs(60) + simnet::SimDuration::from_millis(500 * seq), item);
    }
    d.settle(30);
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    for node in 0..hub.node_count() {
        let split: u64 = causes.iter().map(|&c| hub.node_counter(node, c)).sum();
        assert_eq!(split, hub.node_counter(node, ctr::BYTES_SENT), "node {node}");
    }
    let total = |c| hub.counter_total(c);
    for (cause, name) in [
        (ctr::BYTES_HANDOFF, "hand-offs"),
        (ctr::BYTES_DELIVER, "deliveries"),
        (ctr::BYTES_ACK, "acks"),
        (ctr::BYTES_GOSSIP, "gossip"),
        (ctr::BYTES_RECONCILE, "reconcile"),
    ] {
        assert!(total(cause) > 0, "workload sanity: no {name} on the wire");
    }
    assert!(total(ctr::NW_ACK_RETRIES) + total(ctr::NW_DELIVER_RESENDS) > 0, "nothing was lost");
    assert!(total(ctr::BYTES_GOSSIP) > total(ctr::GOSSIP_BYTES_SENT), "riders and headers");
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
    use simnet::{CollusionSpec, CorruptionOp, CorruptionSpec, LiarBehavior, LiarMode, LiarSpec};
    use std::collections::BTreeSet;

    fn byzantine_run(seed: u64) -> (String, String) {
        let mut d = tech_news_deployment(40, seed);
        d.settle(60);
        let (start, end) = (SimTime::from_secs(65), SimTime::from_secs(95));
        let cartel = vec![NodeId(5), NodeId(11), NodeId(17)];
        let pair = vec![NodeId(22), NodeId(28)];
        let forger = NodeId(33);
        let plan = FaultPlan {
            salt: 0xB2,
            corruption: vec![
                CorruptionSpec {
                    nodes: cartel.clone(),
                    start,
                    end,
                    mean_interval_secs: 6.0,
                    op: CorruptionOp::VoteEpoch { publisher: 0, epoch: 0 },
                },
                CorruptionSpec {
                    nodes: vec![forger],
                    start,
                    end,
                    mean_interval_secs: 8.0,
                    op: CorruptionOp::ForgeItems { items: 2, publisher: 0 },
                },
            ],
            liars: vec![LiarSpec {
                nodes: pair.clone(),
                start,
                end: Some(end),
                behavior: LiarBehavior { mode: LiarMode::SplitBrain, prob: 1.0 },
            }],
            collusion: vec![
                CollusionSpec { nodes: cartel.clone(), start, end },
                CollusionSpec { nodes: pair.clone(), start, end },
            ],
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
            NewsWireMsg::ReconcileReply {
                publisher: PublisherId(0),
                summary: RangeSummary { epoch: 0, floor: 0, next: 0, present: 0 },
                attest: None,
                items: vec![SignedItem {
                    item: forged.into(),
                    key: KeyId(123),
                    signature: Signature(456),
                    basis: None,
                }],
                withheld: vec![],
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
        let mut exempt: BTreeSet<NodeId> = cartel.into_iter().chain(pair).collect();
        exempt.insert(forger);
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
    use simnet::{CorruptionOp, CorruptionSpec};
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
        let thieves = vec![NodeId(6), NodeId(21)];
        let striker = NodeId(13);
        let plan = FaultPlan {
            salt: 0x15,
            corruption: vec![
                CorruptionSpec {
                    nodes: thieves.clone(),
                    start: SimTime::from_secs(70),
                    end: SimTime::from_secs(110),
                    mean_interval_secs: 4.0,
                    op: CorruptionOp::StolenKey { publisher: 0, items: 2, attest_bump: 1 },
                },
                CorruptionSpec {
                    nodes: vec![striker],
                    start: SimTime::from_secs(65),
                    end: SimTime::from_secs(110),
                    mean_interval_secs: 5.0,
                    op: CorruptionOp::SybilFlood { identities: 6, epoch: 0 },
                },
            ],
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
        let mut exempt: BTreeSet<NodeId> = thieves.into_iter().collect();
        exempt.insert(striker);
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

/// A deployment's counter totals are read from the registry, so they live
/// exactly as long as the registry's counters: a snapshot leaves every one
/// unchanged, a drain zeroes them all.
#[test]
fn counter_totals_survive_a_snapshot_and_not_a_drain() {
    use obs::{ctr, CtrId};
    let totals = |d: &Deployment| -> Vec<u64> {
        let global = d.sim.telemetry().borrow().global().clone();
        (0..ctr::NAMES.len() as u16)
            .flat_map(|i| [d.counter(CtrId(i)), global.ctr(CtrId(i))])
            .collect()
    };
    let mut d = sample_run(0xD39);
    let before = totals(&d);
    assert!(d.counter(ctr::NW_DELIVERED) > 0 && d.counter(ctr::NW_FORWARDS) > 0, "workload sanity");
    let _ = d.sim.snapshot_telemetry();
    assert_eq!(totals(&d), before, "a snapshot must not touch the counters");
    let _ = d.sim.drain_telemetry();
    assert!(totals(&d).iter().all(|&c| c == 0), "a drain zeroes every counter");
}

/// A run whose trace ring wraps many times over exports exactly the records
/// an unpacked ring of 32-byte slots kept: the newest 1,000, oldest first.
/// The hash was first taken from a build that stored the ring unpacked,
/// and re-taken when article records began naming their item by its trace
/// key, as the last 1,000 records of the same run with a ring that never
/// wraps. The window holds gossip records and NewsWire deliveries; most fit
/// the ring's short form, and one with a field past it (a step of more than
/// 8.19 ms from the block's previous record, a latency over 2^20 µs) takes
/// the long one.
#[test]
fn a_wrapped_ring_exports_the_records_an_unpacked_ring_kept() {
    let mut d = tech_news_deployment(40, 0xD3A);
    d.sim.set_trace_capacity(1_000);
    d.settle(30);
    for seq in 0..6u64 {
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline(format!("wrapped ring {seq}"))
            .category(Category::Technology)
            .build();
        d.publish(SimTime::from_secs(30) + simnet::SimDuration::from_millis(50 * seq), item);
    }
    d.settle(1);
    let t = d.sim.snapshot_telemetry();
    assert_eq!(t.events.len(), 1_000);
    assert!(t.events_dropped > 5_000, "the ring wrapped: {} dropped", t.events_dropped);
    let delivered = t.events.iter().filter(|e| e.kind == obs::kind::NW_DELIVER).count();
    let gossip = t.events.iter().filter(|e| e.layer == obs::Layer::Astro).count();
    assert!(
        delivered > 50 && gossip > 50,
        "workload sanity: {delivered} deliveries, {gossip} gossip"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "the FIPS 180-4 test vector"
    );
    assert_eq!(
        sha256_hex(t.events_csv().as_bytes()),
        "94ac41b4cc19ea67488b786a4d0e300e58d16e894fc1b9551ac4ec51f0a6a414"
    );
}

/// SHA-256 of `data` in lowercase hex (FIPS 180-4): what `sha256sum`
/// prints for the same bytes.
fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(8 * data.len() as u64).to_be_bytes());
    for chunk in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let mut v = h;
        for (k, w) in K.iter().zip(w) {
            let [a, b, c, d, e, f, g, hh] = v;
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(*k).wrapping_add(w);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let t2 = s0.wrapping_add((a & b) ^ (a & c) ^ (b & c));
            v = [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g];
        }
        for (x, y) in h.iter_mut().zip(v) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}
