//! Declarative, seeded fault injection — the chaos engine.
//!
//! A [`FaultPlan`] describes *processes* of failure rather than individual
//! events: Poisson churn (crash/recover with configurable mean up/down dwell
//! times), gray brownouts over node sets, directed link cuts, partitions,
//! and network-wide duplication/reordering windows. The adversary has three
//! primitives: Poisson corruption strikes ([`CorruptionSpec`], one
//! [`CorruptionOp`] per strike), liar windows ([`LiarSpec`]) and colluder
//! marks ([`CollusionSpec`]). Every attack is built from them: a colluding
//! epoch capture is `VoteEpoch` strikes plus a mark over the same group, a
//! split-brain pair a `SplitBrain` liar window plus a mark, a stolen key
//! `StolenKey` strikes. Applying a plan expands it
//! into concrete engine events using randomness forked from the simulation's
//! master seed (mixed with the plan's `salt`), so the same `(seed, plan)`
//! pair always produces the same schedule — chaos runs are replayable
//! bit-for-bit.
//!
//! ```
//! use simnet::*;
//!
//! struct Quiet;
//! impl Node for Quiet {
//!     type Msg = ();
//!     fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
//!     fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {}
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _t: TimerId, _tag: u64) {}
//! }
//!
//! let mut sim = Simulation::new(NetworkModel::default(), 42);
//! for _ in 0..8 { sim.add_node(Quiet); }
//! let plan = FaultPlan {
//!     churn: vec![ChurnSpec {
//!         nodes: (1..8).map(NodeId).collect(),
//!         start: SimTime::from_secs(10),
//!         end: SimTime::from_secs(60),
//!         mean_up_secs: 20.0,
//!         mean_down_secs: 5.0,
//!         recover_at_end: true,
//!         restart: RestartMode::Freeze,
//!     }],
//!     ..FaultPlan::default()
//! };
//! sim.apply_fault_plan(&plan);
//! sim.run_until(SimTime::from_secs(70));
//! assert!((0..8).all(|i| !sim.is_down(NodeId(i))), "plan recovers everyone");
//! ```

use std::collections::BTreeSet;

use rand::Rng;

use crate::disk::RestartMode;
use crate::node::{CorruptionOp, LiarBehavior, Node, NodeId};
use crate::rng::{exp_sample, fork};
use crate::sim::Simulation;
use crate::time::{SimDuration, SimTime};
use crate::topology::{GrayProfile, Partition};

/// Stream tag mixed into the master seed for plan expansion, so the plan's
/// randomness never collides with node or network streams.
const PLAN_STREAM: u64 = 0xFA01_7A57_FA01_7A57;

/// A Poisson churn process over a set of nodes: each node independently
/// alternates exponential up-dwells and down-dwells within `[start, end)`.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Nodes subjected to churn.
    pub nodes: Vec<NodeId>,
    /// When the process starts.
    pub start: SimTime,
    /// When the process stops scheduling new transitions.
    pub end: SimTime,
    /// Mean time a node stays up before its next crash, in seconds.
    pub mean_up_secs: f64,
    /// Mean time a node stays down before recovering, in seconds.
    pub mean_down_secs: f64,
    /// Recover any node still down at `end` (so post-churn liveness checks
    /// see every churned node back up).
    pub recover_at_end: bool,
    /// What each recovery in this process restores: `Freeze` (legacy —
    /// volatile state survives), `ColdDurable` (rebuild from disk), or
    /// `ColdAmnesia` (rejoin from nothing). Applies to every recovery the
    /// process schedules, including the `recover_at_end` one.
    pub restart: RestartMode,
}

/// A gray brownout: the nodes degrade (but stay alive) for a window.
#[derive(Debug, Clone)]
pub struct GraySpec {
    /// Nodes degraded gray.
    pub nodes: Vec<NodeId>,
    /// When the brownout begins.
    pub start: SimTime,
    /// When it heals; `None` leaves the nodes gray forever.
    pub end: Option<SimTime>,
    /// The degradation applied.
    pub profile: GrayProfile,
}

/// A directed link cut for a window: `from → to` drops, `to → from` flows.
#[derive(Debug, Clone)]
pub struct LinkCutSpec {
    /// Sending side of the cut direction.
    pub from: NodeId,
    /// Receiving side of the cut direction.
    pub to: NodeId,
    /// When the cut begins.
    pub start: SimTime,
    /// When it heals; `None` leaves the link cut forever.
    pub end: Option<SimTime>,
}

/// A scheduled network partition with a heal point: the groups stop hearing
/// each other at `start` and the network is whole again at `heal`.
///
/// Unlike churn, a partition crashes nobody — both sides keep running, so
/// nodes on either side remain "continuously live" for the delivery oracle.
/// What the window creates is *divergence*: items published on one side
/// during `[start, heal)` are invisible to the other until anti-entropy
/// reconciliation closes the holes after the heal.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// The group assignment applied at `start`.
    pub partition: Partition,
    /// When the partition begins.
    pub start: SimTime,
    /// When the network heals (the partition is removed).
    pub heal: SimTime,
}

/// A window of network-wide message duplication and reordering.
#[derive(Debug, Clone)]
pub struct MessageChaosSpec {
    /// When the knobs engage.
    pub start: SimTime,
    /// When they reset to zero; `None` leaves them on forever.
    pub end: Option<SimTime>,
    /// Duplication probability during the window.
    pub dup_prob: f64,
    /// Reordering probability during the window.
    pub reorder_prob: f64,
    /// Maximum reordering jitter during the window.
    pub reorder_jitter: SimDuration,
}

/// A Poisson process of adversarial strikes over a set of nodes: within
/// `[start, end)`, each node is struck at exponentially distributed
/// intervals, each strike applying `op` to its live state (or its disk, for
/// [`CorruptionOp::DiskBytes`]). Every threat that acts by editing a node's
/// own state is one of these: scrambled rows, phantom log entries, torn
/// disk records, forged items ([`CorruptionOp::ForgeItems`]), a colluding
/// group's epoch vote ([`CorruptionOp::VoteEpoch`]), forgeries under a
/// stolen key ([`CorruptionOp::StolenKey`]), a Sybil burst
/// ([`CorruptionOp::SybilFlood`]). Every strike carries its own seed drawn
/// from the plan-expansion stream, so the schedule *and* the damage replay
/// bit-for-bit for a given `(seed, plan)` pair.
///
/// `VoteEpoch` and `SybilFlood` stand for one fabricated epoch that every
/// strike of the spec asserts (the group's joint vote): the plan draws it
/// once per spec, before the spec's strikes, high enough that no legitimate
/// restart history reaches it, and it replaces the `epoch` given in `op`.
#[derive(Debug, Clone)]
pub struct CorruptionSpec {
    /// Nodes subjected to corruption strikes.
    pub nodes: Vec<NodeId>,
    /// When the corruption window opens.
    pub start: SimTime,
    /// When it closes (no strikes at or after this time).
    pub end: SimTime,
    /// Mean seconds between strikes against one node.
    pub mean_interval_secs: f64,
    /// What each strike does.
    pub op: CorruptionOp,
}

/// A colluder mark: the nodes count as one colluding group for a window.
/// The mark changes attribution only — strikes by a member also tally as
/// collusion strikes, and its liar intercepts tally as collusion intercepts
/// instead of solo ones — so a group attack is a [`CorruptionSpec`] or a
/// [`LiarSpec`] over the same nodes and window plus this mark.
#[derive(Debug, Clone)]
pub struct CollusionSpec {
    /// The colluding members.
    pub nodes: Vec<NodeId>,
    /// When the group forms.
    pub start: SimTime,
    /// When it disbands.
    pub end: SimTime,
}

/// A liar window: the nodes run their outbound traffic through the
/// protocol's `tamper_outbound` interceptor for the duration.
#[derive(Debug, Clone)]
pub struct LiarSpec {
    /// Nodes that lie.
    pub nodes: Vec<NodeId>,
    /// When the lying starts.
    pub start: SimTime,
    /// When it stops; `None` leaves the behavior installed forever.
    pub end: Option<SimTime>,
    /// What the lie does and how often.
    pub behavior: LiarBehavior,
}

/// A declarative, seeded schedule of faults.
///
/// Build one with struct-update syntax over [`FaultPlan::default`], then
/// apply it with [`Simulation::apply_fault_plan`] *before* running past the
/// earliest `start` in the plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Extra entropy mixed into the expansion stream, so two plans applied
    /// to the same simulation draw independent schedules.
    pub salt: u64,
    /// Churn processes.
    pub churn: Vec<ChurnSpec>,
    /// Gray brownouts.
    pub gray: Vec<GraySpec>,
    /// Directed link cuts.
    pub link_cuts: Vec<LinkCutSpec>,
    /// Scheduled partition/heal windows.
    pub partitions: Vec<PartitionSpec>,
    /// Duplication/reordering windows.
    pub message_chaos: Vec<MessageChaosSpec>,
    /// Strike processes. They draw from the plan stream in list order, so
    /// moving one re-rolls the schedule of every spec after it.
    pub corruption: Vec<CorruptionSpec>,
    /// Liar windows.
    pub liars: Vec<LiarSpec>,
    /// Colluder marks.
    pub collusion: Vec<CollusionSpec>,
}

impl FaultPlan {
    /// Every node any churn process may crash — the complement of the
    /// "continuously live" set the delivery-invariant oracle reasons about.
    pub fn churned_nodes(&self) -> BTreeSet<NodeId> {
        self.churn.iter().flat_map(|c| c.nodes.iter().copied()).collect()
    }
}

impl<N: Node> Simulation<N> {
    /// Expands `plan` into concrete crash/recover/gray/link/knob events,
    /// corruption strikes, liar installs and colluder marks.
    ///
    /// Expansion randomness is forked from the simulation's master seed and
    /// the plan's `salt` only — it does not touch the node or network RNG
    /// streams, so applying a plan never perturbs the protocol's own
    /// randomness.
    ///
    /// # Panics
    ///
    /// Panics if any window in the plan starts in the simulated past or
    /// ends before it starts, or if a churn or corruption spec has a
    /// non-positive mean.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let mut rng = fork(self.seed() ^ plan.salt, PLAN_STREAM);
        for spec in &plan.churn {
            let end = spec.end.since(SimTime::ZERO).as_secs_f64();
            for &node in &spec.nodes {
                let mut t = spec.start.since(SimTime::ZERO).as_secs_f64()
                    + exp_sample(&mut rng, spec.mean_up_secs);
                loop {
                    if t >= end {
                        break;
                    }
                    self.schedule_crash(at_secs(t), node);
                    let down_until = t + exp_sample(&mut rng, spec.mean_down_secs);
                    if down_until >= end {
                        if spec.recover_at_end {
                            self.schedule_restart(spec.end, node, spec.restart);
                        }
                        break;
                    }
                    self.schedule_restart(at_secs(down_until), node, spec.restart);
                    t = down_until + exp_sample(&mut rng, spec.mean_up_secs);
                }
            }
        }
        for spec in &plan.gray {
            for &node in &spec.nodes {
                self.schedule_gray(spec.start, node, Some(spec.profile));
                if let Some(end) = spec.end {
                    self.schedule_gray(end, node, None);
                }
            }
        }
        for spec in &plan.link_cuts {
            self.schedule_link_cut(spec.start, spec.from, spec.to);
            if let Some(end) = spec.end {
                self.schedule_link_heal(end, spec.from, spec.to);
            }
        }
        for spec in &plan.partitions {
            assert!(spec.start < spec.heal, "partition must heal after it starts");
            self.schedule_partition(spec.start, Some(spec.partition.clone()));
            self.schedule_partition(spec.heal, None);
        }
        for spec in &plan.message_chaos {
            self.schedule_dup_prob(spec.start, spec.dup_prob);
            self.schedule_reorder(spec.start, spec.reorder_prob, spec.reorder_jitter);
            if let Some(end) = spec.end {
                self.schedule_dup_prob(end, 0.0);
                self.schedule_reorder(end, 0.0, SimDuration::ZERO);
            }
        }
        for spec in &plan.corruption {
            assert!(
                spec.mean_interval_secs > 0.0,
                "corruption spec needs a positive mean interval"
            );
            let op = match spec.op {
                CorruptionOp::VoteEpoch { publisher, .. } => {
                    CorruptionOp::VoteEpoch { publisher, epoch: fabricated_epoch(&mut rng) }
                }
                CorruptionOp::SybilFlood { identities, .. } => {
                    CorruptionOp::SybilFlood { identities, epoch: fabricated_epoch(&mut rng) }
                }
                op => op,
            };
            let end = spec.end.since(SimTime::ZERO).as_secs_f64();
            for &node in &spec.nodes {
                let mut t = spec.start.since(SimTime::ZERO).as_secs_f64()
                    + exp_sample(&mut rng, spec.mean_interval_secs);
                while t < end {
                    let strike_seed: u64 = rng.gen();
                    self.schedule_corruption(at_secs(t), node, op, strike_seed);
                    t += exp_sample(&mut rng, spec.mean_interval_secs);
                }
            }
        }
        for spec in &plan.liars {
            if let Some(end) = spec.end {
                assert!(spec.start < end, "liar window must end after it starts");
            }
            for &node in &spec.nodes {
                self.schedule_liar(spec.start, node, Some(spec.behavior));
                if let Some(end) = spec.end {
                    self.schedule_liar(end, node, None);
                }
            }
        }
        for spec in &plan.collusion {
            assert!(spec.start < spec.end, "collusion window must end after it starts");
            for &node in &spec.nodes {
                self.schedule_colluder(spec.start, node, true);
                self.schedule_colluder(spec.end, node, false);
            }
        }
    }
}

/// A joint vote's fabricated epoch: above any legitimate restart history.
fn fabricated_epoch(rng: &mut impl Rng) -> u32 {
    100 + rng.gen_range(0u32..64)
}

fn at_secs(secs: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TimerId;
    use crate::node::{Context, LiarAction, LiarMode};
    use crate::topology::NetworkModel;
    use rand::rngs::SmallRng;

    struct Echo {
        seen: u32,
    }
    impl Node for Echo {
        type Msg = ();
        fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {
            self.seen += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _t: TimerId, _tag: u64) {}
    }

    /// A chatty node that records exactly what the adversary did to it:
    /// every corruption draw, every tampered byte it received. It keeps one
    /// fsynced disk record, so a `DiskBytes` strike has bits to flip.
    struct Chatty {
        peer: NodeId,
        draws: Vec<u64>,
        got: Vec<u8>,
    }
    impl Node for Chatty {
        type Msg = Vec<u8>;
        fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
            ctx.disk().write("state", vec![0; 16]);
            ctx.disk().fsync();
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, m: Vec<u8>) {
            self.got.push(m[0]);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _t: TimerId, _tag: u64) {
            ctx.send(self.peer, vec![7]);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        /// One record per unit of damage: the epoch a vote asserts, or one
        /// draw from the strike's private stream.
        fn apply_corruption(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
            let (units, epoch) = match *op {
                CorruptionOp::ZoneRows { rows } => (rows, None),
                CorruptionOp::LogEpoch { entries } => (entries, None),
                CorruptionOp::ForgeItems { items, .. } | CorruptionOp::StolenKey { items, .. } => {
                    (items, None)
                }
                CorruptionOp::VoteEpoch { epoch, .. } => (1, Some(epoch)),
                CorruptionOp::SybilFlood { identities, epoch } => (identities, Some(epoch)),
                CorruptionOp::DiskBytes { .. } => unreachable!("the engine strikes the disk"),
            };
            for _ in 0..units {
                self.draws.push(epoch.map_or_else(|| rng.gen(), u64::from));
            }
            u64::from(units)
        }
        fn tamper_outbound(
            &mut self,
            to: NodeId,
            msg: &mut Vec<u8>,
            mode: LiarMode,
            rng: &mut SmallRng,
        ) -> LiarAction {
            match mode {
                LiarMode::MisSummarize => {
                    msg[0] = rng.gen();
                    LiarAction::Tampered
                }
                LiarMode::SelectiveDrop => LiarAction::Dropped,
                LiarMode::StaleDigest => LiarAction::Pass,
                LiarMode::SplitBrain => {
                    msg[0] = if to.0.is_multiple_of(2) { 101 } else { 102 };
                    LiarAction::Tampered
                }
            }
        }
    }

    fn chatty_pair(seed: u64, plan: &FaultPlan) -> Simulation<Chatty> {
        let mut sim = Simulation::new(NetworkModel::default(), seed);
        let a = sim.add_node(Chatty { peer: NodeId(1), draws: Vec::new(), got: Vec::new() });
        let b = sim.add_node(Chatty { peer: NodeId(0), draws: Vec::new(), got: Vec::new() });
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
        sim.apply_fault_plan(plan);
        sim.run_until(SimTime::from_secs(40));
        sim
    }

    /// Every strike the run executed, as `(µs, node, op discriminant)`,
    /// read from the trace ring.
    fn strikes(sim: &Simulation<Chatty>) -> Vec<(u64, u32, u64)> {
        let t = sim.snapshot_telemetry();
        t.events
            .iter()
            .filter(|e| e.kind == obs::kind::STATE_CORRUPT)
            .map(|e| (e.t_us, e.node, e.a))
            .collect()
    }

    /// Both nodes' corruption records, node 0's first.
    fn draws(sim: &Simulation<Chatty>) -> Vec<u64> {
        [NodeId(0), NodeId(1)].iter().flat_map(|&n| sim.node(n).draws.iter().copied()).collect()
    }

    /// Both nodes' disk records.
    fn disks(sim: &Simulation<Chatty>) -> Vec<Vec<u8>> {
        [NodeId(0), NodeId(1)]
            .iter()
            .map(|&n| sim.disk(n).read("state").expect("written at start").to_vec())
            .collect()
    }

    /// Every op runs through the one strike process: it strikes inside its
    /// window, its schedule and damage replay for the same seed, a new
    /// salt re-draws the schedule, and it tallies its own counter. The two
    /// joint-vote ops assert one fabricated epoch per spec.
    #[test]
    fn every_strike_op_replays_and_tallies_its_counter() {
        let ops = [
            CorruptionOp::ZoneRows { rows: 3 },
            CorruptionOp::LogEpoch { entries: 2 },
            CorruptionOp::DiskBytes { flips: 5 },
            CorruptionOp::ForgeItems { items: 2, publisher: 0 },
            CorruptionOp::VoteEpoch { publisher: 0, epoch: 0 },
            CorruptionOp::StolenKey { publisher: 0, items: 2, attest_bump: 3 },
            CorruptionOp::SybilFlood { identities: 4, epoch: 0 },
        ];
        for op in ops {
            let name = op.name();
            let group = vec![NodeId(0), NodeId(1)];
            let (start, end) = (SimTime::from_secs(5), SimTime::from_secs(30));
            let vote = matches!(op, CorruptionOp::VoteEpoch { .. });
            let plan = FaultPlan {
                salt: 0xBAD,
                corruption: vec![CorruptionSpec {
                    nodes: group.clone(),
                    start,
                    end,
                    mean_interval_secs: 5.0,
                    op,
                }],
                // The epoch vote is a colluding group's; every other op
                // strikes solo.
                collusion: if vote {
                    vec![CollusionSpec { nodes: group, start, end }]
                } else {
                    vec![]
                },
                ..FaultPlan::default()
            };
            let s1 = chatty_pair(11, &plan);
            let s2 = chatty_pair(11, &plan);
            let f = s1.fault_counters();
            assert!(f.state_corruptions > 0, "{name}: the window must actually strike");
            assert_eq!(
                f.state_corruptions,
                strikes(&s1).len() as u64,
                "{name}: one trace per strike"
            );
            assert_eq!(f, s2.fault_counters(), "{name}: same seed ⇒ identical fault counters");
            assert_eq!(strikes(&s1), strikes(&s2), "{name}: same seed ⇒ identical schedule");
            assert_eq!(
                (draws(&s1), disks(&s1)),
                (draws(&s2), disks(&s2)),
                "{name}: same seed ⇒ identical damage"
            );
            let s3 = chatty_pair(11, &FaultPlan { salt: 0xF00D, ..plan.clone() });
            assert_ne!(strikes(&s1), strikes(&s3), "{name}: salt must re-randomize the schedule");

            let all = draws(&s1);
            let disk = matches!(op, CorruptionOp::DiskBytes { .. });
            assert_eq!(all.is_empty(), disk, "{name}: every other strike records its damage");
            if vote {
                assert_eq!(
                    f.state_corruptions, f.collusion_strikes,
                    "colluder strikes are also state corruptions"
                );
            } else {
                assert_eq!(f.collusion_strikes, 0, "{name}: a lone striker is not a collusion");
            }
            match op {
                CorruptionOp::ZoneRows { rows: units }
                | CorruptionOp::LogEpoch { entries: units } => {
                    assert_eq!(all.len() as u64, f.state_corruptions * u64::from(units));
                }
                CorruptionOp::DiskBytes { .. } => {
                    assert!(
                        disks(&s1).iter().any(|d| d.iter().any(|&b| b != 0)),
                        "disk strikes must flip stored bits"
                    );
                }
                CorruptionOp::ForgeItems { .. } => assert_eq!(
                    f.forged_items_injected,
                    all.len() as u64,
                    "every fabricated item was drawn from the strike stream"
                ),
                CorruptionOp::StolenKey { items, .. } => {
                    assert_eq!(f.key_compromise_strikes, f.state_corruptions);
                    assert_eq!(
                        f.forged_items_injected, 0,
                        "stolen-key forgeries are tallied separately"
                    );
                    assert_eq!(
                        all.len() as u64,
                        f.key_compromise_strikes * u64::from(items),
                        "every strike fabricates its items"
                    );
                }
                CorruptionOp::VoteEpoch { .. } | CorruptionOp::SybilFlood { .. } => {
                    if let CorruptionOp::SybilFlood { .. } = op {
                        assert_eq!(all.len() as u64, f.sybil_joins_attempted);
                    }
                    // The vote is *joint*: every strike on every member
                    // asserts the one epoch the plan drew for the spec.
                    assert!(all.iter().all(|&e| e == all[0]), "{name}: one epoch per spec");
                    assert!(
                        (100..164).contains(&all[0]),
                        "the fabricated epoch sits above any legitimate history"
                    );
                }
            }
        }
    }

    #[test]
    fn liar_spec_windows_and_determinism() {
        let plan = FaultPlan {
            salt: 0x11A2,
            liars: vec![LiarSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(5),
                end: Some(SimTime::from_secs(20)),
                behavior: LiarBehavior { mode: LiarMode::SelectiveDrop, prob: 1.0 },
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(13, &plan);
        let s2 = chatty_pair(13, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.liar_intercepts > 0, "the liar must intercept inside its window");
        assert_eq!(f1, s2.fault_counters(), "same seed ⇒ identical intercepts");
        assert_eq!(s1.node(NodeId(1)).got, s2.node(NodeId(1)).got);
        // Messages sent outside the window still flow: ~39 ticks minus the
        // 15-second drop window must leave plenty delivered.
        assert!(!s1.node(NodeId(1)).got.is_empty(), "traffic outside the liar window must survive");
        // Tampering (as opposed to dropping) rewrites payloads in place.
        let tamper_plan = FaultPlan {
            salt: 0x11A2,
            liars: vec![LiarSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(5),
                end: None,
                behavior: LiarBehavior { mode: LiarMode::MisSummarize, prob: 1.0 },
            }],
            ..FaultPlan::default()
        };
        let s4 = chatty_pair(13, &tamper_plan);
        assert!(
            s4.node(NodeId(1)).got.iter().any(|&b| b != 7),
            "a mis-summarizing liar must corrupt payloads on the wire"
        );
        assert_eq!(
            s4.fault_counters().liar_intercepts,
            chatty_pair(13, &tamper_plan).fault_counters().liar_intercepts
        );
    }

    #[test]
    fn inert_adversary_layer_draws_nothing() {
        // A plan with no corruption or liars must leave the run identical
        // to one never touched by the adversary machinery at all.
        let empty = FaultPlan::default();
        let s1 = chatty_pair(17, &empty);
        let mut s2 = Simulation::new(NetworkModel::default(), 17);
        s2.add_node(Chatty { peer: NodeId(1), draws: Vec::new(), got: Vec::new() });
        s2.add_node(Chatty { peer: NodeId(0), draws: Vec::new(), got: Vec::new() });
        s2.run_until(SimTime::from_secs(40));
        assert_eq!(s1.node(NodeId(1)).got, s2.node(NodeId(1)).got);
        assert_eq!(s1.fault_counters().state_corruptions, 0);
        assert_eq!(s1.fault_counters().liar_intercepts, 0);
        assert_eq!(s1.fault_counters().collusion_strikes, 0);
        assert_eq!(s1.fault_counters().collusion_intercepts, 0);
        assert_eq!(s1.fault_counters().forged_items_injected, 0);
        assert_eq!(s1.fault_counters().key_compromise_strikes, 0);
        assert_eq!(s1.fault_counters().sybil_joins_attempted, 0);
    }

    #[test]
    fn collusion_split_brain_lies_by_destination() {
        let plan = FaultPlan {
            salt: 0x5B,
            liars: vec![LiarSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(2),
                end: Some(SimTime::from_secs(30)),
                behavior: LiarBehavior { mode: LiarMode::SplitBrain, prob: 1.0 },
            }],
            collusion: vec![CollusionSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(2),
                end: SimTime::from_secs(30),
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(23, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.collusion_intercepts > 0, "the colluder must intercept");
        assert_eq!(f1.liar_intercepts, 0, "colluder intercepts are tallied separately");
        // Node 1 is an odd destination: it sees the odd-half story only.
        assert!(s1.node(NodeId(1)).got.contains(&102));
        assert!(s1.node(NodeId(1)).got.iter().all(|&b| b != 101));
        assert_eq!(s1.fault_counters(), chatty_pair(23, &plan).fault_counters());
    }

    /// The strike schedule of a mixed plan, pinned: a colluding epoch vote,
    /// a split-brain liar window, and forge, stolen-key and Sybil strikes,
    /// listed in the order the plan stream draws them. An edit that
    /// reorders the plan stream moves these times.
    #[test]
    fn mixed_plan_strike_schedule_is_pinned() {
        let (start, end) = (SimTime::from_secs(5), SimTime::from_secs(30));
        let late = SimTime::from_secs(35);
        let both = vec![NodeId(0), NodeId(1)];
        let strikes_of = |nodes: Vec<NodeId>, end, mean_interval_secs, op| CorruptionSpec {
            nodes,
            start,
            end,
            mean_interval_secs,
            op,
        };
        let plan = FaultPlan {
            salt: 0x5C4E_D01E,
            corruption: vec![
                strikes_of(
                    both.clone(),
                    end,
                    5.0,
                    CorruptionOp::VoteEpoch { publisher: 0, epoch: 0 },
                ),
                strikes_of(
                    vec![NodeId(1)],
                    late,
                    6.0,
                    CorruptionOp::ForgeItems { items: 2, publisher: 0 },
                ),
                strikes_of(
                    vec![NodeId(0)],
                    late,
                    7.0,
                    CorruptionOp::StolenKey { publisher: 0, items: 2, attest_bump: 3 },
                ),
                strikes_of(
                    both.clone(),
                    end,
                    5.0,
                    CorruptionOp::SybilFlood { identities: 4, epoch: 0 },
                ),
            ],
            liars: vec![LiarSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(2),
                end: Some(end),
                behavior: LiarBehavior { mode: LiarMode::SplitBrain, prob: 1.0 },
            }],
            collusion: vec![
                CollusionSpec { nodes: both, start, end },
                CollusionSpec { nodes: vec![NodeId(0)], start: SimTime::from_secs(2), end },
            ],
            ..FaultPlan::default()
        };
        let sim = chatty_pair(41, &plan);
        // (µs, node, op): 4 forge, 5 vote, 6 stolen key, 7 Sybil.
        const PINNED: [(u64, u32, u64); 39] = [
            (5_435_427, 0, 6),
            (5_485_933, 0, 7),
            (6_785_481, 1, 7),
            (7_417_796, 1, 7),
            (7_852_163, 0, 5),
            (7_995_510, 0, 7),
            (8_101_634, 0, 6),
            (9_215_817, 0, 7),
            (9_713_033, 1, 4),
            (9_996_333, 1, 7),
            (10_033_336, 1, 7),
            (10_110_079, 1, 4),
            (10_614_759, 0, 7),
            (10_760_349, 0, 6),
            (12_699_209, 0, 6),
            (12_722_717, 1, 4),
            (13_750_877, 0, 7),
            (14_005_219, 0, 7),
            (15_162_674, 0, 5),
            (15_286_329, 0, 5),
            (18_217_106, 1, 5),
            (18_354_193, 1, 7),
            (18_648_991, 1, 5),
            (20_412_345, 1, 5),
            (20_906_689, 0, 5),
            (21_869_974, 1, 5),
            (22_989_412, 1, 7),
            (23_404_676, 0, 5),
            (23_413_548, 1, 4),
            (24_685_957, 0, 7),
            (25_039_053, 0, 7),
            (25_405_043, 1, 7),
            (25_450_521, 1, 4),
            (27_813_199, 0, 5),
            (29_206_063, 1, 7),
            (29_762_908, 0, 6),
            (30_875_785, 0, 6),
            (33_278_330, 1, 4),
            (33_600_106, 1, 4),
        ];
        assert_eq!(strikes(&sim), PINNED);
        // The two drawn epochs: the vote's, and the Sybil burst's (node 0's
        // other records are stolen-key draws, far above any epoch).
        let epochs: BTreeSet<u64> =
            sim.node(NodeId(0)).draws.iter().copied().filter(|&d| d < 164).collect();
        assert_eq!(epochs, BTreeSet::from([120, 153]));
        let t = sim.snapshot_telemetry();
        assert!(t.events.iter().filter(|e| e.kind == obs::kind::SYBIL_STRIKE).all(|e| e.b == 120));
        // The marks: the strikes inside 5–30 s are collusion strikes, and
        // every split-brain lie is a collusion intercept.
        let f = sim.fault_counters();
        assert_eq!((f.collusion_strikes, f.collusion_intercepts, f.liar_intercepts), (36, 28, 0));
    }

    #[test]
    fn partition_spec_starts_and_heals() {
        let mut sim = Simulation::new(NetworkModel::default(), 9);
        let a = sim.add_node(Echo { seen: 0 });
        let b = sim.add_node(Echo { seen: 0 });
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                partition: Partition::split_at(2, 1),
                start: SimTime::from_secs(10),
                heal: SimTime::from_secs(20),
            }],
            ..FaultPlan::default()
        };
        sim.apply_fault_plan(&plan);
        sim.schedule_external(SimTime::from_secs(12), a, ());
        sim.schedule_external(SimTime::from_secs(25), b, ());
        sim.run_until(SimTime::from_secs(30));
        let f = sim.fault_counters();
        assert_eq!(f.partitions_started, 1);
        assert_eq!(f.partitions_healed, 1);
        assert_eq!(sim.node(a).seen + sim.node(b).seen, 2, "external inputs still land");
    }

    #[test]
    #[should_panic(expected = "heal after it starts")]
    fn partition_spec_rejects_inverted_window() {
        let mut sim: Simulation<Echo> = Simulation::new(NetworkModel::default(), 9);
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                partition: Partition::split_at(2, 1),
                start: SimTime::from_secs(20),
                heal: SimTime::from_secs(10),
            }],
            ..FaultPlan::default()
        };
        sim.apply_fault_plan(&plan);
    }
}
