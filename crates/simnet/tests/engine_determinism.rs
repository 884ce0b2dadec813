//! Engine determinism, end to end through the public API.
//!
//! A small anti-entropy protocol (version vectors gossiped over a ring plus
//! random peers) runs under the nastiest fault cocktail the engine offers —
//! crash/cold-restart, partition, gray links, duplication, reordering, drops,
//! a Byzantine liar and a colluder pair, disk corruption. A same-seed rerun
//! must produce *byte-identical* telemetry and identical node states, and
//! so must the same run split into many short run calls: a run depends on
//! the seed and the schedule, never on where the caller pauses it.

use std::collections::BTreeMap;

use simnet::{
    Context, LiarBehavior, LiarMode, NetworkModel, Node, NodeId, Partition, Payload, RestartMode,
    SimDuration, SimTime, Simulation, TimerId,
};

#[derive(Debug, Clone)]
struct Gossip {
    vector: BTreeMap<u32, u64>,
}

impl Payload for Gossip {
    fn wire_size(&self) -> usize {
        16 + self.vector.len() * 12
    }
}

/// Gossips its version vector to the next ring member and one random peer
/// every tick, bumping its own entry each round. Deterministic per seed:
/// peer choice comes from the node's engine-provided RNG stream.
#[derive(Debug, Default)]
struct VvNode {
    n: u32,
    vector: BTreeMap<u32, u64>,
    merges: u64,
}

impl Node for VvNode {
    type Msg = Gossip;

    fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
        let me = ctx.id().0;
        self.vector.insert(me, 1);
        ctx.set_timer(SimDuration::from_millis(10 + u64::from(me)), 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Gossip>, _from: NodeId, msg: Gossip) {
        for (k, v) in msg.vector {
            let e = self.vector.entry(k).or_insert(0);
            if v > *e {
                *e = v;
                self.merges += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Gossip>, _timer: TimerId, _tag: u64) {
        let me = ctx.id().0;
        *self.vector.entry(me).or_insert(0) += 1;
        let msg = Gossip { vector: self.vector.clone() };
        ctx.send(NodeId((me + 1) % self.n), msg.clone());
        let peer = {
            use rand::Rng;
            ctx.rng().gen_range(0..self.n)
        };
        if peer != me {
            ctx.send(NodeId(peer), msg);
        }
        ctx.set_timer(SimDuration::from_millis(25), 0);
    }
}

/// Telemetry JSON, per-node `(vector, merges)` state, events processed.
type RunResult = (String, Vec<(BTreeMap<u32, u64>, u64)>, u64);

/// Runs the chaos cocktail to 3 s and returns the run's observable
/// outcome: in one `run_until` call, or in 300 `run_for(10 ms)` calls when
/// `split`.
fn run(split: bool) -> RunResult {
    let n = 12u32;
    let mut sim = Simulation::new(
        NetworkModel {
            latency: simnet::LatencyModel::Uniform {
                min: SimDuration::from_millis(2),
                max: SimDuration::from_millis(15),
            },
            drop_prob: 0.03,
            ..NetworkModel::default()
        },
        0xD15C0,
    );
    for _ in 0..n {
        sim.add_node(VvNode { n, ..Default::default() });
    }

    // Chaos: a crash with cold restart, a hard partition that heals, two
    // Byzantine nodes (a mis-summarizing liar and a colluder), gray links,
    // duplication + reordering on the wire, and a disk-corruption strike.
    sim.schedule_crash(SimTime::from_micros(400 * 1_000), NodeId(3));
    sim.schedule_restart(SimTime::from_micros(900 * 1_000), NodeId(3), RestartMode::ColdDurable);
    sim.schedule_partition(
        SimTime::from_micros(500 * 1_000),
        Some(Partition::split_at(n as usize, 6)),
    );
    sim.schedule_partition(SimTime::from_micros(1_500 * 1_000), None);
    sim.schedule_liar(
        SimTime::from_micros(100 * 1_000),
        NodeId(7),
        Some(LiarBehavior { mode: LiarMode::MisSummarize, prob: 0.4 }),
    );
    sim.schedule_colluder(SimTime::from_micros(100 * 1_000), NodeId(7), true);
    sim.schedule_colluder(SimTime::from_micros(100 * 1_000), NodeId(8), true);
    sim.schedule_gray(
        SimTime::from_micros(600 * 1_000),
        NodeId(5),
        Some(simnet::GrayProfile::severe()),
    );
    sim.schedule_gray(SimTime::from_micros(1_200 * 1_000), NodeId(5), None);
    sim.schedule_dup_prob(SimTime::from_micros(200 * 1_000), 0.08);
    sim.schedule_reorder(SimTime::from_micros(200 * 1_000), 0.15, SimDuration::from_millis(4));
    sim.schedule_corruption(
        SimTime::from_micros(700 * 1_000),
        NodeId(2),
        simnet::CorruptionOp::DiskBytes { flips: 3 },
        99,
    );

    if split {
        for _ in 0..300 {
            sim.run_for(SimDuration::from_millis(10));
        }
    } else {
        sim.run_until(SimTime::from_secs(3));
    }
    assert_eq!(sim.now(), SimTime::from_secs(3));

    let telemetry = sim.drain_telemetry().to_json();
    let states = (0..n)
        .map(|i| {
            let node = sim.node(NodeId(i));
            (node.vector.clone(), node.merges)
        })
        .collect();
    (telemetry, states, sim.events_processed())
}

#[test]
fn rerun_is_byte_identical() {
    let (a, b) = (run(false), run(false));
    assert!(a.2 > 1_000, "the cocktail does work: {} events", a.2);
    assert_eq!(a, b, "a same-seed rerun diverged");
}

#[test]
fn one_run_call_matches_three_hundred_short_ones() {
    let one = run(false);
    let split = run(true);
    assert_eq!(one.2, split.2, "event counts diverged when the run was split");
    assert_eq!(one.1, split.1, "node states diverged when the run was split");
    assert_eq!(one.0, split.0, "telemetry diverged when the run was split");
}
