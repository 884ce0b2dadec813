//! `gossip_cold_start` — Astrolabe alone.
//!
//! `AstroNode` agents start cold and gossip until every node's root table
//! accounts for the full membership, then run 30 simulated seconds of steady
//! state (the per-round recompute cost). `astrolabe` merge and aggregation
//! and a deep `simnet` timer queue do the work; `amcast` and `newswire` do
//! none. Same shape as `crates/bench`'s `astro_convergence_n*_b16`.
//!
//! From the seed: each agent's three bootstrap contacts, its first-round
//! offset and its gossip partner choices.
//!
//! The "delivery" here is a node learning of the whole membership: one
//! sample per node, from cold start to the first poll at which its root
//! table sums to `n` members. `converged_sim_s` is when the last node got
//! there (three fixed probes, as `crates/bench` uses, sample that
//! distribution at three points and are twice as noisy across seeds).

use astrolabe::{Agent, AstroNode, Config, GossipMsg, ZoneLayout};
use rand::Rng;
use simnet::{fork, NetworkModel, NodeId, SimDuration, SimTime, Simulation};

use super::{finish, latency_metrics, ratio, Baseline, FullView, Sample, Stopwatch};
use crate::probe::{Bucket, Classify, Mode, Path, Phase, START};

const NODES: u32 = 2_560;
const BRANCHING: u16 = 16;
/// Convergence is polled this often; only simulator time counts as wall.
const POLL: SimDuration = SimDuration::from_millis(100);
const GIVE_UP: SimTime = SimTime::from_secs(600);
const STEADY: SimDuration = SimDuration::from_secs(30);

impl Classify for AstroNode {
    const BUCKETS: &'static [Bucket] = &[
        START,
        Bucket { name: "Gossip", path: Path::Astrolabe },
        Bucket { name: "timer.gossip", path: Path::Astrolabe },
        Bucket { name: "timer.other", path: Path::Other },
    ];
    fn msg_bucket(_: &GossipMsg) -> usize {
        1
    }
    fn timer_bucket(tag: u64) -> usize {
        if tag == 1 {
            2
        } else {
            3
        }
    }
}

/// One cold start to full membership plus the steady-state window.
pub fn run<M: Mode>(seed: u64, quick: bool) -> Result<Sample, String> {
    let n = if quick { NODES / 10 } else { NODES };
    let mut sw = Stopwatch::default();

    let mut sim = sw.time(Phase::Setup, || {
        let layout = ZoneLayout::new(n, BRANCHING);
        let mut config = Config::standard();
        config.branching = BRANCHING;
        config.delta_gossip = false;
        let mut contact_rng = fork(seed, 99);
        let mut sim: Simulation<M::Node<AstroNode>> =
            Simulation::new(NetworkModel::default(), seed);
        for i in 0..n {
            let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..n)).collect();
            sim.add_node(M::wrap(AstroNode::new(Agent::new(i, &layout, config.clone(), contacts))));
        }
        sim
    });

    let base = Baseline::start(&sim);
    let mut view = FullView::new(n);
    while view.pending() > 0 && sim.now() < GIVE_UP {
        let deadline = sim.now() + POLL;
        sw.time(Phase::Measure, || sim.run_until(deadline));
        view.poll(sim.now(), |i| &M::inner::<AstroNode>(sim.node(NodeId(i))).agent);
    }
    sw.time(Phase::Measure, || sim.run_for(STEADY));

    let mut s = Sample::default();
    finish::<M, AstroNode>(&mut s, "gossip_cold_start", &sim, &sw, &base, 0)?;

    let Some(converged_at) = view.all_at() else {
        return Err(format!(
            "gossip_cold_start: {} nodes lack the full view at {GIVE_UP}",
            view.pending()
        ));
    };
    let views = view.times_us();
    s.attempted = u64::from(n);
    s.failed = view.pending() as u64;
    s.set("converged_sim_s", converged_at.as_secs_f64());
    s.set("delivered_pct", 100.0 * views.len() as f64 / f64::from(n));
    s.set(
        "wire_bytes_per_delivery",
        ratio(sim.total_counters().bytes_sent as f64, views.len() as f64),
    );
    latency_metrics(&mut s, views);
    Ok(s)
}
