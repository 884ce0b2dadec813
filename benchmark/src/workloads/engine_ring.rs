//! `engine_ring` — pure engine work.
//!
//! A ring of trivial forwarders passes one-byte tokens over microsecond
//! links. Every event is a message delivery whose handler does nothing but
//! decrement a counter and send, so `simnet` does all the work and
//! `astrolabe` / `amcast` / `newswire` do none: an engine change shows here
//! 1:1 and a protocol change must not move it. All tokens are in flight at
//! once, so the event queue runs as deep as the token count.
//!
//! From the seed: each token's start node, injection instant and hop count
//! (150..=250, mean 200), and the engine's own latency samples (links are
//! uniform 5..=15 µs, mean 10 µs).

use rand::Rng;
use simnet::{
    fork, Context, LatencyModel, NetworkModel, Node, NodeId, Payload, SimDuration, SimTime,
    Simulation, TimerId,
};

use super::{finish, latency_metrics, ratio, Baseline, Sample, Stopwatch};
use crate::probe::{Bucket, Classify, Mode, Path, Phase, START};

const NODES: u32 = 512;
const TOKENS: u32 = 4_096;
/// Tokens are injected uniformly over this window, far shorter than one trip.
const INJECT_WINDOW_US: u64 = 1_000;

/// A token: one byte on the wire. `born` is the harness's own stamp, like a
/// capture timestamp, so a trip can be timed without a side table.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    hops_left: u16,
    born: SimTime,
}

impl Payload for Token {
    fn wire_size(&self) -> usize {
        1
    }
}

/// A ring forwarder: passes a token on until its hops run out.
#[derive(Debug)]
pub struct Ring {
    next: NodeId,
    /// Simulated trip time (µs) of every token retired here.
    trips_us: Vec<u64>,
}

impl Node for Ring {
    type Msg = Token;
    fn on_start(&mut self, _ctx: &mut Context<'_, Token>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: NodeId, mut t: Token) {
        if t.hops_left > 0 {
            t.hops_left -= 1;
            ctx.send(self.next, t);
        } else {
            self.trips_us.push(ctx.now().saturating_since(t.born).as_micros());
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, Token>, _t: TimerId, _tag: u64) {}
}

impl Classify for Ring {
    const BUCKETS: &'static [Bucket] = &[START, Bucket { name: "Token", path: Path::App }];
    fn msg_bucket(_: &Token) -> usize {
        1
    }
    fn timer_bucket(_: u64) -> usize {
        0
    }
}

/// One set-up and one measured run to quiescence.
pub fn run<M: Mode>(seed: u64, quick: bool) -> Result<Sample, String> {
    let nodes = if quick { NODES / 10 } else { NODES };
    let tokens = if quick { TOKENS / 10 } else { TOKENS };
    let mut sw = Stopwatch::default();

    let (mut sim, expected_events, total_hops) = sw.time(Phase::Setup, || {
        let net = NetworkModel {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_micros(5),
                max: SimDuration::from_micros(15),
            },
            ..NetworkModel::ideal(SimDuration::ZERO)
        };
        let mut sim: Simulation<M::Node<Ring>> = Simulation::new(net, seed);
        for i in 0..nodes {
            sim.add_node(M::wrap(Ring { next: NodeId((i + 1) % nodes), trips_us: Vec::new() }));
        }
        let mut rng = fork(seed, 0x8196);
        let (mut events, mut hops_total) = (0u64, 0u64);
        for _ in 0..tokens {
            let hops: u16 = rng.gen_range(600..=1_000);
            let at = SimTime::from_micros(rng.gen_range(0..INJECT_WINDOW_US));
            let to = NodeId(rng.gen_range(0..nodes));
            sim.schedule_external(at, to, Token { hops_left: hops, born: at });
            events += u64::from(hops) + 1;
            hops_total += u64::from(hops);
        }
        (sim, events, hops_total)
    });

    let base = Baseline::start(&sim);
    sw.time(Phase::Measure, || sim.run_to_quiescence(u64::MAX));

    let mut s = Sample::default();
    finish::<M, Ring>(&mut s, "engine_ring", &sim, &sw, &base, 0)?;

    let trips: Vec<u64> =
        sim.iter().flat_map(|(_, n)| M::inner::<Ring>(n).trips_us.iter().copied()).collect();
    let (events, bytes) = (sim.events_processed(), sim.total_counters().bytes_sent);
    if (events, bytes) != (expected_events, total_hops) {
        return Err(format!(
            "engine_ring processed {events} events and sent {bytes} bytes; \
             its inputs imply {expected_events} and {total_hops}"
        ));
    }
    s.attempted = u64::from(tokens);
    s.failed = s.attempted - trips.len() as u64;
    s.set("converged_sim_s", sim.now().as_secs_f64());
    s.set("delivered_pct", 100.0 * trips.len() as f64 / f64::from(tokens));
    s.set("wire_bytes_per_delivery", ratio(bytes as f64, trips.len() as f64));
    latency_metrics(&mut s, trips);
    Ok(s)
}
