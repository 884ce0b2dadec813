//! The traced run: a wrapper node that times every callback into the system
//! under test, from the benchmark's side of the `simnet::Node` boundary.
//!
//! Nothing inside the crates is instrumented. [`Probe<N>`] implements
//! `Node` with `Msg = N::Msg`, delegates every trait method to the wrapped
//! node, and records a span around `on_start` / `on_message` / `on_timer`,
//! bucketed by message variant and timer tag ([`Classify`]). Buckets keep
//! count / total ns / max ns / message bytes per phase plus a fixed-stride
//! sample of raw spans, under the parent spans `run → setup | measure |
//! drain`. Time the engine spends outside callbacks is `simnet`'s own:
//! `self = phase wall − Σ callback time`.
//!
//! Workloads are generic over a [`Mode`]: timed runs instantiate them with
//! [`Bare`] (the node itself, no wrapper, no overhead), the traced run with
//! [`Traced`].

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::SmallRng;
use simnet::{
    Context, CorruptionOp, LiarAction, LiarMode, Node, NodeId, Payload, RestartMode, TimerId,
};

/// Which layer's code path a callback bucket enters first. A path's time
/// includes the layers it calls into (the forward path pays for cache
/// inserts and Bloom tests); the kernels give the pure-layer costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `astrolabe`: gossip messages and the gossip timer.
    Astrolabe,
    /// `amcast`: first-pass forwarding, acks, the drain and ack-timeout timers.
    Amcast,
    /// `newswire` slow path: repair and reconcile messages and their timers.
    Repair,
    /// `newswire` publish path: `PublishRequest` at the publisher.
    Publish,
    /// The workload's own node logic (the ring forwarder), not a layer.
    App,
    /// `on_start` and anything no path claims (e.g. `Rotate`).
    Other,
}

impl Path {
    fn name(self) -> &'static str {
        match self {
            Path::Astrolabe => "astrolabe",
            Path::Amcast => "amcast",
            Path::Repair => "newswire.repair",
            Path::Publish => "newswire.publish",
            Path::App => "app",
            Path::Other => "other",
        }
    }
}

/// One callback bucket: a message variant or a timer tag.
#[derive(Debug, Clone, Copy)]
pub struct Bucket {
    /// Variant or timer name, e.g. `Forward` or `timer.gossip`.
    pub name: &'static str,
    /// The path the bucket is attributed to.
    pub path: Path,
}

/// Bucket 0 of every node type: the `on_start` callback.
pub const START: Bucket = Bucket { name: "on_start", path: Path::Other };

/// Maps a node type's public message variants and timer tags to buckets.
pub trait Classify: Node {
    /// All buckets; index 0 must be [`START`].
    const BUCKETS: &'static [Bucket];
    /// Bucket index of an incoming message.
    fn msg_bucket(msg: &Self::Msg) -> usize;
    /// Bucket index of a timer tag.
    fn timer_bucket(tag: u64) -> usize;
}

/// The phases of one run; `measure` + `drain` together are the measured
/// phase that `wall_s` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the system and (NewsWire workloads) settling it.
    Setup = 0,
    /// Driving the workload's load.
    Measure = 1,
    /// Letting in-flight work finish after the last input.
    Drain = 2,
}

const PHASES: [&str; 3] = ["setup", "measure", "drain"];
const MAX_BUCKETS: usize = 24;
/// Every `SPAN_STRIDE`-th callback keeps its raw span.
const SPAN_STRIDE: u64 = 4096;

#[derive(Debug, Clone, Copy, Default)]
struct Stat {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    bytes: u64,
}

struct Recorder {
    epoch: Instant,
    phase: Phase,
    stats: [[Stat; MAX_BUCKETS]; 3],
    seen: u64,
    /// `(phase, bucket, start ns since epoch, duration ns)`.
    spans: Vec<(Phase, usize, u64, u64)>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        phase: Phase::Setup,
        stats: [[Stat::default(); MAX_BUCKETS]; 3],
        seen: 0,
        spans: Vec::new(),
    });
}

/// Switches the phase later callbacks are booked under. A no-op cost in
/// [`Bare`] runs, where no callback ever records.
pub fn set_phase(phase: Phase) {
    RECORDER.with(|r| r.borrow_mut().phase = phase);
}

fn record(bucket: usize, start: Instant, bytes: usize) {
    let ns = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        let s = &mut r.stats[r.phase as usize][bucket];
        s.count += 1;
        s.total_ns += ns;
        s.max_ns = s.max_ns.max(ns);
        s.bytes += bytes as u64;
        r.seen += 1;
        if r.seen % SPAN_STRIDE == 0 {
            let at = start.duration_since(r.epoch).as_nanos() as u64;
            r.spans.push((r.phase, bucket, at, ns));
        }
    });
}

/// Wraps a node and times every callback into it.
#[derive(Debug)]
pub struct Probe<N>(pub N);

impl<N: Classify> Node for Probe<N> {
    type Msg = N::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, N::Msg>) {
        let t = Instant::now();
        self.0.on_start(ctx);
        record(0, t, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, N::Msg>, from: NodeId, msg: N::Msg) {
        let bucket = N::msg_bucket(&msg);
        let bytes = msg.wire_size();
        let t = Instant::now();
        self.0.on_message(ctx, from, msg);
        record(bucket, t, bytes);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, N::Msg>, timer: TimerId, tag: u64) {
        let bucket = N::timer_bucket(tag);
        let t = Instant::now();
        self.0.on_timer(ctx, timer, tag);
        record(bucket, t, 0);
    }

    fn on_crash(&mut self) {
        self.0.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, N::Msg>) {
        self.0.on_recover(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, N::Msg>, mode: RestartMode) {
        self.0.on_restart(ctx, mode);
    }

    fn apply_corruption(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
        self.0.apply_corruption(op, rng)
    }

    fn tamper_outbound(
        &mut self,
        to: NodeId,
        msg: &mut N::Msg,
        mode: LiarMode,
        rng: &mut SmallRng,
    ) -> LiarAction {
        self.0.tamper_outbound(to, msg, mode, rng)
    }
}

/// How a workload's nodes are instantiated: bare, or wrapped in [`Probe`].
pub trait Mode {
    /// True for the traced run.
    const TRACED: bool;
    /// The node type the simulation holds.
    type Node<N: Classify>: Node<Msg = N::Msg>;
    /// Wraps (or passes through) a freshly built node.
    fn wrap<N: Classify>(node: N) -> Self::Node<N>;
    /// The system-under-test node inside.
    fn inner<N: Classify>(node: &Self::Node<N>) -> &N;
}

/// Timed runs: the node itself.
pub struct Bare;

impl Mode for Bare {
    const TRACED: bool = false;
    type Node<N: Classify> = N;
    fn wrap<N: Classify>(node: N) -> N {
        node
    }
    fn inner<N: Classify>(node: &N) -> &N {
        node
    }
}

/// The traced run: every node behind a [`Probe`].
pub struct Traced;

impl Mode for Traced {
    const TRACED: bool = true;
    type Node<N: Classify> = Probe<N>;
    fn wrap<N: Classify>(node: N) -> Probe<N> {
        Probe(node)
    }
    fn inner<N: Classify>(node: &Probe<N>) -> &N {
        &node.0
    }
}

/// What the traced run measured, summed over the measured phase
/// (`measure` + `drain`). The arrays are indexed by `Path as usize`.
#[derive(Debug, Default)]
pub struct PathTotals {
    secs: [f64; 6],
    calls: [u64; 6],
    bytes: [u64; 6],
    /// Callbacks into the gossip-timer bucket (`timer.gossip`), for the
    /// self-check against the `gossip_rounds` counter.
    pub gossip_timer_calls: u64,
}

impl PathTotals {
    /// Seconds booked to `path`.
    pub fn secs_of(&self, path: Path) -> f64 {
        self.secs[path as usize]
    }

    /// Callbacks booked to `path`.
    pub fn calls_of(&self, path: Path) -> u64 {
        self.calls[path as usize]
    }

    /// Bytes of the messages received on `path`.
    pub fn bytes_of(&self, path: Path) -> u64 {
        self.bytes[path as usize]
    }

    /// Seconds spent inside callbacks, all paths.
    pub fn callback_secs(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Sums the measured-phase buckets of node type `N` by path.
pub fn path_totals<N: Classify>() -> PathTotals {
    let mut t = PathTotals::default();
    RECORDER.with(|r| {
        let r = r.borrow();
        for phase in [Phase::Measure, Phase::Drain] {
            for (i, b) in N::BUCKETS.iter().enumerate() {
                let s = r.stats[phase as usize][i];
                t.secs[b.path as usize] += s.total_ns as f64 / 1e9;
                t.calls[b.path as usize] += s.count;
                t.bytes[b.path as usize] += s.bytes;
                if b.name == "timer.gossip" {
                    t.gossip_timer_calls += s.count;
                }
            }
        }
    });
    t
}

/// Renders the recorder as the `<workload>.trace.json` document: the parent
/// spans (host seconds per phase), every non-empty bucket per phase, and the
/// sampled raw spans.
pub fn trace_json<N: Classify>(workload: &str, phase_secs: [f64; 3]) -> String {
    assert!(N::BUCKETS.len() <= MAX_BUCKETS, "bucket table too large for the recorder");
    let mut s = String::new();
    let run: f64 = phase_secs.iter().sum();
    let _ = writeln!(s, "{{\n  \"workload\": \"{workload}\",");
    let _ = writeln!(s, "  \"spans\": [");
    let _ = writeln!(s, "    {{\"name\": \"run\", \"parent\": null, \"secs\": {run:.6}}},");
    for (i, name) in PHASES.iter().enumerate() {
        let comma = if i + 1 == PHASES.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"parent\": \"run\", \"secs\": {:.6}}}{comma}",
            phase_secs[i]
        );
    }
    let _ = writeln!(s, "  ],\n  \"buckets\": [");
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut rows = Vec::new();
        for (p, phase) in PHASES.iter().enumerate() {
            for (i, b) in N::BUCKETS.iter().enumerate() {
                let st = r.stats[p][i];
                if st.count > 0 {
                    rows.push(format!(
                        "    {{\"parent\": \"{phase}\", \"bucket\": \"{}\", \"path\": \"{}\", \
                         \"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"msg_bytes\": {}}}",
                        b.name,
                        b.path.name(),
                        st.count,
                        st.total_ns,
                        st.max_ns,
                        st.bytes
                    ));
                }
            }
        }
        let _ = writeln!(s, "{}", rows.join(",\n"));
        let _ = writeln!(s, "  ],\n  \"span_stride\": {SPAN_STRIDE},\n  \"sampled_spans\": [");
        let rows: Vec<String> = r
            .spans
            .iter()
            .map(|(phase, bucket, at, ns)| {
                format!(
                    "    {{\"parent\": \"{}\", \"bucket\": \"{}\", \"start_ns\": {at}, \"ns\": {ns}}}",
                    PHASES[*phase as usize],
                    N::BUCKETS[*bucket].name
                )
            })
            .collect();
        let _ = writeln!(s, "{}", rows.join(",\n"));
    });
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkModel, SimDuration, SimTime, Simulation};

    /// A toy node that uses every effect: sends, sets and cancels timers.
    #[derive(Debug, Default, PartialEq)]
    struct Toy {
        peer: u32,
        started: u32,
        got: Vec<(u32, u8)>,
        fired: Vec<u64>,
    }

    impl Node for Toy {
        type Msg = Vec<u8>;
        fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
            self.started += 1;
            ctx.set_timer(SimDuration::from_millis(3), 7);
            let doomed = ctx.set_timer(SimDuration::from_millis(4), 8);
            ctx.cancel_timer(doomed);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, from: NodeId, m: Vec<u8>) {
            self.got.push((from.0, m[0]));
            if m[0] > 0 {
                ctx.send(NodeId(self.peer), vec![m[0] - 1]);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _t: TimerId, tag: u64) {
            self.fired.push(tag);
            ctx.send(NodeId(self.peer), vec![3]);
        }
    }

    impl Classify for Toy {
        const BUCKETS: &'static [Bucket] = &[
            START,
            Bucket { name: "msg", path: Path::App },
            Bucket { name: "timer", path: Path::App },
        ];
        fn msg_bucket(_: &Vec<u8>) -> usize {
            1
        }
        fn timer_bucket(_: u64) -> usize {
            2
        }
    }

    fn drive<M: Mode>() -> (Vec<Toy>, u64, simnet::TrafficCounters) {
        let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(1)), 9);
        for i in 0..2u32 {
            sim.add_node(M::wrap(Toy { peer: 1 - i, ..Toy::default() }));
        }
        sim.schedule_external(SimTime::from_micros(1_000), NodeId(0), vec![5]);
        sim.run_until(SimTime::from_secs(1));
        let nodes = sim
            .iter()
            .map(|(_, n)| {
                let t = M::inner::<Toy>(n);
                Toy { peer: t.peer, started: t.started, got: t.got.clone(), fired: t.fired.clone() }
            })
            .collect();
        (nodes, sim.events_processed(), sim.total_counters())
    }

    #[test]
    fn probe_forwards_every_callback_and_effect_unchanged() {
        set_phase(Phase::Measure);
        let (bare, bare_events, bare_traffic) = drive::<Bare>();
        let (probed, probed_events, probed_traffic) = drive::<Traced>();
        assert_eq!(bare, probed);
        assert_eq!(bare_events, probed_events);
        assert_eq!(bare_traffic, probed_traffic);
        assert_eq!(bare[0].fired, vec![7], "the cancelled timer never fires");

        // Every callback of the probed run landed in its bucket.
        let t = path_totals::<Toy>();
        let msgs: u64 = bare.iter().map(|n| n.got.len() as u64).sum();
        let timers: u64 = bare.iter().map(|n| n.fired.len() as u64).sum();
        assert_eq!(t.calls_of(Path::App), msgs + timers);
        assert_eq!(t.calls_of(Path::Other), 2, "one on_start per node");
        let json = trace_json::<Toy>("toy", [0.0, 1.0, 0.0]);
        assert!(json.contains("\"bucket\": \"msg\""), "{json}");
    }
}
