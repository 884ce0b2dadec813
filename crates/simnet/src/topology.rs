//! Network models: latency, loss, partitions, and chaos knobs.
//!
//! The paper's target environment is the wide-area Internet, where nodes
//! cluster into regions (the same structure Astrolabe's zone hierarchy
//! mirrors). [`LatencyModel::ZonedWan`] captures that: cheap intra-region
//! links, expensive inter-region links. Uniform and constant models support
//! unit tests and micro-benchmarks.
//!
//! Beyond clean crash/recover and a global drop probability, the model
//! supports the *gray* failure modes that actually break large pub/sub
//! deployments: per-node degradation ([`GrayProfile`]: added latency,
//! elevated loss, send throttling), per-link asymmetric cuts, and message
//! duplication/reordering. All of it is sampled from the engine's network
//! RNG, so runs stay deterministic under the master seed; every new knob
//! draws randomness only when enabled, so legacy traces are bit-for-bit
//! unchanged when the chaos features are unconfigured.

use std::collections::{HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::node::NodeId;
use crate::time::SimDuration;

/// How point-to-point message latency is sampled.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Minimum one-way latency.
        min: SimDuration,
        /// Maximum one-way latency.
        max: SimDuration,
    },
    /// Region-structured WAN: intra-region links draw from `intra`,
    /// inter-region links from `inter` (both uniform ranges).
    ZonedWan {
        /// Region id of every node, indexed by `NodeId`.
        region_of: Vec<u32>,
        /// Latency range for links within one region.
        intra: (SimDuration, SimDuration),
        /// Latency range for links crossing regions.
        inter: (SimDuration, SimDuration),
    },
}

impl LatencyModel {
    /// A typical WAN defaults model: 5–25 ms within a region, 40–180 ms across.
    pub fn wan_defaults(region_of: Vec<u32>) -> Self {
        LatencyModel::ZonedWan {
            region_of,
            intra: (SimDuration::from_millis(5), SimDuration::from_millis(25)),
            inter: (SimDuration::from_millis(40), SimDuration::from_millis(180)),
        }
    }

    /// The smallest latency this model can ever produce, over every node
    /// pair. This is the sharded engine's conservative lookahead: a message
    /// sent at `t` can never arrive before `t + min_latency()`, because the
    /// gray/jitter/duplication knobs only *add* delay on top of the sample.
    pub fn min_latency(&self) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { min, .. } => *min,
            LatencyModel::ZonedWan { intra, inter, .. } => intra.0.min(inter.0),
        }
    }

    /// Samples the one-way latency from `from` to `to`.
    pub fn sample(&self, from: NodeId, to: NodeId, rng: &mut SmallRng) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { min, max } => sample_range(*min, *max, rng),
            LatencyModel::ZonedWan { region_of, intra, inter } => {
                let rf = region_of.get(from.index()).copied().unwrap_or(0);
                let rt = region_of.get(to.index()).copied().unwrap_or(0);
                let (lo, hi) = if rf == rt { *intra } else { *inter };
                sample_range(lo, hi, rng)
            }
        }
    }
}

fn sample_range(min: SimDuration, max: SimDuration, rng: &mut SmallRng) -> SimDuration {
    if min >= max {
        return min;
    }
    SimDuration::from_micros(rng.gen_range(min.as_micros()..=max.as_micros()))
}

/// A network partition: nodes are assigned to groups and messages crossing
/// groups are silently dropped, modelling a WAN cut.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    group_of: Vec<u32>,
}

impl Partition {
    /// Builds a partition from an explicit group assignment.
    pub fn new(group_of: Vec<u32>) -> Self {
        Partition { group_of }
    }

    /// Splits nodes `0..n` into two groups at `split`: `[0, split)` vs the rest.
    pub fn split_at(n: usize, split: usize) -> Self {
        Partition { group_of: (0..n).map(|i| u32::from(i >= split)).collect() }
    }

    /// True when a message from `a` to `b` crosses the cut.
    pub fn separates(&self, a: NodeId, b: NodeId) -> bool {
        let ga = self.group_of.get(a.index()).copied().unwrap_or(0);
        let gb = self.group_of.get(b.index()).copied().unwrap_or(0);
        ga != gb
    }
}

/// Per-node gray-failure degradation: the node is alive (its timers fire
/// and it processes what it receives) but slow and lossy — the failure mode
/// a crash detector misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayProfile {
    /// Added one-way latency on every link touching the node (applied on
    /// both its sends and its receives).
    pub extra_latency: SimDuration,
    /// Additional independent drop probability on links touching the node.
    pub extra_drop: f64,
    /// Probability a send is discarded at the node's own NIC before it ever
    /// reaches the wire (models an overloaded outbound queue).
    pub send_throttle: f64,
}

impl GrayProfile {
    /// A mild brownout: +200 ms each way, 10% extra loss, 20% send throttle.
    pub fn brownout() -> Self {
        GrayProfile {
            extra_latency: SimDuration::from_millis(200),
            extra_drop: 0.10,
            send_throttle: 0.20,
        }
    }

    /// A severe degradation: +2 s each way, 40% extra loss, 60% send throttle.
    pub fn severe() -> Self {
        GrayProfile {
            extra_latency: SimDuration::from_secs(2),
            extra_drop: 0.40,
            send_throttle: 0.60,
        }
    }
}

/// Why [`NetworkModel::route`] dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The active [`Partition`] separates sender and receiver.
    Partition,
    /// A per-link asymmetric cut is in force for this `(from, to)` pair.
    LinkCut,
    /// The global independent per-message drop probability fired.
    Loss,
    /// The sender's [`GrayProfile`] throttled or lost the message.
    GraySend,
    /// The receiver's [`GrayProfile`] lost the message.
    GrayRecv,
}

/// The fate of one message as decided by [`NetworkModel::route`].
#[derive(Debug, Clone, PartialEq)]
pub enum RouteOutcome {
    /// Deliver the message after `delay` — and, when it was duplicated in
    /// flight, a second copy after `duplicate`. `jittered` flags that
    /// reordering jitter inflated `delay`.
    Deliver {
        /// One-way delay of the message.
        delay: SimDuration,
        /// One-way delay of the in-flight duplicate, if there is one.
        duplicate: Option<SimDuration>,
        /// True when reordering jitter was added to `delay`.
        jittered: bool,
    },
    /// The message is lost; the cause feeds the fault counters.
    Drop(DropCause),
}

impl RouteOutcome {
    /// Convenience for tests: the primary copy's delay, if delivered.
    pub fn delay(&self) -> Option<SimDuration> {
        match self {
            RouteOutcome::Deliver { delay, .. } => Some(*delay),
            RouteOutcome::Drop(_) => None,
        }
    }
}

/// The complete network model the engine consults for every send.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Latency distribution.
    pub latency: LatencyModel,
    /// Independent per-message drop probability in `[0, 1)`.
    pub drop_prob: f64,
    /// Active partition, if any.
    pub partition: Option<Partition>,
    /// Probability a delivered message is duplicated in flight (the second
    /// copy samples its own independent latency).
    pub dup_prob: f64,
    /// Probability a delivered message gets extra reordering jitter.
    pub reorder_prob: f64,
    /// Maximum extra delay added when reordering jitter fires (uniform in
    /// `[0, reorder_jitter]`).
    pub reorder_jitter: SimDuration,
    /// Nodes currently degraded gray; consulted for both endpoints.
    pub gray: HashMap<NodeId, GrayProfile>,
    /// Directed link cuts: a `(from, to)` entry drops every message in that
    /// direction only — the asymmetric flaky-link case a symmetric
    /// [`Partition`] cannot express.
    pub cut_links: HashSet<(NodeId, NodeId)>,
}

impl NetworkModel {
    /// A lossless constant-latency network (useful for unit tests).
    pub fn ideal(latency: SimDuration) -> Self {
        NetworkModel {
            latency: LatencyModel::Constant(latency),
            drop_prob: 0.0,
            partition: None,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_jitter: SimDuration::ZERO,
            gray: HashMap::new(),
            cut_links: HashSet::new(),
        }
    }

    /// A region-structured lossy WAN.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is outside `[0, 1)`.
    pub fn wan(region_of: Vec<u32>, drop_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&drop_prob), "drop probability out of range");
        NetworkModel {
            latency: LatencyModel::wan_defaults(region_of),
            drop_prob,
            ..NetworkModel::default()
        }
    }

    /// The conservative lookahead bound for sharded execution: no message
    /// routed through this model is ever delivered sooner than this after
    /// its send (see [`LatencyModel::min_latency`]).
    pub fn min_latency(&self) -> SimDuration {
        self.latency.min_latency()
    }

    /// Decides the fate of one message.
    ///
    /// Checks, in order: partition, directed link cuts, the sender's gray
    /// throttle, the global drop probability, gray loss at either endpoint;
    /// survivors sample a latency (inflated by gray latency at both ends),
    /// optionally pick up reordering jitter, and are optionally duplicated.
    /// Every chaos knob draws randomness only when enabled, so a model with
    /// the knobs at rest consumes exactly the RNG sequence the pre-chaos
    /// engine did.
    pub fn route(&self, from: NodeId, to: NodeId, rng: &mut SmallRng) -> RouteOutcome {
        if let Some(p) = &self.partition {
            if p.separates(from, to) {
                return RouteOutcome::Drop(DropCause::Partition);
            }
        }
        if !self.cut_links.is_empty() && self.cut_links.contains(&(from, to)) {
            return RouteOutcome::Drop(DropCause::LinkCut);
        }
        let gray_from = self.gray.get(&from).copied();
        let gray_to = self.gray.get(&to).copied();
        if let Some(g) = gray_from {
            if g.send_throttle > 0.0 && rng.gen::<f64>() < g.send_throttle {
                return RouteOutcome::Drop(DropCause::GraySend);
            }
        }
        if self.drop_prob > 0.0 && rng.gen::<f64>() < self.drop_prob {
            return RouteOutcome::Drop(DropCause::Loss);
        }
        if let Some(g) = gray_from {
            if g.extra_drop > 0.0 && rng.gen::<f64>() < g.extra_drop {
                return RouteOutcome::Drop(DropCause::GraySend);
            }
        }
        if let Some(g) = gray_to {
            if g.extra_drop > 0.0 && rng.gen::<f64>() < g.extra_drop {
                return RouteOutcome::Drop(DropCause::GrayRecv);
            }
        }
        let gray_extra = gray_from.map_or(SimDuration::ZERO, |g| g.extra_latency)
            + gray_to.map_or(SimDuration::ZERO, |g| g.extra_latency);
        let mut delay = self.latency.sample(from, to, rng) + gray_extra;
        let mut jittered = false;
        if self.reorder_prob > 0.0 && rng.gen::<f64>() < self.reorder_prob {
            delay = delay + sample_range(SimDuration::ZERO, self.reorder_jitter, rng);
            jittered = true;
        }
        let duplicate = (self.dup_prob > 0.0 && rng.gen::<f64>() < self.dup_prob)
            .then(|| self.latency.sample(from, to, rng) + gray_extra);
        RouteOutcome::Deliver { delay, duplicate, jittered }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::ideal(SimDuration::from_millis(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fork;

    #[test]
    fn constant_latency() {
        let m = LatencyModel::Constant(SimDuration::from_millis(7));
        let mut rng = fork(1, 0);
        assert_eq!(m.sample(NodeId(0), NodeId(1), &mut rng), SimDuration::from_millis(7));
    }

    #[test]
    fn uniform_latency_in_range() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_millis(5),
            max: SimDuration::from_millis(10),
        };
        let mut rng = fork(2, 0);
        for _ in 0..100 {
            let d = m.sample(NodeId(0), NodeId(1), &mut rng);
            assert!(d >= SimDuration::from_millis(5) && d <= SimDuration::from_millis(10));
        }
    }

    #[test]
    fn zoned_wan_prefers_local() {
        let m = LatencyModel::wan_defaults(vec![0, 0, 1]);
        let mut rng = fork(3, 0);
        for _ in 0..50 {
            let local = m.sample(NodeId(0), NodeId(1), &mut rng);
            let remote = m.sample(NodeId(0), NodeId(2), &mut rng);
            assert!(local <= SimDuration::from_millis(25));
            assert!(remote >= SimDuration::from_millis(40));
        }
    }

    #[test]
    fn partition_separates() {
        let p = Partition::split_at(4, 2);
        assert!(p.separates(NodeId(0), NodeId(2)));
        assert!(!p.separates(NodeId(0), NodeId(1)));
        assert!(!p.separates(NodeId(2), NodeId(3)));
    }

    #[test]
    fn route_applies_partition_and_loss() {
        let mut m = NetworkModel::ideal(SimDuration::from_millis(1));
        m.partition = Some(Partition::split_at(2, 1));
        let mut rng = fork(4, 0);
        assert_eq!(
            m.route(NodeId(0), NodeId(1), &mut rng),
            RouteOutcome::Drop(DropCause::Partition)
        );

        let mut lossy = NetworkModel::ideal(SimDuration::from_millis(1));
        lossy.drop_prob = 0.5;
        let delivered = (0..1000)
            .filter(|_| lossy.route(NodeId(0), NodeId(0), &mut rng).delay().is_some())
            .count();
        assert!((350..650).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn asymmetric_link_cut_drops_one_direction_only() {
        let mut m = NetworkModel::ideal(SimDuration::from_millis(1));
        m.cut_links.insert((NodeId(0), NodeId(1)));
        let mut rng = fork(5, 0);
        assert_eq!(m.route(NodeId(0), NodeId(1), &mut rng), RouteOutcome::Drop(DropCause::LinkCut));
        assert!(m.route(NodeId(1), NodeId(0), &mut rng).delay().is_some());
    }

    #[test]
    fn duplication_and_reordering_are_sound() {
        // Duplicated messages deliver >1 copy, each with a latency the base
        // model could have produced; jitter only ever adds delay.
        let mut m = NetworkModel::ideal(SimDuration::from_millis(10));
        m.dup_prob = 0.5;
        m.reorder_prob = 0.5;
        m.reorder_jitter = SimDuration::from_millis(30);
        let mut rng = fork(6, 0);
        let (mut dups, mut jitters) = (0u32, 0u32);
        for _ in 0..2000 {
            match m.route(NodeId(0), NodeId(1), &mut rng) {
                RouteOutcome::Deliver { delay, duplicate, jittered } => {
                    if let Some(copy) = duplicate {
                        dups += 1;
                        // The duplicate copy is un-jittered base latency.
                        assert_eq!(copy, SimDuration::from_millis(10));
                    }
                    if jittered {
                        jitters += 1;
                        assert!(delay >= SimDuration::from_millis(10));
                        assert!(delay <= SimDuration::from_millis(40));
                    } else {
                        assert_eq!(delay, SimDuration::from_millis(10));
                    }
                }
                RouteOutcome::Drop(c) => panic!("lossless model dropped: {c:?}"),
            }
        }
        assert!((700..1300).contains(&dups), "dups {dups}");
        assert!((700..1300).contains(&jitters), "jitters {jitters}");
    }

    #[test]
    fn gray_profile_slows_and_throttles() {
        let mut m = NetworkModel::ideal(SimDuration::from_millis(10));
        m.gray.insert(
            NodeId(0),
            GrayProfile {
                extra_latency: SimDuration::from_millis(500),
                extra_drop: 0.0,
                send_throttle: 0.5,
            },
        );
        let mut rng = fork(7, 0);
        let (mut throttled, mut delivered) = (0u32, 0u32);
        for _ in 0..1000 {
            match m.route(NodeId(0), NodeId(1), &mut rng) {
                RouteOutcome::Drop(DropCause::GraySend) => throttled += 1,
                RouteOutcome::Deliver { delay, .. } => {
                    delivered += 1;
                    assert_eq!(delay, SimDuration::from_millis(510));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((350..650).contains(&throttled), "throttled {throttled}");
        // The gray node still receives slowly (receiver-side latency).
        match m.route(NodeId(1), NodeId(0), &mut rng) {
            RouteOutcome::Deliver { delay, .. } => {
                assert_eq!(delay, SimDuration::from_millis(510));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(delivered > 0);
    }

    #[test]
    fn chaos_knobs_at_rest_preserve_legacy_rng_sequence() {
        // With every chaos knob unconfigured, the RNG draw sequence must be
        // identical to the pre-chaos model: [drop draw if enabled, latency].
        let legacy = |rng: &mut SmallRng| {
            // The historical implementation, inlined.
            let drop_prob = 0.3;
            if rng.gen::<f64>() < drop_prob {
                return None;
            }
            Some(sample_range(SimDuration::from_millis(5), SimDuration::from_millis(25), rng))
        };
        let mut m = NetworkModel::ideal(SimDuration::ZERO);
        m.drop_prob = 0.3;
        m.latency = LatencyModel::Uniform {
            min: SimDuration::from_millis(5),
            max: SimDuration::from_millis(25),
        };
        let mut a = fork(8, 0);
        let mut b = fork(8, 0);
        for _ in 0..500 {
            assert_eq!(m.route(NodeId(0), NodeId(1), &mut a).delay(), legacy(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wan_rejects_bad_drop_prob() {
        let _ = NetworkModel::wan(vec![0], 1.5);
    }
}
