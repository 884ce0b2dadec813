//! # simnet — deterministic discrete-event network simulation
//!
//! `simnet` is the substrate on which the whole NewsWire reproduction runs.
//! The paper targets Internet-scale deployments; reproducing its claims on a
//! laptop requires a simulator that can model a wide-area network — latency
//! structure, message loss, partitions, node crashes — while running
//! hundreds of thousands of nodes deterministically on virtual time.
//!
//! The design is a classic event-driven simulation:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time.
//! * [`Node`] — the callback interface protocols implement
//!   (`on_start`/`on_message`/`on_timer`, plus crash/restart hooks).
//! * [`Disk`] / [`RestartMode`] — per-node simulated stable storage
//!   (write/fsync/read, every unsynced write lost on crash) and the three
//!   recovery regimes: `Freeze` (volatile state survives), `ColdDurable`
//!   (rebuild from disk), `ColdAmnesia` (rejoin from nothing).
//! * [`Simulation`] — the engine: events totally ordered by a
//!   `(time, node-derived key)` in one calendar queue ([`EventQueue`]:
//!   1 ms ring buckets, the cursor's bucket split into 1 µs slots, each
//!   microsecond's events sorted once), per-node
//!   deterministic RNG streams, traffic accounting; a run depends on
//!   nothing but the seed and the schedule.
//! * [`NetworkModel`] — pluggable latency ([`LatencyModel`]), loss,
//!   [`Partition`]s, per-node [`GrayProfile`] degradation, directed link
//!   cuts, and duplication/reordering knobs.
//! * [`FaultPlan`] — the chaos engine: declarative, seeded schedules of
//!   Poisson churn, gray brownouts, link cuts, partitions and message-chaos
//!   windows, plus the adversary's three primitives — Poisson corruption
//!   strikes ([`CorruptionSpec`], one [`CorruptionOp`] each), liar windows
//!   ([`LiarSpec`]) and colluder marks ([`CollusionSpec`]) — expanded
//!   deterministically by [`Simulation::apply_fault_plan`].
//! * [`Summary`] / [`TrafficCounters`] / [`FaultCounters`] — the
//!   measurement toolkit experiments use. The counters are views read from
//!   the per-simulation telemetry hub ([`Simulation::telemetry`]), the one
//!   place a counter lives; the registry plus the structured trace ring
//!   drain via [`Simulation::drain_telemetry`] into a deterministic
//!   JSON/CSV [`Telemetry`] timeline.
//!
//! # Example
//!
//! ```
//! use simnet::*;
//!
//! struct Counter { seen: u32 }
//! impl Node for Counter {
//!     type Msg = Vec<u8>;
//!     fn on_start(&mut self, _ctx: &mut Context<'_, Vec<u8>>) {}
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, _m: Vec<u8>) {
//!         self.seen += 1;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _t: TimerId, _tag: u64) {}
//! }
//!
//! let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(5)), 7);
//! let a = sim.add_node(Counter { seen: 0 });
//! sim.schedule_external(SimTime::from_secs(1), a, b"hello".to_vec());
//! sim.run_until(SimTime::from_secs(2));
//! assert_eq!(sim.node(a).seen, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod faults;
pub mod heap;
mod node;
mod rng;
mod sched;
mod sim;
mod stats;
mod time;
mod topology;

pub use disk::{Disk, RestartMode};
pub use faults::{
    ChurnSpec, CollusionSpec, CorruptionSpec, FaultPlan, GraySpec, LiarSpec, LinkCutSpec,
    MessageChaosSpec, PartitionSpec,
};
pub use node::{
    Context, CorruptionOp, LiarAction, LiarBehavior, LiarMode, Node, NodeId, Payload, TimerId,
};
pub use obs::{Telemetry, TelemetryHub};
pub use rng::{exp_sample, fork, splitmix64};
pub use sched::EventQueue;
pub use sim::Simulation;
pub use stats::{FaultCounters, Summary, TrafficCounters};
pub use time::{SimDuration, SimTime};
pub use topology::{DropCause, GrayProfile, LatencyModel, NetworkModel, Partition, RouteOutcome};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Quantiles are monotone in q and bounded by min/max.
        #[test]
        fn summary_quantiles_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s: Summary = samples.iter().copied().collect();
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let vals: Vec<f64> = qs.iter().map(|&q| s.quantile(q)).collect();
            prop_assert!(vals.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{vals:?}");
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(vals[0] >= lo - 1e-9 && vals[qs.len() - 1] <= hi + 1e-9);
        }

        /// SimTime/SimDuration arithmetic is consistent: (t + d) - t == d.
        #[test]
        fn time_add_sub_roundtrip(t_us in 0u64..1u64 << 50, d_us in 0u64..1u64 << 40) {
            let t = SimTime::from_micros(t_us);
            let d = SimDuration::from_micros(d_us);
            prop_assert_eq!((t + d) - t, d);
            prop_assert_eq!((t + d).saturating_since(t + d), SimDuration::ZERO);
        }

        /// fork() is a pure function of (seed, stream).
        #[test]
        fn fork_pure(seed in any::<u64>(), stream in any::<u64>()) {
            use rand::Rng;
            let a: [u64; 4] = {
                let mut r = fork(seed, stream);
                [r.gen(), r.gen(), r.gen(), r.gen()]
            };
            let b: [u64; 4] = {
                let mut r = fork(seed, stream);
                [r.gen(), r.gen(), r.gen(), r.gen()]
            };
            prop_assert_eq!(a, b);
        }

        /// The latency model never produces out-of-range samples.
        #[test]
        fn uniform_latency_in_bounds(lo_ms in 0u64..50, span_ms in 0u64..100, seed in any::<u64>()) {
            let min = SimDuration::from_millis(lo_ms);
            let max = SimDuration::from_millis(lo_ms + span_ms);
            let m = LatencyModel::Uniform { min, max };
            let mut rng = fork(seed, 0);
            for _ in 0..32 {
                let d = m.sample(NodeId(0), NodeId(1), &mut rng);
                prop_assert!(d >= min && d <= max);
            }
        }
    }
}
