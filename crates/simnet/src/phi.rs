//! Phi-accrual failure detection (Hayashibara et al., SRDS 2004).
//!
//! A boolean timeout collapses the rich signal "how late is this peer,
//! relative to how it usually behaves" into a single cliff. The phi-accrual
//! detector instead keeps a sliding window of observed heartbeat
//! inter-arrival times and reports a continuous *suspicion level*
//!
//! ```text
//! phi(t) = -log10( P(next heartbeat arrives later than t) )
//! ```
//!
//! under a normal model of the inter-arrival distribution. phi = 1 means a
//! ~10% chance the peer is merely slow, phi = 3 a ~0.1% chance. Callers pick
//! a threshold per use: aggressive for retransmit scheduling, conservative
//! for eviction. Crucially, a gray-degraded peer whose heartbeats slow down
//! *gradually raises* phi instead of flapping across a fixed TTL.
//!
//! The normal tail probability uses the logistic approximation
//! `1 - CDF(y) ≈ 1 / (1 + e^(y·(1.5976 + 0.070566·y²)))`, accurate to a few
//! percent over the range that matters and monotone in `y`, which keeps phi
//! strictly increasing while a peer stays silent.
//!
//! Detectors live in a [`PhiBank`]: one owner (an agent's zone table, a
//! node's peer set) monitors many peers under one tuning, so the bank keeps
//! one [`PhiConfig`], one dense array of per-peer slots and one ring of
//! integer-microsecond samples. A detector never owns an allocation.

use crate::time::{SimDuration, SimTime};

/// Tuning for a [`PhiBank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiConfig {
    /// Sliding window of inter-arrival samples to model.
    pub window: usize,
    /// Suspicion threshold: `phi >= threshold` means "suspect".
    pub threshold: f64,
    /// Assumed inter-arrival until the first real sample arrives.
    pub first_interval: SimDuration,
    /// Stddev floor, so a metronomically regular peer is not suspected the
    /// microsecond it slips (simulated gossip can be exactly periodic). The
    /// effective floor is the larger of this and a quarter of the observed
    /// mean interval, keeping tolerance proportional to cadence.
    pub min_stddev: SimDuration,
}

impl Default for PhiConfig {
    fn default() -> Self {
        PhiConfig {
            window: 64,
            threshold: 8.0,
            first_interval: SimDuration::from_secs(2),
            min_stddev: SimDuration::from_millis(200),
        }
    }
}

/// Ring entry standing for an interval that does not fit 32 bits (a peer
/// heard again after more than ~71 minutes of silence — simulated days do
/// produce these). The exact value is kept in [`PhiBank::wide`].
const WIDE: u32 = u32::MAX;

/// The detector state of one monitored peer.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Instant (µs) of the most recent heartbeat; meaningful when `tracked`.
    last_us: u64,
    /// Conservative elapsed bound (µs since `last_us`) below which phi
    /// provably stays under the threshold — recomputed on each heartbeat so
    /// [`PhiBank::is_suspect`] is a single integer compare for a healthy
    /// peer. Callers sweep every monitored row every round; the full
    /// transcendental phi only runs once a peer is genuinely late.
    safe_elapsed_us: u64,
    sum: f64,
    sum_sq: f64,
    /// Ring position the next sample is written to; once the window is
    /// full that is also where the oldest sample sits.
    next: u16,
    /// Samples currently modeled (`<= window`).
    len: u16,
    /// False until the first heartbeat, and again after [`PhiBank::clear`].
    tracked: bool,
}

const UNTRACKED: Slot =
    Slot { last_us: 0, safe_elapsed_us: 0, sum: 0.0, sum_sq: 0.0, next: 0, len: 0, tracked: false };

impl Slot {
    /// Windowed (mean, stddev) of inter-arrivals in µs, with the configured
    /// floors applied.
    fn model(&self, config: &PhiConfig) -> (f64, f64) {
        if self.len == 0 {
            let first = config.first_interval.as_micros() as f64;
            return (first, (config.min_stddev.as_micros() as f64).max(first / 4.0));
        }
        let n = f64::from(self.len);
        let mean = self.sum / n;
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        let floor = (config.min_stddev.as_micros() as f64).max(mean / 4.0);
        (mean, var.sqrt().max(floor))
    }

    fn phi(&self, config: &PhiConfig, now: SimTime) -> f64 {
        let elapsed = now.as_micros().saturating_sub(self.last_us) as f64;
        let (mean, stddev) = self.model(config);
        let y = (elapsed - mean) / stddev;
        // -log10 of the logistic tail approximation, computed in a form
        // stable for large y (where 1 - CDF underflows).
        let e = y * (1.5976 + 0.070566 * y * y);
        if e > 0.0 {
            // tail = exp(-e) / (1 + exp(-e))
            (std::f64::consts::LOG10_E * e) + (1.0 + (-e).exp()).log10()
        } else {
            // tail = 1 / (1 + exp(e))
            (1.0 + e.exp()).log10()
        }
    }

    /// Largest elapsed time (µs) for which phi provably stays below the
    /// threshold under the current model.
    ///
    /// With `y = (elapsed - mean) / stddev` and `e(y) = y·(1.5976 +
    /// 0.070566·y²)` increasing in `y`: for `e ≤ 0`, `phi ≤ log10 2`; for
    /// `e ≥ 0`, `phi ≤ LOG10_E·e + log10 2`. So phi stays under the
    /// threshold while `e < e_need = (threshold − log10 2)·ln 10`, and in
    /// particular while `y < y_safe = e_need / (1.5976 + 0.070566·c²)` for
    /// `c = e_need / 1.5976` (since `e(c) ≥ e_need` forces `y_safe ≤
    /// e⁻¹(e_need)`). Truncation to integer µs only tightens the bound.
    fn safe_elapsed(&self, config: &PhiConfig) -> u64 {
        let e_need = (config.threshold - std::f64::consts::LOG10_2) * std::f64::consts::LN_10;
        if e_need <= 0.0 {
            return 0;
        }
        let c = e_need / 1.5976;
        let y_safe = e_need / (1.5976 + 0.070566 * c * c);
        let (mean, stddev) = self.model(config);
        (mean + y_safe * stddev).max(0.0) as u64
    }
}

/// Phi-accrual failure detectors for the peers of one owner, addressed by a
/// dense slot index the owner assigns (a row label, a peer's position in a
/// map). Stored as columns: the tuning once, one 40-byte slot per peer, and one
/// ring allocation of `slots × window` inter-arrival samples in whole
/// microseconds — the clock's own unit, so 32-bit entries lose nothing.
///
/// An empty bank allocates nothing. An owner that knows its fan-out states
/// it with [`PhiBank::grow_to`] and pays for precisely that many detectors
/// in two allocations; a heartbeat for a slot past the end grows the bank
/// the way `Vec::push` would.
#[derive(Debug, Clone)]
pub struct PhiBank {
    config: PhiConfig,
    slots: Vec<Slot>,
    /// Slot `s` owns cells `s * window ..` for `window` entries.
    ring: Vec<u32>,
    /// `(ring cell, µs)` of the samples the ring marks [`WIDE`].
    wide: Vec<(usize, u64)>,
}

impl PhiBank {
    /// Creates an empty bank with the given tuning. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or exceeds `u16::MAX` samples, or the
    /// threshold is not positive.
    pub fn new(config: PhiConfig) -> Self {
        assert!(config.window > 0, "phi window must be non-empty");
        assert!(config.window <= usize::from(u16::MAX), "phi window must fit 16 bits");
        assert!(config.threshold > 0.0, "phi threshold must be positive");
        PhiBank { config, slots: Vec::new(), ring: Vec::new(), wide: Vec::new() }
    }

    /// True when the bank holds no slots (and so owns no memory).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes the bank owns, for memory accounting: slots × (one slot
    /// record + `window` 4-byte samples) when [`PhiBank::grow_to`] sized it
    /// and no over-wide sample is on record.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.ring.capacity() * std::mem::size_of::<u32>()
            + self.wide.capacity() * std::mem::size_of::<(usize, u64)>()
    }

    /// Grows the bank to `slots` slots (the new ones untracked) without
    /// reserving anything beyond them. Never shrinks.
    pub fn grow_to(&mut self, slots: usize) {
        if let Some(more) = slots.checked_sub(self.slots.len()) {
            self.slots.reserve_exact(more);
            self.ring.reserve_exact(more * self.config.window);
            self.resize(slots);
        }
    }

    fn resize(&mut self, slots: usize) {
        self.slots.resize(slots, UNTRACKED);
        self.ring.resize(slots * self.config.window, 0);
    }

    /// Records a heartbeat (any sign of life) from the peer in `slot` at
    /// `now`, growing the bank to reach `slot` if need be. Out-of-order
    /// arrivals (at or before the last one) refresh nothing.
    pub fn heartbeat(&mut self, slot: usize, now: SimTime) {
        if slot >= self.slots.len() {
            self.resize(slot + 1);
        }
        let now_us = now.as_micros();
        let s = self.slots[slot];
        if s.tracked {
            if now_us <= s.last_us {
                return;
            }
            self.push_interval(slot, now_us - s.last_us);
        }
        let s = &mut self.slots[slot];
        s.tracked = true;
        s.last_us = now_us;
        s.safe_elapsed_us = s.safe_elapsed(&self.config);
    }

    /// The suspicion level of `slot` at `now`: `None` before its first
    /// heartbeat (an unobserved peer is unknown, not dead), zero at the
    /// instant of an arrival, growing without bound while the peer stays
    /// silent.
    pub fn phi(&self, slot: usize, now: SimTime) -> Option<f64> {
        self.tracked(slot).map(|s| s.phi(&self.config, now))
    }

    /// True when the suspicion level has crossed the configured threshold.
    /// Equivalent to `phi(slot, now) >= Some(threshold)`, but a healthy
    /// (not-yet-late) peer is cleared by one integer compare against a
    /// precomputed bound.
    pub fn is_suspect(&self, slot: usize, now: SimTime) -> bool {
        self.tracked(slot).is_some_and(|s| {
            now.as_micros().saturating_sub(s.last_us) >= s.safe_elapsed_us
                && s.phi(&self.config, now) >= self.config.threshold
        })
    }

    /// Forgets all history of `slot` (the monitored peer was evicted or
    /// deliberately restarted); it reads as never observed until its next
    /// heartbeat.
    pub fn clear(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = UNTRACKED;
            let cells = slot * self.config.window..(slot + 1) * self.config.window;
            self.wide.retain(|(cell, _)| !cells.contains(cell));
        }
    }

    /// [`PhiBank::clear`] for every slot, keeping the allocations.
    pub fn clear_all(&mut self) {
        self.slots.fill(UNTRACKED);
        self.wide.clear();
    }

    fn tracked(&self, slot: usize) -> Option<&Slot> {
        self.slots.get(slot).filter(|s| s.tracked)
    }

    fn push_interval(&mut self, slot: usize, us: u64) {
        let window = self.config.window;
        let s = &mut self.slots[slot];
        let cell = slot * window + usize::from(s.next);
        if usize::from(s.len) == window {
            let old = match self.ring[cell] {
                WIDE => {
                    let at = self.wide.iter().position(|&(c, _)| c == cell);
                    self.wide.swap_remove(at.expect("a WIDE cell has its value on record")).1
                }
                narrow => u64::from(narrow),
            } as f64;
            s.sum -= old;
            s.sum_sq -= old * old;
        } else {
            s.len += 1;
        }
        self.ring[cell] = match u32::try_from(us) {
            Ok(narrow) if narrow != WIDE => narrow,
            _ => {
                self.wide.push((cell, us));
                WIDE
            }
        };
        s.next = ((usize::from(s.next) + 1) % window) as u16;
        let us = us as f64;
        s.sum += us;
        s.sum_sq += us * us;
    }
}

/// The detector [`PhiBank`] replaced, one heap-allocated `f64` window per
/// peer: kept as the model the bank must agree with bit for bit.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::PhiConfig;
    use crate::time::SimTime;

    #[derive(Debug, Clone)]
    pub struct PhiAccrualDetector {
        config: PhiConfig,
        intervals_us: VecDeque<f64>,
        sum: f64,
        sum_sq: f64,
        last_arrival: Option<SimTime>,
        safe_elapsed_us: u64,
    }

    impl PhiAccrualDetector {
        pub fn new(config: PhiConfig) -> Self {
            assert!(config.window > 0, "phi window must be non-empty");
            assert!(config.threshold > 0.0, "phi threshold must be positive");
            PhiAccrualDetector {
                config,
                intervals_us: VecDeque::with_capacity(config.window),
                sum: 0.0,
                sum_sq: 0.0,
                last_arrival: None,
                safe_elapsed_us: 0,
            }
        }

        pub fn heartbeat(&mut self, now: SimTime) {
            match self.last_arrival {
                None => {
                    self.last_arrival = Some(now);
                    self.safe_elapsed_us = self.safe_elapsed();
                }
                Some(last) if now > last => {
                    self.push_interval(now.since(last).as_micros() as f64);
                    self.last_arrival = Some(now);
                    self.safe_elapsed_us = self.safe_elapsed();
                }
                Some(_) => {}
            }
        }

        pub fn phi(&self, now: SimTime) -> f64 {
            let Some(last) = self.last_arrival else {
                return 0.0;
            };
            let elapsed = now.saturating_since(last).as_micros() as f64;
            let (mean, stddev) = self.model();
            let y = (elapsed - mean) / stddev;
            let e = y * (1.5976 + 0.070566 * y * y);
            if e > 0.0 {
                (std::f64::consts::LOG10_E * e) + (1.0 + (-e).exp()).log10()
            } else {
                (1.0 + e.exp()).log10()
            }
        }

        pub fn is_suspect(&self, now: SimTime) -> bool {
            if let Some(last) = self.last_arrival {
                if now.saturating_since(last).as_micros() < self.safe_elapsed_us {
                    return false;
                }
            }
            self.phi(now) >= self.config.threshold
        }

        fn safe_elapsed(&self) -> u64 {
            let e_need =
                (self.config.threshold - std::f64::consts::LOG10_2) * std::f64::consts::LN_10;
            if e_need <= 0.0 {
                return 0;
            }
            let c = e_need / 1.5976;
            let y_safe = e_need / (1.5976 + 0.070566 * c * c);
            let (mean, stddev) = self.model();
            (mean + y_safe * stddev).max(0.0) as u64
        }

        fn push_interval(&mut self, us: f64) {
            if self.intervals_us.len() == self.config.window {
                let old = self.intervals_us.pop_front().expect("window non-empty");
                self.sum -= old;
                self.sum_sq -= old * old;
            }
            self.intervals_us.push_back(us);
            self.sum += us;
            self.sum_sq += us * us;
        }

        fn model(&self) -> (f64, f64) {
            if self.intervals_us.is_empty() {
                let first = self.config.first_interval.as_micros() as f64;
                return (first, (self.config.min_stddev.as_micros() as f64).max(first / 4.0));
            }
            let n = self.intervals_us.len() as f64;
            let mean = self.sum / n;
            let var = (self.sum_sq / n - mean * mean).max(0.0);
            let floor = (self.config.min_stddev.as_micros() as f64).max(mean / 4.0);
            (mean, var.sqrt().max(floor))
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::reference::PhiAccrualDetector;
    use super::*;

    /// A one-slot bank fed `beats` heartbeats `period_s` apart.
    fn fed(period_s: u64, beats: u64) -> (PhiBank, SimTime) {
        let mut d = PhiBank::new(PhiConfig::default());
        let mut now = SimTime::ZERO;
        for i in 0..beats {
            now = SimTime::from_secs(i * period_s);
            d.heartbeat(0, now);
        }
        (d, now)
    }

    #[test]
    fn phi_rises_monotonically_without_heartbeats() {
        let (d, last) = fed(2, 20);
        let mut prev = -1.0;
        for k in 0..200 {
            let phi = d.phi(0, last + SimDuration::from_millis(200 * k)).unwrap();
            assert!(phi >= prev, "phi regressed at step {k}: {phi} < {prev}");
            prev = phi;
        }
        // And it grows without bound: far past the mean it is decisive.
        assert!(d.phi(0, last + SimDuration::from_secs(60)) > Some(16.0));
    }

    #[test]
    fn phi_resets_on_arrival() {
        let (mut d, last) = fed(2, 20);
        let late = last + SimDuration::from_secs(30);
        assert!(d.is_suspect(0, late));
        d.heartbeat(0, late);
        assert!(d.phi(0, late) < Some(0.5));
        assert!(!d.is_suspect(0, late + SimDuration::from_secs(1)));
    }

    #[test]
    fn fresh_detector_is_not_suspicious() {
        let mut d = PhiBank::new(PhiConfig::default());
        assert!(d.is_empty());
        assert_eq!(d.phi(0, SimTime::from_secs(1000)), None);
        assert!(!d.is_suspect(0, SimTime::from_secs(1000)));
        // The same holds for a slot that exists but was never fed.
        d.grow_to(4);
        assert_eq!((d.slots.len(), d.slots.capacity(), d.ring.capacity()), (4, 4, 4 * 64));
        assert_eq!(d.heap_bytes(), 4 * (std::mem::size_of::<Slot>() + 64 * 4));
        assert_eq!(d.phi(3, SimTime::from_secs(1000)), None);
        assert!(!d.is_suspect(3, SimTime::from_secs(1000)));
    }

    #[test]
    #[should_panic(expected = "phi window must be non-empty")]
    fn an_empty_window_is_refused() {
        PhiBank::new(PhiConfig { window: 0, ..PhiConfig::default() });
    }

    #[test]
    #[should_panic(expected = "phi threshold must be positive")]
    fn a_zero_threshold_is_refused() {
        PhiBank::new(PhiConfig { threshold: 0.0, ..PhiConfig::default() });
    }

    #[test]
    fn first_heartbeat_uses_configured_estimate() {
        let mut d = PhiBank::new(PhiConfig {
            first_interval: SimDuration::from_secs(1),
            ..PhiConfig::default()
        });
        d.heartbeat(0, SimTime::ZERO);
        assert!(d.phi(0, SimTime::from_micros(500_000)) < Some(1.0));
        assert!(d.phi(0, SimTime::from_secs(20)) > Some(PhiConfig::default().threshold));
    }

    #[test]
    fn regular_peer_tolerated_at_its_own_cadence() {
        // A peer gossiping every 5s must not be suspected 6s in, even though
        // a 2s-period peer at 6s would look very late.
        let (slow, last) = fed(5, 30);
        assert!(slow.phi(0, last + SimDuration::from_secs(6)) < Some(2.0));
        let (fast, last_fast) = fed(1, 30);
        assert!(fast.phi(0, last_fast + SimDuration::from_secs(6)) > Some(8.0));
    }

    #[test]
    fn gray_slowdown_raises_phi_gradually() {
        let (mut d, mut now) = fed(2, 30);
        // The peer degrades: heartbeats now every 8s. Suspicion appears in
        // between but never saturates the way silence does.
        let mut peak: f64 = 0.0;
        for _ in 0..10 {
            now += SimDuration::from_secs(8);
            peak = peak.max(d.phi(0, now).unwrap());
            d.heartbeat(0, now);
        }
        assert!(peak > 1.0, "slowdown should raise suspicion, got {peak}");
        // After adapting to the new cadence, the same lateness alarms less.
        let adapted = d.phi(0, now + SimDuration::from_secs(8)).unwrap();
        assert!(adapted < peak, "window should adapt: {adapted} vs {peak}");
    }

    #[test]
    fn out_of_order_heartbeats_ignored() {
        let (mut d, last) = fed(2, 5);
        let before = d.slots[0];
        d.heartbeat(0, SimTime::ZERO);
        d.heartbeat(0, last);
        assert_eq!(d.slots[0].len, before.len);
        assert_eq!(d.slots[0].last_us, last.as_micros());
    }

    #[test]
    fn window_is_bounded() {
        let mut d = PhiBank::new(PhiConfig { window: 8, ..PhiConfig::default() });
        for i in 0..100 {
            d.heartbeat(0, SimTime::from_secs(i));
        }
        assert_eq!(d.slots[0].len, 8);
        assert_eq!(d.ring.len(), 8);
    }

    #[test]
    fn fast_path_agrees_with_exact_phi() {
        // The precomputed safe-elapsed bound must never flip a decision:
        // sweep a dense grid across the suspicion boundary.
        let (d, last) = fed(2, 20);
        for k in 0..600u64 {
            let t = last + SimDuration::from_millis(50 * k);
            let exact = d.phi(0, t) >= Some(PhiConfig::default().threshold);
            assert_eq!(d.is_suspect(0, t), exact, "diverged at step {k}");
        }
    }

    #[test]
    fn clear_forgets_history() {
        let (mut d, last) = fed(2, 20);
        d.heartbeat(1, last);
        d.clear(0);
        assert_eq!(d.phi(0, last + SimDuration::from_secs(100)), None);
        assert!(d.phi(1, last).is_some(), "clearing one slot leaves its neighbours alone");
        d.clear_all();
        assert_eq!(d.phi(1, last), None);
        assert_eq!(d.slots.len(), 2, "clearing keeps the slots");
    }

    #[test]
    fn slot_stays_within_its_size_budget() {
        assert!(std::mem::size_of::<Slot>() <= 40, "{}", std::mem::size_of::<Slot>());
    }

    /// One step of the differential test below.
    #[derive(Debug, Clone)]
    enum Step {
        /// Advance the clock by this many µs (0 = an equal-time arrival),
        /// then heartbeat the slot.
        Beat(usize, u64),
        /// Heartbeat the slot with a timestamp this far in the past.
        Stale(usize, u64),
        Clear(usize),
        /// Advance the clock, then compare every slot against the model.
        Probe(u64),
    }

    const SLOTS: usize = 5;

    fn step() -> impl Strategy<Value = Step> {
        // Gaps on both sides of 2^32 µs: same-instant, gossip-cadence,
        // minutes, just under / exactly at / just over the 32-bit edge, and
        // far past it.
        let gap = || {
            prop_oneof![
                Just(0u64),
                1u64..5_000_000,
                1u64..600_000_000,
                (u64::from(u32::MAX) - 3)..(u64::from(u32::MAX) + 4),
                (1u64 << 32)..(1u64 << 40),
            ]
        };
        prop_oneof![
            (0..SLOTS, gap()).prop_map(|(s, g)| Step::Beat(s, g)),
            (0..SLOTS, gap()).prop_map(|(s, g)| Step::Beat(s, g)),
            (0..SLOTS, gap()).prop_map(|(s, g)| Step::Stale(s, g)),
            (0..SLOTS).prop_map(Step::Clear),
            gap().prop_map(Step::Probe),
        ]
    }

    proptest! {
        /// The bank makes the reference detector's decisions bit for bit:
        /// random tunings, several slots, heartbeats in and out of order,
        /// clears, and intervals on both sides of the 32-bit ring entry.
        #[test]
        fn bank_matches_reference_detector(
            window in 1usize..65,
            threshold in 0.1f64..16.0,
            first_ms in 1u64..10_000,
            min_stddev_ms in 0u64..5_000,
            steps in proptest::collection::vec(step(), 1..400),
        ) {
            let config = PhiConfig {
                window,
                threshold,
                first_interval: SimDuration::from_millis(first_ms),
                min_stddev: SimDuration::from_millis(min_stddev_ms),
            };
            let mut bank = PhiBank::new(config);
            let mut model: Vec<Option<PhiAccrualDetector>> = vec![None; SLOTS];
            let mut now = SimTime::ZERO;
            for step in steps {
                match step {
                    Step::Beat(s, gap) => {
                        now += SimDuration::from_micros(gap);
                        bank.heartbeat(s, now);
                        model[s].get_or_insert_with(|| PhiAccrualDetector::new(config)).heartbeat(now);
                    }
                    Step::Stale(s, back) => {
                        let at = SimTime::from_micros(now.as_micros().saturating_sub(back));
                        bank.heartbeat(s, at);
                        model[s].get_or_insert_with(|| PhiAccrualDetector::new(config)).heartbeat(at);
                    }
                    Step::Clear(s) => {
                        bank.clear(s);
                        model[s] = None;
                    }
                    Step::Probe(gap) => now += SimDuration::from_micros(gap),
                }
                for (s, m) in model.iter().enumerate() {
                    // A cleared slot reads as never observed: `None`, not suspect.
                    let phi = m.as_ref().map(|m| m.phi(now).to_bits());
                    let suspect = m.as_ref().is_some_and(|m| m.is_suspect(now));
                    prop_assert_eq!(bank.phi(s, now).map(f64::to_bits), phi, "slot {} at {}", s, now);
                    prop_assert_eq!(bank.is_suspect(s, now), suspect, "slot {} at {}", s, now);
                }
            }
            // Every wide sample on record is still referenced by its ring.
            prop_assert!(bank.wide.iter().all(|&(cell, _)| bank.ring[cell] == WIDE));
        }
    }
}
