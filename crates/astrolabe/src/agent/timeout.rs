//! Row failure detection as a timeout (paper §3; Astrolabe, van Renesse,
//! Birman & Vogels, TOCS 2003): a row whose stamp has not moved within its
//! timeout is suspect, and the gc sweep evicts it.
//!
//! Each row's timeout follows its own heartbeat cadence. A Jacobson/Karels
//! estimator (RFC 6298 §2) over the row's inter-arrival times keeps a
//! smoothed mean `SRTT` and a smoothed mean deviation `RTTVAR`, in whole
//! microseconds. The row is suspect once it has been silent for
//!
//! ```text
//! SRTT + Y_STAR · σ,   σ = max(RTTVAR · √(π/2), min_deviation, SRTT / 4)
//! ```
//!
//! `RTTVAR · √(π/2)` is the standard deviation of a normal whose mean
//! absolute deviation is `RTTVAR`, and [`Y_STAR`] is the number of
//! deviations past the mean at which the φ-accrual detector this replaced
//! (Hayashibara et al., SRDS 2004, under its logistic tail) reached φ = 8.
//! That detector's verdict "φ ≥ 8" was exactly "silent for at least mean +
//! `Y_STAR` σ" of a 16-sample window; the estimator keeps the cadence that
//! window held in 8 bytes instead of 64.

use std::mem::size_of;

use simnet::SimTime;

use crate::config::RowTimeout;

/// Deviations past the mean at which the logistic φ of the detector this
/// replaced reaches 8: the root of `φ(y) = 8` for `φ(y) = −log10(1 / (1 +
/// e^(y·(1.5976 + 0.070566·y²))))` (`tests::y_star_is_where_logistic_phi_reaches_8`
/// solves it).
const Y_STAR: f64 = 5.225986644093564;

/// `√(π/2)`: a normal's standard deviation over its mean absolute deviation.
const SQRT_HALF_PI: f64 = 1.2533141373155001;

/// `last_us` of a slot that has seen no heartbeat. A heartbeat at this very
/// instant (`u64::MAX` µs, 584,000 simulated years) would read as none.
const UNTRACKED_US: u64 = u64::MAX;

/// One row's timeout state: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Instant (µs) of the row's latest heartbeat, or [`UNTRACKED_US`].
    last_us: u64,
    /// Smoothed inter-arrival time (µs); 0 until the first interval, and
    /// never 0 after it (`(7·s + r) / 8 ≥ 1` for `s, r ≥ 1`).
    srtt_us: u32,
    /// Smoothed mean deviation of the inter-arrival time (µs).
    rttvar_us: u32,
}

const UNTRACKED: Slot = Slot { last_us: UNTRACKED_US, srtt_us: 0, rttvar_us: 0 };

impl Slot {
    /// Folds one inter-arrival time into the estimates, with RFC 6298's
    /// gains (1/8 for the mean, 1/4 for the deviation) in integer
    /// arithmetic. An interval of 2^32 µs (71.6 minutes) or more counts as
    /// 2^32 − 1 µs: a row silent that long was evicted long before.
    fn sample(&mut self, interval_us: u64) {
        let r = u64::from(u32::try_from(interval_us).unwrap_or(u32::MAX));
        if self.srtt_us == 0 {
            (self.srtt_us, self.rttvar_us) = (r as u32, (r / 2) as u32);
            return;
        }
        let srtt = u64::from(self.srtt_us);
        // Both are weighted means of values that fit 32 bits.
        self.rttvar_us = ((3 * u64::from(self.rttvar_us) + srtt.abs_diff(r)) / 4) as u32;
        self.srtt_us = ((7 * srtt + r) / 8) as u32;
    }

    /// The silence (µs) at and after which the row is suspect. Not
    /// rounded: a whole number of µs of silence reaches it exactly when it
    /// reaches its ceiling.
    fn timeout_us(&self, tuning: &RowTimeout) -> f64 {
        let (mean, deviation) = match self.srtt_us {
            0 => (tuning.first_interval.as_micros() as f64, 0.0),
            srtt => (f64::from(srtt), f64::from(self.rttvar_us) * SQRT_HALF_PI),
        };
        let sigma = deviation.max(tuning.min_deviation.as_micros() as f64).max(mean / 4.0);
        mean + Y_STAR * sigma
    }
}

/// The row timeouts of one zone table, addressed by row label: one dense
/// array of 16-byte slots. An empty set allocates nothing; an owner that
/// knows its zone's child count sizes it once with [`Timeouts::grow_to`],
/// and a heartbeat for a label past the end grows it the way `Vec::push`
/// would.
#[derive(Debug, Clone, Default)]
pub(super) struct Timeouts {
    slots: Vec<Slot>,
}

impl Timeouts {
    /// True when no slot is held (and so no memory).
    pub(super) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes held, for memory accounting.
    pub(super) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
    }

    /// Grows to `slots` slots (the new ones untracked) without reserving
    /// anything beyond them. Never shrinks.
    pub(super) fn grow_to(&mut self, slots: usize) {
        if let Some(more) = slots.checked_sub(self.slots.len()) {
            self.slots.reserve_exact(more);
            self.slots.resize(slots, UNTRACKED);
        }
    }

    /// Records a heartbeat (the row's stamp advanced) of `slot` at `now`.
    /// One at or before the latest one refreshes nothing.
    pub(super) fn heartbeat(&mut self, slot: usize, now: SimTime) {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, UNTRACKED);
        }
        let now_us = now.as_micros();
        let s = &mut self.slots[slot];
        if s.last_us != UNTRACKED_US {
            if now_us <= s.last_us {
                return;
            }
            s.sample(now_us - s.last_us);
        }
        s.last_us = now_us;
    }

    /// The instant `slot` becomes suspect, or `None` before its first
    /// heartbeat (an unobserved row is unknown, not dead).
    pub(super) fn deadline(&self, slot: usize, tuning: &RowTimeout) -> Option<SimTime> {
        self.tracked(slot).map(|s| {
            SimTime::from_micros(s.last_us.saturating_add(s.timeout_us(tuning).ceil() as u64))
        })
    }

    /// True once `slot` has been silent for its timeout: one comparison.
    pub(super) fn is_suspect(&self, slot: usize, now: SimTime, tuning: &RowTimeout) -> bool {
        self.tracked(slot).is_some_and(|s| {
            now.as_micros().saturating_sub(s.last_us) as f64 >= s.timeout_us(tuning)
        })
    }

    /// Forgets `slot`'s history (its row was evicted, or its member came
    /// back under a new incarnation): untracked until its next heartbeat.
    pub(super) fn clear(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = UNTRACKED;
        }
    }

    /// [`Timeouts::clear`] for every slot, keeping the allocation.
    pub(super) fn clear_all(&mut self) {
        self.slots.fill(UNTRACKED);
    }

    fn tracked(&self, slot: usize) -> Option<&Slot> {
        self.slots.get(slot).filter(|s| s.last_us != UNTRACKED_US)
    }
}

/// Two models the timeouts are tested against: the same estimator written
/// plainly in `f64`, and the windowed φ-accrual detector it replaced.
#[cfg(test)]
mod model {
    use std::collections::VecDeque;

    use simnet::SimTime;

    use super::{SQRT_HALF_PI, Y_STAR};
    use crate::config::RowTimeout;

    /// RFC 6298's estimator over one row, in `f64` microseconds, each
    /// update floored the way the integer one rounds.
    #[derive(Debug, Clone, Default)]
    pub struct Estimator {
        last: Option<f64>,
        /// `(srtt, rttvar)` once an interval was observed.
        estimates: Option<(f64, f64)>,
    }

    impl Estimator {
        pub fn heartbeat(&mut self, now: SimTime) {
            let now = now.as_micros() as f64;
            if let Some(last) = self.last {
                if now <= last {
                    return;
                }
                let r = (now - last).min(f64::from(u32::MAX));
                self.estimates = Some(match self.estimates {
                    None => (r, (r / 2.0).floor()),
                    Some((srtt, rttvar)) => (
                        ((7.0 * srtt + r) / 8.0).floor(),
                        ((3.0 * rttvar + (srtt - r).abs()) / 4.0).floor(),
                    ),
                });
            }
            self.last = Some(now);
        }

        /// The silence (µs) after which the row is suspect.
        pub fn timeout(&self, tuning: &RowTimeout) -> Option<f64> {
            self.last?;
            let (mean, deviation) = match self.estimates {
                None => (tuning.first_interval.as_micros() as f64, 0.0),
                Some((srtt, rttvar)) => (srtt, rttvar * SQRT_HALF_PI),
            };
            let sigma = deviation.max(tuning.min_deviation.as_micros() as f64).max(mean / 4.0);
            Some((mean + Y_STAR * sigma).ceil())
        }

        pub fn deadline(&self, tuning: &RowTimeout) -> Option<SimTime> {
            Some(SimTime::from_micros((self.last? + self.timeout(tuning)?) as u64))
        }

        pub fn is_suspect(&self, now: SimTime, tuning: &RowTimeout) -> bool {
            match (self.last, self.timeout(tuning)) {
                (Some(last), Some(timeout)) => (now.as_micros() as f64 - last).max(0.0) >= timeout,
                _ => false,
            }
        }
    }

    /// The φ-accrual detector the timeouts replaced: a window of the last
    /// `window` inter-arrival times, a normal model of them with the same
    /// floors, and suspicion at φ ≥ 8 under the logistic tail
    /// approximation.
    #[derive(Debug, Clone)]
    pub struct Phi {
        window: usize,
        intervals_us: VecDeque<f64>,
        last: Option<SimTime>,
    }

    impl Phi {
        pub fn new(window: usize) -> Self {
            Phi { window, intervals_us: VecDeque::with_capacity(window), last: None }
        }

        pub fn heartbeat(&mut self, now: SimTime) {
            match self.last {
                Some(last) if now <= last => {}
                Some(last) => {
                    if self.intervals_us.len() == self.window {
                        self.intervals_us.pop_front();
                    }
                    self.intervals_us.push_back(now.since(last).as_micros() as f64);
                    self.last = Some(now);
                }
                None => self.last = Some(now),
            }
        }

        /// `(mean, stddev)` of the window, with the floors applied.
        fn model(&self, tuning: &RowTimeout) -> (f64, f64) {
            let floor = tuning.min_deviation.as_micros() as f64;
            if self.intervals_us.is_empty() {
                let first = tuning.first_interval.as_micros() as f64;
                return (first, floor.max(first / 4.0));
            }
            let n = self.intervals_us.len() as f64;
            let mean = self.intervals_us.iter().sum::<f64>() / n;
            let var =
                (self.intervals_us.iter().map(|x| x * x).sum::<f64>() / n - mean * mean).max(0.0);
            (mean, var.sqrt().max(floor).max(mean / 4.0))
        }

        /// φ after `elapsed_us` of silence.
        pub fn phi(&self, elapsed_us: u64, tuning: &RowTimeout) -> f64 {
            let (mean, stddev) = self.model(tuning);
            logistic_phi((elapsed_us as f64 - mean) / stddev)
        }

        /// The least silence (µs) at which φ ≥ 8: φ rises monotonically
        /// with silence, so a bisection finds it.
        pub fn timeout(&self, tuning: &RowTimeout) -> u64 {
            let (mut lo, mut hi) = (0u64, 1u64 << 40);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.phi(mid, tuning) >= 8.0 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        }
    }

    /// `−log10` of the logistic approximation of a normal's tail beyond `y`
    /// deviations, in the form that stays finite for large `y`.
    pub fn logistic_phi(y: f64) -> f64 {
        let e = y * (1.5976 + 0.070566 * y * y);
        if e > 0.0 {
            std::f64::consts::LOG10_E * e + (1.0 + (-e).exp()).log10()
        } else {
            (1.0 + e.exp()).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use simnet::{fork, SimDuration};

    use super::model::{logistic_phi, Estimator, Phi};
    use super::*;
    use crate::Config;

    fn tuning() -> RowTimeout {
        Config::standard().row_timeout()
    }

    /// One row fed `beats` heartbeats `period_s` apart.
    fn fed(period_s: u64, beats: u64) -> (Timeouts, SimTime) {
        let mut t = Timeouts::default();
        let mut now = SimTime::ZERO;
        for i in 0..beats {
            now = SimTime::from_secs(i * period_s);
            t.heartbeat(0, now);
        }
        (t, now)
    }

    fn silence(t: &Timeouts, last: SimTime) -> SimDuration {
        t.deadline(0, &tuning()).expect("tracked").since(last)
    }

    #[test]
    fn y_star_is_where_logistic_phi_reaches_8() {
        let (mut lo, mut hi) = (0.0f64, 20.0f64);
        for _ in 0..200 {
            let mid = (lo + hi) / 2.0;
            if logistic_phi(mid) >= 8.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert!((Y_STAR - hi).abs() < 1e-12, "y* = {hi}");
        assert!(logistic_phi(Y_STAR) >= 8.0 && logistic_phi(Y_STAR - 1e-9) < 8.0);
        assert_eq!(SQRT_HALF_PI, std::f64::consts::FRAC_PI_2.sqrt());
    }

    /// Sized to a zone of 16 children, the timeouts hold 16 B a row and
    /// nothing else, and feeding every row allocates nothing more.
    #[test]
    fn a_zone_of_timeouts_holds_16_bytes_a_row() {
        assert_eq!(size_of::<Slot>(), 16);
        let (mut t, sized) = heapcount::live_after(|| {
            let mut t = Timeouts::default();
            t.grow_to(16);
            t
        });
        assert_eq!((sized, t.heap_bytes()), (16 * 16, 16 * 16));
        let ((), fed) = heapcount::live_after(|| {
            for round in 0..100 {
                for row in 0..16 {
                    t.heartbeat(row, SimTime::from_secs(2 * round));
                }
            }
        });
        assert_eq!(fed, 0);
        assert_eq!(heapcount::freed_by(t), 16 * 16);
    }

    #[test]
    fn an_unobserved_row_is_not_suspect() {
        let mut t = Timeouts::default();
        assert!(t.is_empty());
        assert_eq!(t.deadline(0, &tuning()), None);
        assert!(!t.is_suspect(0, SimTime::from_secs(1000), &tuning()));
        // The same holds for a slot that exists but was never fed.
        t.grow_to(4);
        assert_eq!((t.slots.len(), t.slots.capacity(), t.heap_bytes()), (4, 4, 64));
        assert!(!t.is_suspect(3, SimTime::from_secs(1000), &tuning()));
    }

    #[test]
    fn before_the_first_interval_the_model_is_a_4_s_mean_and_a_2_s_deviation() {
        let mut t = Timeouts::default();
        t.heartbeat(0, SimTime::from_secs(10));
        let expect = (4e6 + Y_STAR * 2e6).ceil() as u64;
        assert_eq!(silence(&t, SimTime::from_secs(10)).as_micros(), expect);
        let deadline = SimTime::from_micros(10_000_000 + expect);
        assert!(!t.is_suspect(0, SimTime::from_micros(deadline.as_micros() - 1), &tuning()));
        assert!(t.is_suspect(0, deadline, &tuning()));
    }

    #[test]
    fn the_first_interval_sets_the_mean_and_half_of_it_as_the_deviation() {
        let (t, _) = fed(3, 2);
        assert_eq!((t.slots[0].srtt_us, t.slots[0].rttvar_us), (3_000_000, 1_500_000));
    }

    #[test]
    fn a_late_row_is_suspect_until_it_is_heard_again() {
        let (mut t, last) = fed(2, 20);
        let late = last + SimDuration::from_secs(30);
        assert!(t.is_suspect(0, late, &tuning()));
        t.heartbeat(0, late);
        assert!(!t.is_suspect(0, late + SimDuration::from_secs(1), &tuning()));
    }

    #[test]
    fn a_regular_row_is_tolerated_at_its_own_cadence() {
        // A row refreshed every 5 s is not suspect 6 s in, and its timeout
        // is longer than a 1 s row's.
        let (slow, last) = fed(5, 30);
        assert!(!slow.is_suspect(0, last + SimDuration::from_secs(6), &tuning()));
        let (fast, last_fast) = fed(1, 30);
        assert!(silence(&fast, last_fast) < silence(&slow, last));
        // At a steady cadence the deviation decays to the floor: a 2 s
        // floor dominates a 1 s cadence (1 + y*·2 s), a quarter of 5 s does
        // not (5 + y*·2 s).
        assert_eq!(silence(&fast, last_fast).as_micros(), (1e6 + Y_STAR * 2e6).ceil() as u64);
        assert_eq!(silence(&slow, last).as_micros(), (5e6 + Y_STAR * 2e6).ceil() as u64);
    }

    #[test]
    fn out_of_order_and_equal_time_heartbeats_refresh_nothing() {
        let (mut t, last) = fed(2, 5);
        let before = t.slots[0];
        t.heartbeat(0, SimTime::ZERO);
        t.heartbeat(0, last);
        assert_eq!(t.slots[0], before);
    }

    #[test]
    fn clear_forgets_history() {
        let (mut t, last) = fed(2, 20);
        t.heartbeat(1, last);
        t.clear(0);
        assert_eq!(t.deadline(0, &tuning()), None);
        assert!(t.deadline(1, &tuning()).is_some(), "clearing one slot leaves its neighbours");
        t.clear_all();
        assert_eq!(t.deadline(1, &tuning()), None);
        assert_eq!(t.slots.len(), 2, "clearing keeps the slots");
    }

    #[test]
    fn a_gap_past_32_bits_saturates_the_sample() {
        let mut t = Timeouts::default();
        t.heartbeat(0, SimTime::ZERO);
        t.heartbeat(0, SimTime::from_micros(1 << 40));
        assert_eq!(t.slots[0].srtt_us, u32::MAX);
        t.heartbeat(0, SimTime::from_micros((1 << 40) + 2_000_000));
        assert!(t.slots[0].srtt_us < u32::MAX && t.slots[0].rttvar_us > 0);
    }

    /// At a 2 s cadence with up to ±0.5 s of jitter, the timeout and the
    /// windowed φ detector's agree within 5 %, heartbeat after heartbeat.
    #[test]
    fn at_a_jittered_2_s_cadence_both_timeouts_agree_within_5_percent() {
        let mut rng = fork(30, 0);
        let (mut t, mut phi) = (Timeouts::default(), Phi::new(16));
        let mut now = SimTime::ZERO;
        for beat in 0..2_000 {
            now += SimDuration::from_micros(rand::Rng::gen_range(&mut rng, 1_500_000..2_500_000));
            t.heartbeat(0, now);
            phi.heartbeat(now);
            if beat < 16 {
                continue; // the window fills
            }
            let new = silence(&t, now).as_micros() as f64;
            let old = phi.timeout(&tuning()) as f64;
            assert!((new / old - 1.0).abs() <= 0.05, "beat {beat}: {new} µs vs φ's {old} µs");
        }
    }

    /// `gray_slowdown_raises_phi_gradually`'s case: a row refreshed every
    /// 2 s slows to every 8 s. The slowed beats come ever closer to the
    /// timeout without crossing it, and once the estimator has adapted the
    /// same 8 s silence is a smaller share of a longer timeout — as with φ.
    #[test]
    fn a_step_to_a_slower_cadence_raises_the_timeout() {
        let (mut t, mut now) = fed(2, 30);
        let mut phi = Phi::new(16);
        for i in 0..30 {
            phi.heartbeat(SimTime::from_secs(i * 2));
        }
        let before = silence(&t, now);
        let mut peak = 0.0f64;
        for _ in 0..10 {
            let last = now;
            now += SimDuration::from_secs(8);
            assert!(!t.is_suspect(0, now, &tuning()), "a slowed row is not evicted");
            let share = 8e6 / silence(&t, last).as_micros() as f64;
            peak = peak.max(share);
            t.heartbeat(0, now);
            phi.heartbeat(now);
        }
        let after = silence(&t, now);
        assert!(after > before, "the timeout adapts: {after:?} vs {before:?}");
        assert!(8e6 / (after.as_micros() as f64) < peak);
        // Both detectors land within 10 % of each other after the step.
        let old = phi.timeout(&tuning()) as f64;
        let new = after.as_micros() as f64;
        assert!((new / old - 1.0).abs() <= 0.1, "{new} µs vs φ's {old} µs");
    }

    /// A row heartbeating at a jittered 2 s cadence for 24 simulated hours
    /// keeps the model's estimates to the microsecond.
    #[test]
    fn a_day_of_heartbeats_matches_the_model() {
        let mut rng = fork(24, 0);
        let (mut t, mut m) = (Timeouts::default(), Estimator::default());
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(24 * 3_600) {
            now += SimDuration::from_micros(rand::Rng::gen_range(&mut rng, 1..4_000_000));
            t.heartbeat(0, now);
            m.heartbeat(now);
            assert_eq!(t.deadline(0, &tuning()), m.deadline(&tuning()), "at {now}");
        }
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
        // Same-instant, gossip-cadence, a freeze's 10–40 s, minutes, the
        // 32-bit edge and far past it.
        let gap = || {
            prop_oneof![
                Just(0u64),
                1u64..5_000_000,
                10_000_000u64..40_000_000,
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
        /// The integer timeouts make the `f64` model's decisions and name
        /// its deadlines, under random tunings, over several slots,
        /// heartbeats in and out of order, clears and gaps past 2^32 µs.
        #[test]
        fn timeouts_match_the_f64_model(
            first_ms in 1u64..10_000,
            min_deviation_ms in 0u64..5_000,
            steps in proptest::collection::vec(step(), 1..400),
        ) {
            let tuning = RowTimeout {
                first_interval: SimDuration::from_millis(first_ms),
                min_deviation: SimDuration::from_millis(min_deviation_ms),
            };
            let mut t = Timeouts::default();
            let mut model: Vec<Estimator> = vec![Estimator::default(); SLOTS];
            let mut now = SimTime::ZERO;
            for step in steps {
                match step {
                    Step::Beat(s, gap) => {
                        now += SimDuration::from_micros(gap);
                        t.heartbeat(s, now);
                        model[s].heartbeat(now);
                    }
                    Step::Stale(s, back) => {
                        let at = SimTime::from_micros(now.as_micros().saturating_sub(back));
                        t.heartbeat(s, at);
                        model[s].heartbeat(at);
                    }
                    Step::Clear(s) => {
                        t.clear(s);
                        model[s] = Estimator::default();
                    }
                    Step::Probe(gap) => now += SimDuration::from_micros(gap),
                }
                for (s, m) in model.iter().enumerate() {
                    prop_assert_eq!(t.deadline(s, &tuning), m.deadline(&tuning), "slot {} at {}", s, now);
                    prop_assert_eq!(t.is_suspect(s, now, &tuning), m.is_suspect(now, &tuning), "slot {} at {}", s, now);
                }
            }
        }
    }
}
