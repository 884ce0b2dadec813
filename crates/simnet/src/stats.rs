//! Traffic accounting and summary statistics.
//!
//! The engine credits every send/receive/drop against per-node
//! [`TrafficCounters`]; experiments read them back after the run to produce
//! the load tables (e.g. experiment E2, publisher load, and E12, per-node
//! gossip cost). [`Summary`] provides the exact percentiles reported
//! throughout the benchmark harness.

/// Per-node message and byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Messages passed to the network by this node.
    pub msgs_sent: u64,
    /// Payload bytes passed to the network by this node.
    pub bytes_sent: u64,
    /// Messages delivered to this node.
    pub msgs_recv: u64,
    /// Payload bytes delivered to this node.
    pub bytes_recv: u64,
    /// Messages lost in the network on their way *to* this node
    /// (loss, partition, or the destination being down).
    pub msgs_lost: u64,
    /// Timer events fired at this node.
    pub timers_fired: u64,
}

/// Simulation-wide fault-injection accounting: what the chaos layer actually
/// did to a run. One instance per [`crate::Simulation`], read back by
/// experiments to report injected-fault intensity next to delivery outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages dropped by the active partition.
    pub drops_partition: u64,
    /// Messages dropped by a directed link cut.
    pub drops_link_cut: u64,
    /// Messages dropped by the global drop probability.
    pub drops_loss: u64,
    /// Messages dropped by a gray sender (throttle or extra loss).
    pub drops_gray_send: u64,
    /// Messages dropped by a gray receiver's extra loss.
    pub drops_gray_recv: u64,
    /// Extra in-flight copies created by duplication.
    pub msgs_duplicated: u64,
    /// Messages whose delay was inflated by reordering jitter.
    pub msgs_jittered: u64,
    /// Crash events applied to live nodes.
    pub crashes: u64,
    /// Recover events applied to down nodes.
    pub recoveries: u64,
    /// Partition changes applied with a concrete group assignment.
    pub partitions_started: u64,
    /// Partition changes that removed the active assignment (heals).
    pub partitions_healed: u64,
    /// Adversarial state-corruption strikes executed against live nodes.
    pub state_corruptions: u64,
    /// Outbound messages tampered with or dropped by liar interception.
    pub liar_intercepts: u64,
    /// Corruption strikes executed by members of a collusion group
    /// (counted in addition to `state_corruptions`).
    pub collusion_strikes: u64,
    /// Liar intercepts executed by members of a collusion group (these do
    /// *not* also count into `liar_intercepts`; the two partition the total).
    pub collusion_intercepts: u64,
    /// Forged news items fabricated into node state by `ForgeItems` strikes.
    pub forged_items_injected: u64,
    /// Stolen-key strikes executed by `StolenKey` corruption (validly
    /// signed forgeries; counted in addition to `state_corruptions`).
    pub key_compromise_strikes: u64,
    /// Fabricated identities injected by `SybilFlood` strikes.
    pub sybil_joins_attempted: u64,
}

impl FaultCounters {
    /// Total messages dropped by the network for any cause.
    pub fn total_drops(&self) -> u64 {
        self.drops_partition
            + self.drops_link_cut
            + self.drops_loss
            + self.drops_gray_send
            + self.drops_gray_recv
    }
}

/// An exact-percentile summary built from raw `f64` samples.
///
/// Stores all samples (experiments here produce at most a few million), sorts
/// lazily on first query, and then answers arbitrary quantiles exactly.
///
/// ```
/// let mut s = simnet::Summary::new();
/// for v in [3.0, 1.0, 2.0] { s.record(v); }
/// assert_eq!(s.quantile(0.5), 2.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN; a NaN sample would poison every quantile.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot record NaN sample");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
    }

    /// The exact `q`-quantile (0 ≤ q ≤ 1) using nearest-rank interpolation.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        assert!(!self.samples.is_empty(), "quantile of empty summary");
        self.ensure_sorted();
        let n = self.samples.len();
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let w = pos - lo as f64;
            self.samples[lo] * (1.0 - w) + self.samples[hi] * w
        }
    }

    /// Arithmetic mean of the samples.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.samples.is_empty(), "mean of empty summary");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn min(&mut self) -> f64 {
        self.quantile(0.0)
    }

    /// Borrow of the raw samples (unsorted unless a quantile was queried).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_quantiles_exact() {
        let mut s: Summary = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.quantile(0.5) - 50.5).abs() < 1e-9);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summary_interpolates() {
        let mut s: Summary = [0.0, 10.0].into_iter().collect();
        assert!((s.quantile(0.25) - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_empty_quantile_panics() {
        Summary::new().quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }
}
