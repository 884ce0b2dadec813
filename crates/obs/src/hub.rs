//! The per-simulation telemetry hub: one ring, one registry, one clock.

use crate::export::{NodeMetrics, Telemetry};
use crate::metrics::{CtrId, GaugeId, HistId, MetricSet, Schema, SeriesId};
use crate::trace::{Layer, TraceEvent, TraceRing};

/// Everything one `Simulation` observes about itself.
///
/// The simulator owns a hub behind `Rc<RefCell<…>>`; during each node
/// callback it installs the handle into the thread-local
/// [collector](crate::collector) so protocol layers can emit through the
/// [`trace_event!`](crate::trace_event) / [`metric_add!`](crate::metric_add)
/// macros without plumbing a reference through every call.
///
/// All mutation is driven by the (single-threaded, deterministic) event
/// loop, so hub contents are a pure function of the simulation seed.
#[derive(Debug)]
pub struct TelemetryHub {
    schema: Schema,
    nodes: Vec<MetricSet>,
    global: MetricSet,
    ring: TraceRing,
    now_us: u64,
    seed: u64,
    /// Ordering key of the event currently being processed (sharded-engine
    /// scratch hubs stamp it onto every trace record; see
    /// [`TraceRing::enable_keys`]).
    event_key: (u64, u64),
}

impl TelemetryHub {
    /// A fresh hub over the built-in stack [`Schema`].
    pub fn new(seed: u64) -> Self {
        TelemetryHub {
            schema: Schema::stack(),
            nodes: Vec::new(),
            global: MetricSet::new(),
            ring: TraceRing::default(),
            now_us: 0,
            seed,
            event_key: (0, 0),
        }
    }

    /// The slot table in force.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable slot table (for registering experiment-specific slots).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// The seed of the owning simulation (stamped into exports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Updates the simulated clock used to stamp trace records.
    #[inline]
    pub fn set_now_us(&mut self, t_us: u64) {
        self.now_us = t_us;
    }

    /// The simulated clock as last set.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Grows the per-node table to cover node ids `0..n`.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize_with(n, MetricSet::new);
        }
    }

    /// Number of per-node metric sets.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One node's metrics (None when out of range).
    pub fn node(&self, idx: usize) -> Option<&MetricSet> {
        self.nodes.get(idx)
    }

    /// One node's metrics, mutable (None when out of range — notably for
    /// the external pseudo-sender).
    #[inline]
    pub fn node_mut(&mut self, idx: usize) -> Option<&mut MetricSet> {
        self.nodes.get_mut(idx)
    }

    /// The simulation-global metric set (fault tallies, oracle verdicts).
    pub fn global(&self) -> &MetricSet {
        &self.global
    }

    /// The simulation-global metric set, mutable.
    #[inline]
    pub fn global_mut(&mut self) -> &mut MetricSet {
        &mut self.global
    }

    /// Records a trace event stamped with the current simulated time.
    #[inline]
    pub fn trace(&mut self, node: u32, layer: Layer, kind: u8, a: u64, b: u64) {
        self.ring
            .push_keyed(TraceEvent { t_us: self.now_us, a, b, node, layer, kind }, self.event_key);
    }

    /// Records a trace event with an explicit timestamp (engine paths that
    /// know the event time before updating the hub clock).
    #[inline]
    pub fn trace_at(&mut self, t_us: u64, node: u32, layer: Layer, kind: u8, a: u64, b: u64) {
        self.ring.push_keyed(TraceEvent { t_us, a, b, node, layer, kind }, self.event_key);
    }

    /// Sets the ordering key stamped onto subsequent trace records (only
    /// observable on hubs whose ring has key tracking enabled).
    #[inline]
    pub fn set_event_key(&mut self, a: u64, b: u64) {
        self.event_key = (a, b);
    }

    /// Enables per-record ordering keys on the ring and lifts the capacity
    /// bound — the configuration the sharded engine uses for its per-shard
    /// scratch hubs, which are drained and merged every synchronization
    /// window (the *merged* ring enforces the real capacity).
    pub fn configure_as_scratch(&mut self) {
        self.ring.set_capacity(usize::MAX);
        self.ring.enable_keys();
    }

    /// Pushes an already-built record (cross-shard merges replaying records
    /// into the master ring in globally sorted order).
    #[inline]
    pub fn push_record(&mut self, ev: TraceEvent) {
        self.ring.push(ev);
    }

    /// Drains the ring of a keyed scratch hub: `(record, ordering key)`
    /// pairs in emission order. Metric sets are untouched.
    pub fn drain_trace_keyed(&mut self) -> Vec<(TraceEvent, (u64, u64))> {
        self.ring.drain_keyed()
    }

    /// Folds every metric set of `other` (a same-schema scratch hub that
    /// runs the nodes `owned`) into this hub via [`MetricSet::absorb`]:
    /// counters/histograms/series move over, and the owned nodes' gauges
    /// replace this hub's — the same values a hub written directly would
    /// hold. Trace rings are *not* merged here (they move through
    /// [`TelemetryHub::drain_trace_keyed`] + [`TelemetryHub::push_record`]
    /// so records can be globally ordered).
    pub fn merge_sets_from(&mut self, other: &mut TelemetryHub, owned: std::ops::Range<usize>) {
        self.ensure_nodes(other.nodes.len());
        for (i, (dst, src)) in self.nodes.iter_mut().zip(other.nodes.iter_mut()).enumerate() {
            if !src.is_zero() {
                dst.absorb(src, owned.contains(&i));
            }
        }
        self.global.absorb(&mut other.global, false);
    }

    /// The trace ring (inspection and capacity control).
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Replaces the ring capacity, shedding oldest records if shrinking.
    pub fn set_ring_capacity(&mut self, capacity: usize) {
        self.ring.set_capacity(capacity);
    }

    /// Sums a counter slot across every node.
    pub fn counter_total(&self, id: CtrId) -> u64 {
        self.nodes.iter().map(|m| m.ctr(id)).sum()
    }

    /// Reads one node's counter slot (0 when out of range).
    pub fn node_counter(&self, idx: usize, id: CtrId) -> u64 {
        self.nodes.get(idx).map(|m| m.ctr(id)).unwrap_or(0)
    }

    /// Reads one node's gauge slot (0 when out of range).
    pub fn node_gauge(&self, idx: usize, id: GaugeId) -> u64 {
        self.nodes.get(idx).map(|m| m.gauge(id)).unwrap_or(0)
    }

    /// Sums a gauge slot across every node (useful for "rows held" style
    /// totals where each node's gauge is a level, not a high-water mark).
    pub fn gauge_total(&self, id: GaugeId) -> u64 {
        self.nodes.iter().map(|m| m.gauge(id)).sum()
    }

    /// Concatenates a series slot across every node, in node-id order.
    pub fn merged_series(&self, id: SeriesId) -> Vec<u64> {
        let mut out = Vec::new();
        for m in &self.nodes {
            out.extend_from_slice(m.series(id));
        }
        out
    }

    /// Sums a histogram's buckets across every node.
    pub fn merged_hist(&self, id: HistId) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for m in &self.nodes {
            let h = m.hist_buckets(id);
            if h.is_empty() {
                continue;
            }
            if out.is_empty() {
                out.resize(h.len(), 0);
            }
            for (o, &v) in out.iter_mut().zip(h) {
                *o += v;
            }
        }
        out
    }

    fn snapshot_inner(&self, events: Vec<TraceEvent>, events_dropped: u64) -> Telemetry {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_zero())
            .map(|(i, m)| NodeMetrics::from_set(i as u32, m, &self.schema))
            .collect();
        Telemetry {
            seed: self.seed,
            now_us: self.now_us,
            events_dropped,
            events,
            nodes,
            global: NodeMetrics::from_set(TraceEvent::GLOBAL, &self.global, &self.schema),
        }
    }

    /// A non-destructive telemetry snapshot (ring contents copied).
    pub fn snapshot(&self) -> Telemetry {
        self.snapshot_inner(self.ring.ordered(), self.ring.dropped())
    }

    /// Drains the hub: returns the full telemetry and resets every metric
    /// slot, the ring, and the drop counter, so a subsequent drain observes
    /// only what happened after this one.
    pub fn drain(&mut self) -> Telemetry {
        let dropped = self.ring.dropped();
        let events = self.ring.drain();
        let snap = self.snapshot_inner(events, dropped);
        self.reset_metrics();
        snap
    }

    /// Resets every metric slot (the ring is untouched).
    pub fn reset_metrics(&mut self) {
        for m in &mut self.nodes {
            m.reset();
        }
        self.global.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ctr, series};

    #[test]
    fn drain_resets_cleanly() {
        let mut hub = TelemetryHub::new(7);
        hub.ensure_nodes(2);
        hub.set_now_us(1_000);
        hub.node_mut(0).unwrap().ctr_add(ctr::MSGS_SENT, 4);
        hub.node_mut(1).unwrap().series_push(series::DELIVERY_LATENCY_US, 9);
        hub.global_mut().ctr_add(ctr::CRASHES, 1);
        hub.trace(0, Layer::Sim, crate::kind::MSG_DELIVER, 1, 2);

        let t = hub.drain();
        assert_eq!(t.seed, 7);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.nodes.len(), 2);
        assert_eq!(hub.counter_total(ctr::MSGS_SENT), 0, "drain must reset counters");
        assert!(hub.merged_series(series::DELIVERY_LATENCY_US).is_empty());
        assert_eq!(hub.global().ctr(ctr::CRASHES), 0);
        assert!(hub.ring().is_empty());

        let t2 = hub.drain();
        assert!(t2.events.is_empty(), "second drain sees only post-drain activity");
        assert!(t2.nodes.is_empty());
    }

    #[test]
    fn totals_and_merges() {
        let mut hub = TelemetryHub::new(0);
        hub.ensure_nodes(3);
        for i in 0..3 {
            hub.node_mut(i).unwrap().ctr_add(ctr::MSGS_SENT, (i as u64) + 1);
            hub.node_mut(i).unwrap().series_push(series::DELIVERY_LATENCY_US, i as u64);
        }
        assert_eq!(hub.counter_total(ctr::MSGS_SENT), 6);
        assert_eq!(hub.node_counter(1, ctr::MSGS_SENT), 2);
        assert_eq!(hub.merged_series(series::DELIVERY_LATENCY_US), vec![0, 1, 2]);
    }
}
