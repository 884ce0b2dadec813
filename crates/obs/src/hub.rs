//! The per-simulation telemetry hub: one ring, one registry, one clock.

use crate::export::{NodeMetrics, Telemetry};
use crate::metrics::{CtrId, GaugeId, HistId, MetricSet, NodeColumns, SeriesId};
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
    /// Every node's metrics, one column per touched slot.
    nodes: NodeColumns,
    global: MetricSet,
    ring: TraceRing,
    now_us: u64,
    seed: u64,
}

impl TelemetryHub {
    /// A fresh, empty hub.
    pub fn new(seed: u64) -> Self {
        TelemetryHub {
            nodes: NodeColumns::default(),
            global: MetricSet::new(),
            ring: TraceRing::default(),
            now_us: 0,
            seed,
        }
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
        self.nodes.grow(n);
    }

    /// Number of nodes the per-node table covers.
    pub fn node_count(&self) -> usize {
        self.nodes.nodes()
    }

    /// Adds `v` to one node's counter slot. A node out of range — notably
    /// the external pseudo-sender — is ignored.
    #[inline]
    pub fn node_ctr_add(&mut self, idx: usize, id: CtrId, v: u64) {
        self.nodes.ctr_add(idx, id, v);
    }

    /// Sets one node's gauge slot (ignored out of range).
    #[inline]
    pub fn node_gauge_set(&mut self, idx: usize, id: GaugeId, v: u64) {
        self.nodes.gauge_set(idx, id, v);
    }

    /// Raises one node's gauge slot to `v` if larger (ignored out of range).
    #[inline]
    pub fn node_gauge_max(&mut self, idx: usize, id: GaugeId, v: u64) {
        self.nodes.gauge_max(idx, id, v);
    }

    /// Records into one node's histogram slot (ignored out of range).
    #[inline]
    pub fn node_hist_record(&mut self, idx: usize, id: HistId, v: u64) {
        self.nodes.hist_record(idx, id, v);
    }

    /// Appends to one node's series slot (ignored out of range).
    #[inline]
    pub fn node_series_push(&mut self, idx: usize, id: SeriesId, v: u64) {
        self.nodes.series_push(idx, id, v);
    }

    /// Heap bytes of the per-node metrics, from their capacities.
    pub fn node_metrics_heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
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
        self.ring.push(TraceEvent { t_us: self.now_us, a, b, node, layer, kind });
    }

    /// Records a trace event with an explicit timestamp (engine paths that
    /// know the event time before updating the hub clock).
    #[inline]
    pub fn trace_at(&mut self, t_us: u64, node: u32, layer: Layer, kind: u8, a: u64, b: u64) {
        self.ring.push(TraceEvent { t_us, a, b, node, layer, kind });
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
        self.nodes.ctr_total(id)
    }

    /// Reads one node's counter slot (0 when out of range).
    pub fn node_counter(&self, idx: usize, id: CtrId) -> u64 {
        self.nodes.ctr(idx, id)
    }

    /// Reads one node's gauge slot (0 when out of range).
    pub fn node_gauge(&self, idx: usize, id: GaugeId) -> u64 {
        self.nodes.gauge(idx, id)
    }

    /// Sums a gauge slot across every node (useful for "rows held" style
    /// totals where each node's gauge is a level, not a high-water mark).
    pub fn gauge_total(&self, id: GaugeId) -> u64 {
        self.nodes.gauge_total(id)
    }

    /// Concatenates a series slot across every node, in node-id order.
    pub fn merged_series(&self, id: SeriesId) -> Vec<u64> {
        (0..self.nodes.nodes()).flat_map(|i| self.nodes.series(i, id)).copied().collect()
    }

    fn snapshot_inner(&self, events: Vec<TraceEvent>, events_dropped: u64) -> Telemetry {
        let nodes = (0..self.nodes.nodes())
            .filter(|&i| !self.nodes.is_zero(i))
            .map(|i| self.nodes.node_metrics(i))
            .collect();
        Telemetry {
            seed: self.seed,
            now_us: self.now_us,
            events_dropped,
            events,
            nodes,
            global: NodeMetrics::from_set(TraceEvent::GLOBAL, &self.global),
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
        self.nodes.reset();
        self.global.reset();
        snap
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
        hub.node_ctr_add(0, ctr::MSGS_SENT, 4);
        hub.node_series_push(1, series::RECOVERY_DURATION_US, 9);
        hub.global_mut().ctr_add(ctr::CRASHES, 1);
        hub.trace(0, Layer::Sim, crate::kind::MSG_DELIVER, 1, 2);

        let t = hub.drain();
        assert_eq!(t.seed, 7);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.nodes.len(), 2);
        assert_eq!(hub.counter_total(ctr::MSGS_SENT), 0, "drain must reset counters");
        assert!(hub.merged_series(series::RECOVERY_DURATION_US).is_empty());
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
            hub.node_ctr_add(i, ctr::MSGS_SENT, (i as u64) + 1);
            hub.node_series_push(i, series::RECOVERY_DURATION_US, i as u64);
        }
        assert_eq!(hub.counter_total(ctr::MSGS_SENT), 6);
        assert_eq!(hub.node_counter(1, ctr::MSGS_SENT), 2);
        assert_eq!(hub.merged_series(series::RECOVERY_DURATION_US), vec![0, 1, 2]);
    }
}
