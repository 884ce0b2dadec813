//! Deterministic telemetry export.
//!
//! Exports are consumed by CI determinism gates (same seed ⇒ byte-identical
//! JSON), so everything here is integer-valued, ordered by slot id and node
//! id, and hand-serialized — no hash-map iteration, no floats, no locale.

use crate::metrics::{ctr, gauge, hist, series, MetricSet};
use crate::trace::{kind, TraceEvent};

/// Summary of a raw-sample series (integers only; exact quantiles are
/// computed by consumers from the raw samples, not here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl SeriesStats {
    /// Summarizes a sample slice.
    pub fn of(samples: &[u64]) -> SeriesStats {
        SeriesStats {
            count: samples.len() as u64,
            sum: samples.iter().sum(),
            min: samples.iter().copied().min().unwrap_or(0),
            max: samples.iter().copied().max().unwrap_or(0),
        }
    }
}

/// One node's non-zero metrics with their slots' names.
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// The node id ([`TraceEvent::GLOBAL`] for the simulation-global set).
    pub node: u32,
    /// Non-zero counters, in slot order.
    pub counters: Vec<(&'static str, u64)>,
    /// Non-zero gauges, in slot order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Non-empty histograms (bucket arrays), in slot order.
    pub hists: Vec<(&'static str, Vec<u64>)>,
    /// Non-empty series summaries, in slot order.
    pub series: Vec<(&'static str, SeriesStats)>,
}

impl NodeMetrics {
    /// Extracts the non-zero slots of `set` under their static names.
    pub fn from_set(node: u32, set: &MetricSet) -> NodeMetrics {
        NodeMetrics {
            node,
            counters: set
                .counters_nonzero()
                .map(|(id, v)| (ctr::NAMES[id.0 as usize], v))
                .collect(),
            gauges: set.gauges_nonzero().map(|(id, v)| (gauge::NAMES[id.0 as usize], v)).collect(),
            hists: set
                .hists_nonzero()
                .map(|(id, h)| (hist::NAMES[id.0 as usize], h.to_vec()))
                .collect(),
            series: set
                .series_nonzero()
                .map(|(id, s)| (series::NAMES[id.0 as usize], SeriesStats::of(s)))
                .collect(),
        }
    }

    /// True when the set held nothing worth exporting.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.series.is_empty()
    }
}

/// A drained (or snapshotted) telemetry timeline.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Master seed of the simulation that produced this.
    pub seed: u64,
    /// Simulated time at drain, µs.
    pub now_us: u64,
    /// Trace records shed by the ring's drop-oldest policy.
    pub events_dropped: u64,
    /// Retained trace records, oldest first.
    pub events: Vec<TraceEvent>,
    /// Per-node metrics (nodes with at least one non-zero slot), by node id.
    pub nodes: Vec<NodeMetrics>,
    /// The simulation-global metric set.
    pub global: NodeMetrics,
}

fn push_metric_obj(out: &mut String, m: &NodeMetrics) {
    out.push_str("{\"node\":");
    if m.node == TraceEvent::GLOBAL {
        out.push_str("\"global\"");
    } else {
        out.push_str(&m.node.to_string());
    }
    out.push_str(",\"counters\":{");
    for (i, (name, v)) in m.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in m.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"hists\":{");
    for (i, (name, buckets)) in m.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":["));
        for (j, b) in buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push(']');
    }
    out.push_str("},\"series\":{");
    for (i, (name, s)) in m.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
            s.count, s.sum, s.min, s.max
        ));
    }
    out.push_str("}}");
}

impl Telemetry {
    /// Serializes the full timeline as deterministic JSON.
    ///
    /// Key order, node order and slot order are all fixed; values are all
    /// integers or fixed strings, so two same-seed runs produce the same
    /// bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.events.len() * 64);
        out.push_str(&format!(
            "{{\"seed\":{},\"now_us\":{},\"events_dropped\":{},\"events\":[",
            self.seed, self.now_us, self.events_dropped
        ));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"t_us\":{},\"node\":{},\"layer\":\"{}\",\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.t_us,
                e.node,
                e.layer.name(),
                kind::name(e.kind),
                e.a,
                e.b
            ));
        }
        out.push_str("],\"nodes\":[");
        for (i, m) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_metric_obj(&mut out, m);
        }
        out.push_str("],\"global\":");
        push_metric_obj(&mut out, &self.global);
        out.push('}');
        out
    }

    /// Serializes the trace timeline as CSV (`t_us,node,layer,kind,a,b`),
    /// one record per line, with a header row.
    pub fn events_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.events.len() * 40);
        out.push_str("t_us,node,layer,kind,a,b\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                e.t_us,
                e.node,
                e.layer.name(),
                kind::name(e.kind),
                e.a,
                e.b
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::TelemetryHub;
    use crate::trace::Layer;

    fn sample_hub() -> TelemetryHub {
        let mut hub = TelemetryHub::new(42);
        hub.ensure_nodes(2);
        hub.set_now_us(5_000);
        hub.node_ctr_add(0, ctr::MSGS_SENT, 3);
        hub.node_series_push(1, series::RECOVERY_DURATION_US, 250);
        hub.global_mut().ctr_add(ctr::DROPS_LOSS, 1);
        hub.trace(0, Layer::News, kind::NW_PUBLISH, 77, 0);
        hub.trace(1, Layer::News, kind::NW_DELIVER, 77, 250);
        hub
    }

    #[test]
    fn json_is_deterministic_and_wellformed() {
        let a = sample_hub().snapshot().to_json();
        let b = sample_hub().snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"seed\":42,"));
        assert!(a.contains("\"kind\":\"nw_publish\""));
        assert!(a.contains("\"msgs_sent\":3"));
        assert!(a.contains(
            "\"recovery_duration_us\":{\"count\":1,\"sum\":250,\"min\":250,\"max\":250}"
        ));
        assert!(a.contains("\"node\":\"global\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn csv_lists_events_in_order() {
        let csv = sample_hub().snapshot().events_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_us,node,layer,kind,a,b");
        assert_eq!(lines[1], "5000,0,news,nw_publish,77,0");
        assert_eq!(lines[2], "5000,1,news,nw_deliver,77,250");
    }
}
