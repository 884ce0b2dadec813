//! Observability substrate for the NewsWire reproduction.
//!
//! Every experiment table in the paper is quantitative, and every chaos or
//! partition run that misbehaves needs a story better than `println!`. This
//! crate provides the three pieces the whole stack shares:
//!
//! 1. **Sim-time structured tracing** ([`trace_event!`]): plain in-memory
//!    [`TraceEvent`] records pushed into a per-[`TelemetryHub`] ring buffer
//!    ([`TraceRing`], drop-oldest on overflow). Records carry the simulated
//!    timestamp, node, layer, kind and two 64-bit operands; correlated kinds
//!    (publish→deliver, hand-off arm→ack) share their `a` operand. A record
//!    is 32 bytes unpacked; the ring packs it into 10 bytes when its fields
//!    are small (30 when not), so a full default ring of engine records
//!    holds about 0.68 MB, not 2 MiB.
//! 2. **A per-node metrics registry** ([`TelemetryHub`]'s per-node
//!    columns and the global [`MetricSet`], indexed by the slot constants in
//!    [`ctr`], [`gauge`], [`hist`] and [`series`], whose static `NAMES`
//!    tables name them in exports): typed counters/gauges/histograms/series,
//!    so the hot path is an array index, and each slot any node touched is
//!    one array across nodes.
//!    Every counter of every layer is stored here and read by its one slot
//!    constant; the simulator's `TrafficCounters` and `FaultCounters` are
//!    views read from it.
//! 3. **Deterministic telemetry export** ([`Telemetry`]): a JSON/CSV
//!    snapshot with stable ordering and integer-only values, so same-seed
//!    runs drain byte-identical telemetry (CI enforces this).
//!
//! Counters are always on: the registry is the one place a counter lives.
//! Tracing is sized at run time by the ring's capacity
//! ([`TelemetryHub::set_ring_capacity`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod export;
pub mod hub;
pub mod metrics;
pub mod trace;

pub use export::{NodeMetrics, SeriesStats, Telemetry};
pub use hub::TelemetryHub;
pub use metrics::{ctr, gauge, hist, series, CtrId, GaugeId, HistId, MetricSet, SeriesId};
pub use trace::{kind, Layer, TraceEvent, TraceRing};

/// Emits one structured trace record into the currently installed hub.
///
/// `trace_event!(node, layer, kind)`, with optional `a` and `b` operand
/// expressions (converted `as u64`). A no-op when no hub is installed
/// (i.e. outside a simulation callback).
///
/// ```
/// use obs::{trace_event, Layer, kind};
/// trace_event!(3, Layer::News, kind::NW_PUBLISH, 17u64);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($node:expr, $layer:expr, $kind:expr) => {
        $crate::trace_event!($node, $layer, $kind, 0u64, 0u64)
    };
    ($node:expr, $layer:expr, $kind:expr, $a:expr) => {
        $crate::trace_event!($node, $layer, $kind, $a, 0u64)
    };
    ($node:expr, $layer:expr, $kind:expr, $a:expr, $b:expr) => {
        $crate::collector::emit(($node) as u32, $layer, $kind, ($a) as u64, ($b) as u64)
    };
}

/// Adds `v` to a per-node counter slot in the currently installed hub.
#[macro_export]
macro_rules! metric_add {
    ($node:expr, $id:expr, $v:expr) => {
        $crate::collector::counter_add(($node) as u32, $id, ($v) as u64)
    };
}

/// Sets a per-node gauge slot in the currently installed hub.
#[macro_export]
macro_rules! gauge_set {
    ($node:expr, $id:expr, $v:expr) => {
        $crate::collector::gauge_set(($node) as u32, $id, ($v) as u64)
    };
}

/// Raises a per-node gauge slot to `v` if `v` is larger (high-water mark).
#[macro_export]
macro_rules! gauge_max {
    ($node:expr, $id:expr, $v:expr) => {
        $crate::collector::gauge_max(($node) as u32, $id, ($v) as u64)
    };
}

/// Records `v` into a per-node histogram slot in the currently installed hub.
#[macro_export]
macro_rules! hist_record {
    ($node:expr, $id:expr, $v:expr) => {
        $crate::collector::hist_record(($node) as u32, $id, ($v) as u64)
    };
}

/// Appends a raw sample to a per-node series slot (exact-quantile data).
#[macro_export]
macro_rules! series_record {
    ($node:expr, $id:expr, $v:expr) => {
        $crate::collector::series_record(($node) as u32, $id, ($v) as u64)
    };
}
