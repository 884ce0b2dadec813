//! What a full trace ring keeps live, pinned with a counting allocator:
//! every run carries one ring of `DEFAULT_RING_CAPACITY` records and fills
//! it, so these are bytes every run pays.
//!
//! An unpacked ring costs 32 B a record (one `TraceEvent` per slot). The
//! packed ring measures 10.3 B a record on engine records, whose fields
//! all fit the 10-byte short form, and 30.4 B when every record takes the
//! 30-byte long form. Each budget sits a little above what it measures.

use heapcount::live_after;
use obs::trace::DEFAULT_RING_CAPACITY;
use obs::{ctr, gauge, hist, kind, Layer, TelemetryHub, TraceEvent, TraceRing};

/// Fills a default ring three times over with `record(0..)` and returns
/// the heap bytes it holds per retained record.
fn bytes_per_record(record: impl Fn(u64) -> TraceEvent) -> f64 {
    let (ring, live) = live_after(|| {
        let mut ring = TraceRing::default();
        for n in 0..3 * DEFAULT_RING_CAPACITY as u64 {
            ring.push(record(n));
        }
        ring
    });
    assert_eq!(ring.len(), DEFAULT_RING_CAPACITY);
    assert_eq!(ring.heap_bytes() as i64, live, "heap_bytes agrees with the allocator");
    live as f64 / DEFAULT_RING_CAPACITY as f64
}

#[test]
fn a_full_ring_of_engine_records_costs_at_most_10_5_bytes_a_record() {
    // A message around a 300-node ring: delivered at its successor from
    // its predecessor, one byte, forty deliveries a microsecond.
    let bytes = bytes_per_record(|n| TraceEvent {
        t_us: n / 40,
        a: (n + 299) % 300,
        b: 1,
        node: (n % 300) as u32,
        layer: Layer::Sim,
        kind: kind::MSG_DELIVER,
    });
    assert!(bytes <= 10.5, "{bytes:.2} B a record");
}

#[test]
fn a_full_ring_of_long_records_costs_no_more_than_an_unpacked_one() {
    // Records with a 64-bit operand, as NewsWire's article records were
    // before they named the item by its trace key.
    let bytes = bytes_per_record(|n| TraceEvent {
        t_us: 1_000 * n,
        a: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        b: 40_000 + n % 1_000,
        node: (n % 300) as u32,
        layer: Layer::News,
        kind: kind::NW_DELIVER,
    });
    assert!(bytes <= 31.0, "{bytes:.2} B a record");
}

/// A hub's per-node metrics are one column per touched slot: 2,000 nodes
/// that each bump the engine's five traffic counters and six gossip
/// counters, set a gauge and record into both histograms hold 8 B a slot
/// and 8 B a bucket per node, 272 B in all, plus each slot table's
/// headers once. `node_metrics_heap_bytes` agrees with the allocator.
#[test]
fn per_node_metrics_cost_eight_bytes_a_touched_slot_per_node() {
    const NODES: usize = 2_000;
    let (hub, live) = live_after(|| {
        let mut hub = TelemetryHub::new(1);
        hub.ensure_nodes(NODES);
        let slots = [
            ctr::MSGS_SENT,
            ctr::BYTES_SENT,
            ctr::MSGS_RECV,
            ctr::BYTES_RECV,
            ctr::TIMERS_FIRED,
            ctr::GOSSIP_ROUNDS,
            ctr::GOSSIP_BYTES_SENT,
            ctr::GOSSIP_DIGESTS_SENT,
            ctr::GOSSIP_ROWS_MERGED,
            ctr::AGG_CACHE_HITS,
            ctr::PEERS_CACHE_HITS,
        ];
        for node in 0..NODES {
            for (k, &slot) in slots.iter().enumerate() {
                hub.node_ctr_add(node, slot, (node + k) as u64);
            }
            hub.node_gauge_set(node, gauge::ASTRO_ROWS_HELD, 42);
            hub.node_hist_record(node, hist::GOSSIP_DIGEST_BYTES, 700);
            hub.node_hist_record(node, hist::GOSSIP_DIFF_ROWS, 3);
        }
        hub
    });
    assert_eq!(hub.node_metrics_heap_bytes() as i64, live, "heap bytes agree with the allocator");
    let per_node = live as f64 / NODES as f64;
    assert!(per_node <= 272.0 + 2.0, "{per_node:.1} B a node");
}
