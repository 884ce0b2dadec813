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
use obs::{kind, Layer, TraceEvent, TraceRing};

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
    // NewsWire deliveries: `a` is a 64-bit message id.
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
