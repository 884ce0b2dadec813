//! What a node's per-article bookkeeping keeps live, pinned with a counting
//! allocator: every node caches every article it sees and logs every seq
//! of every publisher, so these are the bytes that grow with the feed on
//! each of a deployment's nodes (DESIGN §8, "Where a NewsWire node's memory
//! goes").
//!
//! Each budget sits just above what the flat layout measures and below
//! what the map-backed one it replaced did (143 B per cached entry and
//! 26 B per logged seq at 1,000 entries; a 48-byte delivery record).

// The cache's unsigned insert is its own test surface (clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use amcast::SeqLog;
use newsml::{NewsItem, PublisherId};
use newswire::{DeliveryRecord, LogEntry, MessageCache};
use simnet::SimTime;

thread_local! {
    // Per thread, so tests running in parallel do not see each other.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn add(bytes: i64) {
    LIVE.with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning what it made with the bytes of it still live.
fn live_after<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

const ENTRIES: usize = 1_000;

/// Two publishers' articles interleaved, each publisher's in seq order —
/// the order a node's cache takes a clean feed in.
fn feed() -> Vec<Arc<NewsItem>> {
    (0..ENTRIES as u64)
        .map(|n| {
            let item = NewsItem::builder(PublisherId((n % 2) as u16), n / 2)
                .headline(format!("story {n}"))
                .build();
            Arc::new(item)
        })
        .collect()
}

#[test]
fn a_cached_entry_costs_at_most_76_bytes_beside_its_article() {
    const BUDGET: i64 = 76;
    // The articles are the publisher's allocations: only the handles and
    // what the cache keeps beside them are counted.
    let feed = feed();
    let (cache, live) = live_after(|| {
        let mut cache = MessageCache::default();
        for (n, item) in feed.iter().enumerate() {
            cache.insert(Arc::clone(item), SimTime::from_micros(1_000 * n as u64));
        }
        cache
    });
    assert_eq!(cache.len(), ENTRIES);
    let per_entry = live / ENTRIES as i64;
    assert!(per_entry <= BUDGET, "{per_entry} B per cached entry ({live} B for {ENTRIES})");
}

#[test]
fn a_logged_seq_costs_at_most_18_bytes() {
    const BUDGET: i64 = 18;
    let (log, live) = live_after(|| {
        let mut log = SeqLog::new(8_192);
        for seq in 0..ENTRIES as u64 {
            log.insert(seq, LogEntry::Held);
        }
        log
    });
    assert_eq!(log.len(), ENTRIES);
    let per_entry = live / ENTRIES as i64;
    assert!(per_entry <= BUDGET, "{per_entry} B per logged seq ({live} B for {ENTRIES})");
}

#[test]
fn a_delivery_record_is_at_most_40_bytes() {
    // One per delivered article per node; the dissemination id is derived
    // from the item, not stored.
    assert!(std::mem::size_of::<DeliveryRecord>() <= 40);
}
