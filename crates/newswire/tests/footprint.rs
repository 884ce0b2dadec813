//! What a node's per-article bookkeeping keeps live, pinned with a counting
//! allocator: every node caches every article it sees, logs every seq of
//! every publisher and records every delivery, so these are the bytes that
//! grow with the feed on each of a deployment's nodes (DESIGN §8, "Where a
//! NewsWire node's memory goes").
//!
//! Each budget sits at what the current layout measures at 1,000 entries,
//! and below what the layout it replaced did: 73 B per cached entry with a
//! 24-byte slug-index pair, 16 B per logged seq with or without holes, and
//! 40 B per `DeliveryRecord` in a vector.

// The cache's unsigned insert is its own test surface (clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;

use amcast::SeqLog;
use heapcount::live_after;
use newsml::{ItemId, NewsItem, PublisherId};
use newswire::{DeliveryLog, DeliveryRecord, LogEntry, MessageCache};
use simnet::SimTime;

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

/// Bytes per entry of what `fill` leaves live, once it holds `ENTRIES`.
fn per_entry<T>(fill: impl FnOnce() -> T, len: impl Fn(&T) -> usize) -> i64 {
    let (built, live) = live_after(fill);
    assert_eq!(len(&built), ENTRIES);
    live / ENTRIES as i64
}

#[test]
fn a_cached_entry_costs_at_most_65_bytes_beside_its_article() {
    // The articles are the publisher's allocations: only the handles and
    // what the cache keeps beside them are counted.
    let feed = feed();
    let bytes = per_entry(
        || {
            let mut cache = MessageCache::default();
            for (n, item) in feed.iter().enumerate() {
                cache.insert(Arc::clone(item), SimTime::from_micros(1_000 * n as u64));
            }
            cache
        },
        MessageCache::len,
    );
    assert!(bytes <= 65, "{bytes} B per cached entry");
}

/// A log of the first seqs that `keep` admits, until it holds `ENTRIES`.
fn logged(keep: impl Fn(u64) -> bool) -> SeqLog<LogEntry> {
    let mut log = SeqLog::new(8_192);
    for seq in (0..).filter(|&s| keep(s)).take(ENTRIES) {
        log.insert(seq, LogEntry::Held);
    }
    log
}

#[test]
fn a_logged_seq_costs_at_most_5_bytes_without_holes() {
    let bytes = per_entry(|| logged(|_| true), SeqLog::len);
    assert!(bytes <= 5, "{bytes} B per logged seq");
}

#[test]
fn a_logged_seq_costs_at_most_12_bytes_with_every_third_missing() {
    // One run header per two seqs: the worst a lossy feed's log sits at
    // before reconcile closes its holes.
    let bytes = per_entry(|| logged(|s| s % 3 != 2), SeqLog::len);
    assert!(bytes <= 12, "{bytes} B per logged seq");
}

#[test]
fn a_delivery_costs_at_most_26_bytes() {
    // One record per delivered article per node; the dissemination id is
    // derived from the item, not stored.
    let bytes = per_entry(
        || {
            let mut log = DeliveryLog::default();
            for n in 0..ENTRIES as u64 {
                log.push(DeliveryRecord {
                    item: ItemId::new(PublisherId((n % 2) as u16), n / 2),
                    published: SimTime::from_micros(1_000 * n),
                    delivered: SimTime::from_micros(1_000 * n + 90_000),
                    via_repair: n % 50 == 0,
                });
            }
            log
        },
        DeliveryLog::len,
    );
    assert!(bytes <= 26, "{bytes} B per delivery");
}
