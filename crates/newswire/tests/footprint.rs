//! What a node's per-article bookkeeping keeps live, pinned with a counting
//! allocator: every node caches every article it sees, logs every seq of
//! every publisher and records every delivery, so these are the bytes that
//! grow with the feed on each of a deployment's nodes (DESIGN §8, "Where a
//! NewsWire node's memory goes").
//!
//! Each budget sits at what the current layout measures at 1,000 entries,
//! and below what the layout it replaced did: 65 B per cached entry in two
//! id-sorted vectors (73 B with a 24-byte slug-index pair before them), 16 B
//! per logged seq with or without holes, and 26 B per delivery in four
//! columns (40 B per `DeliveryRecord` in a vector before them).

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
fn a_cached_entry_costs_at_most_50_bytes_beside_its_article() {
    // The articles are the publisher's allocations: only the handles and
    // what the cache keeps beside them are counted — 33 B an entry and 16 B
    // a story, each column with its growth slack.
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
    assert!(bytes <= 50, "{bytes} B per cached entry");
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
fn a_delivery_costs_at_most_8_bytes() {
    // One record per delivered article per node; the dissemination id is
    // derived from the item, not stored. Seven bytes of varints a record
    // here, and the stream's growth slack.
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
    assert!(bytes <= 8, "{bytes} B per delivery");
}

/// Pricing a gossip message that carries a rotation rider allocates
/// nothing, on either byte lane: the rider's length was taken when the
/// record was adopted, not formatted anew per send.
#[test]
fn pricing_a_rotation_rider_allocates_nothing() {
    use astrolabe::{GossipMsg, KeyId, TrustRegistry};
    use newswire::{NewsWireMsg, RotationRider};
    use simnet::Payload;

    let mut registry = TrustRegistry::new(7);
    let claims = vec![("publisher".to_owned(), "0".to_owned())];
    let (record, _) = registry.issue_rotation("p0", KeyId(1), 0, 1, claims);
    let encoded = record.encode();
    let rider = Arc::new(RotationRider::new(Arc::new(record), &encoded));
    let msg = NewsWireMsg::Gossip { g: GossipMsg::empty_reply(), rot: Some(rider), digests: None };
    let bare = NewsWireMsg::Gossip { g: GossipMsg::empty_reply(), rot: None, digests: None };
    let (sizes, allocs) = heapcount::allocs_in(|| (msg.wire_size(), msg.compressed_wire_size()));
    assert_eq!(allocs, 0, "pricing allocated");
    assert_eq!(sizes.0, bare.wire_size() + encoded.len(), "the rider prices its encoding");
    assert_eq!(sizes.1, sizes.0);
}
