//! Stable-storage codecs for cold-restart recovery.
//!
//! A NewsWire node persists three records to its simulated disk (see
//! `simnet::Disk`): its incarnation number (key `incar`), its subscription
//! (key `sub`), and a periodic snapshot of its durable protocol state (key
//! `state`) — per-publisher article-log coverage, cached items, and the
//! application delivery log. Everything is encoded as length-prefixed text
//! tokens (`len:content`), which keeps the format self-delimiting without
//! pulling in a serialization dependency, and keeps torn or truncated blobs
//! detectable: any decode failure makes the node fall back to an amnesiac
//! rejoin, which anti-entropy then repairs.

use std::sync::Arc;

use astrolabe::{KeyId, Signature};
use newsml::{Category, ItemId, NewsItem, PublisherId, Subject, Urgency};
use simnet::SimTime;

use crate::deliveries::{DeliveryLog, DeliveryRecord};
use crate::wire::msg_id_of;
use crate::Subscription;

/// Appends length-prefixed tokens to a growing string buffer.
#[derive(Debug, Default)]
pub(crate) struct TokenWriter {
    buf: String,
}

impl TokenWriter {
    pub(crate) fn new() -> Self {
        TokenWriter::default()
    }

    pub(crate) fn push(&mut self, tok: &str) {
        use std::fmt::Write as _;
        let _ = write!(self.buf, "{}:{}", tok.len(), tok);
    }

    pub(crate) fn push_u64(&mut self, v: u64) {
        self.push(&v.to_string());
    }

    pub(crate) fn finish(self) -> String {
        self.buf
    }
}

/// Sequential reader over a token stream; every accessor returns `None` on
/// malformed input, so decoders propagate corruption as a single failure.
#[derive(Debug)]
pub(crate) struct TokenReader<'a> {
    rest: &'a str,
}

impl<'a> TokenReader<'a> {
    pub(crate) fn new(s: &'a str) -> Self {
        TokenReader { rest: s }
    }

    pub(crate) fn next(&mut self) -> Option<&'a str> {
        let colon = self.rest.find(':')?;
        let len: usize = self.rest[..colon].parse().ok()?;
        let start = colon + 1;
        let end = start.checked_add(len)?;
        if end > self.rest.len() || !self.rest.is_char_boundary(end) {
            return None;
        }
        let tok = &self.rest[start..end];
        self.rest = &self.rest[end..];
        Some(tok)
    }

    pub(crate) fn next_u64(&mut self) -> Option<u64> {
        self.next()?.parse().ok()
    }
}

// ---------------------------------------------------------------- incarnation

/// Encodes an incarnation number for the `incar` disk record.
pub(crate) fn encode_incarnation(incarnation: u64) -> Vec<u8> {
    incarnation.to_string().into_bytes()
}

/// Decodes the `incar` disk record; `None` on corruption.
pub(crate) fn decode_incarnation(bytes: &[u8]) -> Option<u64> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

// ---------------------------------------------------------------- subscription

/// Encodes a subscription for the `sub` disk record: per-publisher category
/// bits, subject keys, and the SQL predicate source (retained verbatim so
/// recovery re-derives the exact filter).
pub(crate) fn encode_subscription(sub: &Subscription) -> Vec<u8> {
    let mut w = TokenWriter::new();
    w.push("sub1");
    w.push_u64(sub.publishers.len() as u64);
    for (p, cats) in &sub.publishers {
        w.push_u64(u64::from(p.0));
        let bits: Vec<String> = cats.iter().map(|c| c.bit().to_string()).collect();
        w.push(&bits.join(","));
    }
    w.push_u64(sub.subjects.len() as u64);
    for s in &sub.subjects {
        w.push(&s.key());
    }
    match sub.predicate_sql() {
        Some(sql) => {
            w.push("1");
            w.push(sql);
        }
        None => w.push("0"),
    }
    w.finish().into_bytes()
}

/// Decodes the `sub` disk record; `None` on corruption.
pub(crate) fn decode_subscription(bytes: &[u8]) -> Option<Subscription> {
    let mut r = TokenReader::new(std::str::from_utf8(bytes).ok()?);
    if r.next()? != "sub1" {
        return None;
    }
    let mut sub = Subscription::new();
    let publishers = r.next_u64()?;
    for _ in 0..publishers {
        let p = PublisherId(u16::try_from(r.next_u64()?).ok()?);
        for bit in r.next()?.split(',').filter(|s| !s.is_empty()) {
            sub.subscribe_category(p, Category::from_bit(bit.parse().ok()?)?);
        }
    }
    let subjects = r.next_u64()?;
    for _ in 0..subjects {
        sub.subscribe_subject(r.next()?.parse::<Subject>().ok()?);
    }
    if r.next()? == "1" {
        sub.set_predicate(r.next()?).ok()?;
    }
    Some(sub)
}

// ---------------------------------------------------------------- news items

fn encode_item(w: &mut TokenWriter, item: &NewsItem) {
    w.push_u64(u64::from(item.id.publisher.0));
    w.push_u64(item.id.seq);
    w.push_u64(u64::from(item.revision));
    match item.supersedes {
        Some(id) => w.push(&format!("{}/{}", id.publisher.0, id.seq)),
        None => w.push("-"),
    }
    w.push(&item.headline);
    w.push(&item.slug);
    let bits: Vec<String> = item.categories.iter().map(|c| c.bit().to_string()).collect();
    w.push(&bits.join(","));
    w.push_u64(item.subjects.len() as u64);
    for s in &item.subjects {
        w.push(&s.key());
    }
    w.push_u64(u64::from(item.urgency.level()));
    w.push_u64(item.issued_us);
    w.push_u64(u64::from(item.body_len));
    w.push_u64(item.meta.len() as u64);
    for (k, v) in &item.meta {
        w.push(k);
        w.push(v);
    }
}

fn decode_item(r: &mut TokenReader) -> Option<NewsItem> {
    let publisher = PublisherId(u16::try_from(r.next_u64()?).ok()?);
    let seq = r.next_u64()?;
    let revision = u32::try_from(r.next_u64()?).ok()?;
    let supersedes = match r.next()? {
        "-" => None,
        s => {
            let (p, q) = s.split_once('/')?;
            Some(ItemId::new(PublisherId(p.parse().ok()?), q.parse().ok()?))
        }
    };
    let headline = r.next()?.to_owned();
    let slug = r.next()?.to_owned();
    let mut categories = Vec::new();
    for bit in r.next()?.split(',').filter(|s| !s.is_empty()) {
        categories.push(Category::from_bit(bit.parse().ok()?)?);
    }
    let nsubjects = r.next_u64()?;
    let mut subjects = Vec::new();
    for _ in 0..nsubjects {
        subjects.push(r.next()?.parse::<Subject>().ok()?);
    }
    let level = u8::try_from(r.next_u64()?).ok()?;
    if !(1..=8).contains(&level) {
        return None;
    }
    let urgency = Urgency::new(level);
    let issued_us = r.next_u64()?;
    let body_len = u32::try_from(r.next_u64()?).ok()?;
    let nmeta = r.next_u64()?;
    let mut meta = Vec::new();
    for _ in 0..nmeta {
        let k = r.next()?.to_owned();
        let v = r.next()?.to_owned();
        meta.push((k, v));
    }
    Some(NewsItem {
        id: ItemId::new(publisher, seq),
        revision,
        supersedes,
        headline,
        slug,
        categories,
        subjects,
        urgency,
        issued_us,
        body_len,
        meta,
    })
}

// ---------------------------------------------------------------- node state

/// One persisted article log: publisher, coverage summary (see
/// `SeqLog::encode_coverage`), and the inclusive ranges of sequence numbers
/// the log had actually seen. Lost entries surface as honest gaps after
/// restore, which anti-entropy then repairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogState {
    pub(crate) publisher: PublisherId,
    pub(crate) coverage: String,
    pub(crate) present: Vec<(u64, u64)>,
}

/// The durable protocol state a node snapshots to its `state` disk record.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NodeState {
    pub(crate) logs: Vec<LogState>,
    /// Cached items with their publisher signatures, so a cold restart can
    /// re-verify every restored item instead of trusting the disk blob
    /// (DESIGN §12 — stable storage is just another admission path).
    /// Snapshots hold handles to the cached articles; a decode allocates
    /// each article anew (a disk restore is the other place, besides a
    /// publish, where an article is born).
    pub(crate) items: Vec<(Arc<NewsItem>, KeyId, Signature)>,
    pub(crate) deliveries: DeliveryLog,
    /// Adopted trust-root rotation records (encoded), persisted so a
    /// durable cold restart re-arms the revocation fence *before* it
    /// re-admits cached items — otherwise a reboot would resurrect items
    /// signed by a key revoked while the node was up. Written as an
    /// optional trailing section: nodes that never saw a rotation produce
    /// blobs byte-identical to the pre-rotation format.
    pub(crate) rotations: Vec<String>,
}

/// Encodes the `state` disk record.
pub(crate) fn encode_state(state: &NodeState) -> Vec<u8> {
    let mut w = TokenWriter::new();
    w.push("nwstate2");
    w.push_u64(state.logs.len() as u64);
    for log in &state.logs {
        w.push_u64(u64::from(log.publisher.0));
        w.push(&log.coverage);
        let ranges: Vec<String> = log.present.iter().map(|(lo, hi)| format!("{lo}-{hi}")).collect();
        w.push(&ranges.join(","));
    }
    w.push_u64(state.items.len() as u64);
    for (item, key, sig) in &state.items {
        encode_item(&mut w, item);
        w.push_u64(key.0);
        w.push_u64(sig.0);
    }
    w.push_u64(state.deliveries.len() as u64);
    for d in &state.deliveries {
        w.push_u64(u64::from(d.item.publisher.0));
        w.push_u64(d.item.seq);
        // The dissemination id is a function of the item; the token keeps
        // the record's layout.
        w.push_u64(msg_id_of(d.item));
        w.push_u64(d.published.as_micros());
        w.push_u64(d.delivered.as_micros());
        w.push(if d.via_repair { "1" } else { "0" });
    }
    if !state.rotations.is_empty() {
        w.push("rot");
        w.push_u64(state.rotations.len() as u64);
        for r in &state.rotations {
            w.push(r);
        }
    }
    w.finish().into_bytes()
}

/// Decodes the `state` disk record; `None` on corruption (the node then
/// rejoins amnesiac and lets anti-entropy backfill).
pub(crate) fn decode_state(bytes: &[u8]) -> Option<NodeState> {
    let mut r = TokenReader::new(std::str::from_utf8(bytes).ok()?);
    if r.next()? != "nwstate2" {
        return None;
    }
    let mut state = NodeState::default();
    let nlogs = r.next_u64()?;
    for _ in 0..nlogs {
        let publisher = PublisherId(u16::try_from(r.next_u64()?).ok()?);
        let coverage = r.next()?.to_owned();
        let mut present = Vec::new();
        for range in r.next()?.split(',').filter(|s| !s.is_empty()) {
            let (lo, hi) = range.split_once('-')?;
            let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
            if lo > hi {
                return None;
            }
            present.push((lo, hi));
        }
        state.logs.push(LogState { publisher, coverage, present });
    }
    let nitems = r.next_u64()?;
    for _ in 0..nitems {
        let item = Arc::new(decode_item(&mut r)?);
        let key = KeyId(r.next_u64()?);
        let sig = Signature(r.next_u64()?);
        state.items.push((item, key, sig));
    }
    let ndeliveries = r.next_u64()?;
    for _ in 0..ndeliveries {
        let publisher = PublisherId(u16::try_from(r.next_u64()?).ok()?);
        let seq = r.next_u64()?;
        r.next_u64()?; // the dissemination id, re-derived from the item
        let published = SimTime::from_micros(r.next_u64()?);
        let delivered = SimTime::from_micros(r.next_u64()?);
        let via_repair = match r.next()? {
            "1" => true,
            "0" => false,
            _ => return None,
        };
        let rec =
            DeliveryRecord { item: ItemId::new(publisher, seq), published, delivered, via_repair };
        if !state.deliveries.try_push(rec) {
            return None;
        }
    }
    // Optional trailing rotation section; absent in pre-rotation blobs.
    if let Some(tag) = r.next() {
        if tag != "rot" {
            return None;
        }
        let nrot = r.next_u64()?;
        for _ in 0..nrot {
            state.rotations.push(r.next()?.to_owned());
        }
    }
    Some(state)
}

/// Compresses a sorted iterator of sequence numbers into inclusive ranges.
pub(crate) fn compress_ranges(seqs: impl Iterator<Item = u64>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for seq in seqs {
        match out.last_mut() {
            Some((_, hi)) if *hi + 1 == seq => *hi = seq,
            _ => out.push((seq, seq)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use newsml::Category;

    fn rich_item() -> NewsItem {
        let mut item = NewsItem::builder(PublisherId(3), 17)
            .headline("markets: chips rally")
            .slug("chips-rally")
            .category(Category::Technology)
            .category(Category::Business)
            .subject("04.003.005".parse().unwrap())
            .urgency(Urgency::new(2))
            .body_len(1234)
            .meta("source", "reuters")
            .meta("desk", "markets & tech")
            .build();
        item.revision = 2;
        item.supersedes = Some(ItemId::new(PublisherId(3), 11));
        item.issued_us = 95_000_000;
        item
    }

    #[test]
    fn token_stream_roundtrip_handles_empty_and_unicode() {
        let mut w = TokenWriter::new();
        w.push("");
        w.push("héllo:world");
        w.push_u64(42);
        let s = w.finish();
        let mut r = TokenReader::new(&s);
        assert_eq!(r.next(), Some(""));
        assert_eq!(r.next(), Some("héllo:world"));
        assert_eq!(r.next_u64(), Some(42));
        assert_eq!(r.next(), None);
    }

    #[test]
    fn truncated_token_stream_decodes_to_none() {
        let mut w = TokenWriter::new();
        w.push("hello");
        let s = w.finish();
        let mut r = TokenReader::new(&s[..s.len() - 2]);
        assert_eq!(r.next(), None);
    }

    #[test]
    fn subscription_roundtrip_with_predicate() {
        let mut sub = Subscription::new();
        sub.subscribe_category(PublisherId(1), Category::Technology);
        sub.subscribe_category(PublisherId(1), Category::Science);
        sub.subscribe_category(PublisherId(4), Category::Sports);
        sub.subscribe_subject("04.003".parse().unwrap());
        sub.set_predicate("urgency <= 3").unwrap();
        let decoded = decode_subscription(&encode_subscription(&sub)).unwrap();
        assert_eq!(decoded.publishers, sub.publishers);
        assert_eq!(decoded.subjects, sub.subjects);
        assert_eq!(decoded.predicate_sql(), Some("urgency <= 3"));
        let item = NewsItem::builder(PublisherId(1), 0)
            .headline("h")
            .category(Category::Technology)
            .urgency(Urgency::new(5))
            .build();
        assert!(!decoded.matches(&item), "restored predicate must still filter");
    }

    #[test]
    fn subscription_roundtrip_without_predicate() {
        let mut sub = Subscription::new();
        sub.subscribe_category(PublisherId(0), Category::Politics);
        let decoded = decode_subscription(&encode_subscription(&sub)).unwrap();
        assert_eq!(decoded.publishers, sub.publishers);
        assert_eq!(decoded.predicate_sql(), None);
    }

    #[test]
    fn state_roundtrip_preserves_items_logs_and_deliveries() {
        let item = rich_item();
        let mut state = NodeState {
            logs: vec![LogState {
                publisher: PublisherId(3),
                coverage: "1:2:20:15".to_owned(),
                present: vec![(2, 9), (12, 19)],
            }],
            items: vec![(Arc::new(item.clone()), KeyId(11), Signature(22))],
            deliveries: DeliveryLog::default(),
            rotations: vec!["rot1|publisher:3|fake|record".to_owned()],
        };
        state.deliveries.push(DeliveryRecord {
            item: item.id,
            published: SimTime::from_micros(95_000_000),
            delivered: SimTime::from_micros(95_420_000),
            via_repair: true,
        });
        let decoded = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(*decoded.items[0].0, item, "full NewsItem fidelity incl. meta/supersedes");
        assert_eq!((decoded.items[0].1, decoded.items[0].2), (KeyId(11), Signature(22)));
    }

    #[test]
    fn corrupt_state_blob_decodes_to_none() {
        let state = NodeState::default();
        let mut bytes = encode_state(&state);
        bytes.truncate(bytes.len() - 1);
        assert!(decode_state(&bytes).is_none());
        assert!(decode_state(b"8:garbage!").is_none());
        assert!(decode_incarnation(b"not a number").is_none());
        assert_eq!(decode_incarnation(b"41"), Some(41));
    }

    #[test]
    fn a_delivery_time_past_the_repair_flag_decodes_to_none() {
        let blob = |delivered: u64| {
            let mut w = TokenWriter::new();
            w.push("nwstate2");
            for tok in [0, 0, 1, 3, 17, 0, 95_000_000, delivered] {
                w.push_u64(tok);
            }
            w.push("1");
            w.finish()
        };
        let last = decode_state(blob((1 << 63) - 1).as_bytes()).expect("the latest time fits");
        assert_eq!(
            last.deliveries.get(0).map(|d| (d.delivered.as_micros(), d.via_repair)),
            Some(((1 << 63) - 1, true))
        );
        assert!(decode_state(blob(1 << 63).as_bytes()).is_none());
    }

    #[test]
    fn compress_ranges_merges_adjacent_runs() {
        let ranges = compress_ranges([0, 1, 2, 5, 7, 8].into_iter());
        assert_eq!(ranges, vec![(0, 2), (5, 5), (7, 8)]);
        assert!(compress_ranges(std::iter::empty()).is_empty());
    }
}
