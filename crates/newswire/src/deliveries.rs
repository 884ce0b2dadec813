//! The application delivery log: one record per article a node delivered,
//! in delivery order, kept as one stream of varints.

use std::fmt;

use newsml::{ItemId, PublisherId};
use simnet::SimTime;

/// One successful delivery to the local application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The delivered item (its dissemination id is `msg_id_of(item)`).
    pub item: ItemId,
    /// Publisher issue time.
    pub published: SimTime,
    /// Local delivery time.
    pub delivered: SimTime,
    /// True when the item arrived out of a peer's cache — a reconcile
    /// reply — rather than down the multicast tree (a re-sent `Deliver`
    /// included).
    pub via_repair: bool,
}

/// A node's deliveries in order, about 8 bytes a record: one append-only
/// stream of varints, four a record —
///
/// - the publisher shifted left once, `via_repair` in the low bit;
/// - the seq, zigzagged, as a step from the previous record's seq;
/// - the delivery time, zigzagged, as a step from the previous record's;
/// - the publish time, zigzagged, as an offset back from its own delivery.
///
/// Deliveries come in time order and a feed's seqs rise, so most steps fit
/// a byte or three. A `Vec<DeliveryRecord>` spends 40 bytes a record,
/// because an [`ItemId`] pads its `u16` publisher to 8 bytes and the flag
/// pads to 8 more. Records are read by value and in order only: `for rec in
/// &log` decodes each [`DeliveryRecord`] in turn. Every step wraps, so any
/// record a `DeliveryRecord` can hold round-trips.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DeliveryLog {
    stream: Vec<u8>,
    len: usize,
    /// The last record's seq and delivery time, the bases of the next
    /// record's steps.
    last: Cursor,
}

/// The state a record's steps are taken from: the seq and the delivery time
/// (µs) of the record before it, zero before the first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cursor {
    seq: u64,
    delivered: u64,
}

impl DeliveryLog {
    /// Appends `rec`.
    pub fn push(&mut self, rec: DeliveryRecord) {
        let (seq, delivered) = (rec.item.seq, rec.delivered.as_micros());
        let out = &mut self.stream;
        put_varint(out, u64::from(rec.item.publisher.0) << 1 | u64::from(rec.via_repair));
        put_varint(out, zigzag(seq.wrapping_sub(self.last.seq)));
        put_varint(out, zigzag(delivered.wrapping_sub(self.last.delivered)));
        put_varint(out, zigzag(delivered.wrapping_sub(rec.published.as_micros())));
        self.last = Cursor { seq, delivered };
        self.len += 1;
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The deliveries in order, by value.
    pub fn iter(&self) -> DeliveryIter<'_> {
        DeliveryIter { stream: &self.stream, left: self.len, last: Cursor::default() }
    }

    /// Forgets every delivery (an amnesiac restart).
    pub fn clear(&mut self) {
        self.stream.clear();
        self.len = 0;
        self.last = Cursor::default();
    }

    /// Heap bytes the stream has allocated, capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.stream.capacity()
    }
}

/// Maps a two's-complement step to an unsigned one whose magnitude sets
/// its size: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
fn zigzag(step: u64) -> u64 {
    (step << 1) ^ ((step as i64 >> 63) as u64)
}

/// The step [`zigzag`] mapped to `z`.
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Appends `v` seven bits a byte, low bits first, the top bit set on every
/// byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Takes the varint [`put_varint`] wrote off the front of `input`.
fn take_varint(input: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    for (i, &b) in input.iter().enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            *input = &input[i + 1..];
            return v;
        }
    }
    unreachable!("a delivery log's stream ends on a whole record");
}

impl fmt::Debug for DeliveryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a DeliveryLog {
    type Item = DeliveryRecord;
    type IntoIter = DeliveryIter<'a>;

    fn into_iter(self) -> DeliveryIter<'a> {
        self.iter()
    }
}

/// The records of a [`DeliveryLog`], decoded in delivery order.
#[derive(Debug, Clone)]
pub struct DeliveryIter<'a> {
    stream: &'a [u8],
    left: usize,
    last: Cursor,
}

impl Iterator for DeliveryIter<'_> {
    type Item = DeliveryRecord;

    fn next(&mut self) -> Option<DeliveryRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let input = &mut self.stream;
        let head = take_varint(input);
        let seq = self.last.seq.wrapping_add(unzigzag(take_varint(input)));
        let delivered = self.last.delivered.wrapping_add(unzigzag(take_varint(input)));
        let published = delivered.wrapping_sub(unzigzag(take_varint(input)));
        self.last = Cursor { seq, delivered };
        Some(DeliveryRecord {
            item: ItemId::new(PublisherId((head >> 1) as u16), seq),
            published: SimTime::from_micros(published),
            delivered: SimTime::from_micros(delivered),
            via_repair: head & 1 != 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{decode_state, encode_state, NodeState};

    /// A record from three random words: seqs over the whole `u64` range
    /// and near its top, publishers up to `u16::MAX`, delivery times that
    /// step back as well as forward, over the whole `u64` range, and publish
    /// times on both sides of them.
    fn record(a: u64, b: u64, c: u64) -> DeliveryRecord {
        let seq = match a % 4 {
            0 => u64::MAX - b % 3,
            1 => a.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            _ => b % 64,
        };
        let publisher = match c % 5 {
            0 => u16::MAX,
            n => (n as u16 - 1) * 13_107,
        };
        let delivered = match c % 7 {
            0 => u64::MAX - b % 2,
            1 => 0,
            _ => c % 1_000,
        };
        let published = match b % 4 {
            // Published after it was delivered: a clock the record does not
            // order.
            0 => delivered.saturating_add(b % 5_000),
            1 => u64::MAX,
            _ => b.wrapping_mul(c),
        };
        DeliveryRecord {
            item: ItemId::new(PublisherId(publisher), seq),
            published: SimTime::from_micros(published),
            delivered: SimTime::from_micros(delivered),
            via_repair: b.is_multiple_of(3),
        }
    }

    fn agree(log: &DeliveryLog, model: &[DeliveryRecord], probe: usize) {
        assert_eq!(log.len(), model.len());
        assert_eq!(log.is_empty(), model.is_empty());
        assert!(log.iter().eq(model.iter().copied()), "iter");
        assert_eq!(log.iter().size_hint(), (model.len(), Some(model.len())));
        let mut both = log.iter();
        both.nth(probe % (model.len() + 1));
        assert!(both.eq(model.iter().skip(probe % (model.len() + 1) + 1).copied()), "nth");
        assert_eq!(log.iter().next(), model.first().copied(), "first");
        assert!((&log.clone()).into_iter().eq(model.iter().copied()), "clone");
        assert_eq!(*log, log.clone());
    }

    proptest::proptest! {
        /// The stream answers as the `Vec<DeliveryRecord>` it replaced:
        /// after every push, clear and disk round trip of a seeded run.
        #[test]
        fn the_delivery_log_matches_a_vector_of_records(
            ops in proptest::collection::vec((0u8..12, 0u64..u64::MAX, 0u64..1 << 40), 1..80),
        ) {
            let mut log = DeliveryLog::default();
            let mut model: Vec<DeliveryRecord> = Vec::new();
            for (op, a, b) in ops {
                match op {
                    // An amnesiac restart forgets every delivery.
                    0 => {
                        log.clear();
                        model.clear();
                    }
                    // A disk snapshot and its restore: the same bytes as
                    // the records' own tokens, decoded to the same log.
                    1 => {
                        let state = NodeState { deliveries: log.clone(), ..NodeState::default() };
                        let bytes = encode_state(&state);
                        let decoded = decode_state(&bytes).expect("a written snapshot decodes");
                        assert_eq!(bytes, model_bytes(&model));
                        log = decoded.deliveries;
                    }
                    _ => {
                        let rec = record(a, b, a ^ b);
                        log.push(rec);
                        model.push(rec);
                    }
                }
                agree(&log, &model, (a % 97) as usize);
            }
        }
    }

    /// What the snapshot codec wrote for `deliveries` as a
    /// `Vec<DeliveryRecord>`: the count, then six tokens a record.
    fn model_bytes(deliveries: &[DeliveryRecord]) -> Vec<u8> {
        let mut w = crate::persist::TokenWriter::new();
        w.push("nwstate2");
        w.push_u64(0);
        w.push_u64(0);
        w.push_u64(deliveries.len() as u64);
        for d in deliveries {
            w.push_u64(u64::from(d.item.publisher.0));
            w.push_u64(d.item.seq);
            w.push_u64(crate::wire::msg_id_of(d.item));
            w.push_u64(d.published.as_micros());
            w.push_u64(d.delivered.as_micros());
            w.push(if d.via_repair { "1" } else { "0" });
        }
        w.finish().into_bytes()
    }

    /// The edges the random records reach only now and then, each in a log
    /// of its own and then all in one, cleared halfway and refilled.
    #[test]
    fn every_edge_of_a_record_round_trips() {
        let at =
            |publisher: u16, seq: u64, published: u64, delivered: u64, via_repair| DeliveryRecord {
                item: ItemId::new(PublisherId(publisher), seq),
                published: SimTime::from_micros(published),
                delivered: SimTime::from_micros(delivered),
                via_repair,
            };
        let cases: [&[DeliveryRecord]; 5] = [
            // Published after it was delivered.
            &[at(1, 0, 9_000, 5_000, false), at(1, 1, u64::MAX, 0, true)],
            // Delivery times that go backwards, to zero and from the top.
            &[at(0, 3, 0, u64::MAX, false), at(0, 4, 0, 7, false), at(0, 5, 0, 0, true)],
            // The highest publisher, beside the lowest.
            &[at(u16::MAX, 1, 1, 2, true), at(0, 1, 1, 2, false), at(u16::MAX, 0, 0, 0, true)],
            // Seqs near the top, stepping over the wrap both ways.
            &[at(2, u64::MAX, 1, 2, false), at(2, 0, 1, 2, false), at(2, u64::MAX - 1, 1, 2, true)],
            // The first record's steps are taken from zero.
            &[at(3, 0, 0, 0, false)],
        ];
        let mut all = DeliveryLog::default();
        let mut model = Vec::new();
        for records in cases {
            let mut log = DeliveryLog::default();
            for &rec in records {
                log.push(rec);
                all.push(rec);
            }
            model.extend_from_slice(records);
            agree(&log, records, 1);
            agree(&all, &model, 2);
        }
        // A clear mid-stream starts the steps over: the refilled log is the
        // one a fresh log would be.
        all.clear();
        agree(&all, &[], 0);
        let mut fresh = DeliveryLog::default();
        for &rec in model.iter().rev() {
            all.push(rec);
            fresh.push(rec);
        }
        assert_eq!(all, fresh);
        model.reverse();
        agree(&all, &model, 3);
    }
}
