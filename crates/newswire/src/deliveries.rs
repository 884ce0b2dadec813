//! The application delivery log: one record per article a node delivered,
//! in delivery order, kept column by column.

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

/// The top bit of a stored delivery time: set when the record came via
/// repair. Delivery times stay below it (2^63 µs is ≈ 292,000 years).
const VIA_REPAIR: u64 = 1 << 63;

/// A node's deliveries in order, 26 bytes a record: a seq, a publisher, the
/// publish time, and the delivery time with `via_repair` as its top bit.
/// A `Vec<DeliveryRecord>` spends 40, because an [`ItemId`] pads its `u16`
/// publisher to 8 bytes and the flag pads to 8 more. Records are read by
/// value: `for rec in &log` yields each [`DeliveryRecord`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DeliveryLog {
    seqs: Vec<u64>,
    publishers: Vec<PublisherId>,
    published: Vec<SimTime>,
    delivered: Vec<u64>,
}

impl DeliveryLog {
    /// Appends `rec`.
    ///
    /// # Panics
    ///
    /// Panics if `rec.delivered` is 2^63 µs or later.
    pub fn push(&mut self, rec: DeliveryRecord) {
        assert!(self.try_push(rec), "delivery time {:?} out of range", rec.delivered);
    }

    /// Appends `rec` unless its delivery time is 2^63 µs or later, which no
    /// record can hold; returns whether it was appended.
    pub(crate) fn try_push(&mut self, rec: DeliveryRecord) -> bool {
        let delivered = rec.delivered.as_micros();
        if delivered >= VIA_REPAIR {
            return false;
        }
        self.seqs.push(rec.item.seq);
        self.publishers.push(rec.item.publisher);
        self.published.push(rec.published);
        self.delivered.push(if rec.via_repair { delivered | VIA_REPAIR } else { delivered });
        true
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The `i`th delivery, oldest first.
    pub fn get(&self, i: usize) -> Option<DeliveryRecord> {
        let delivered = *self.delivered.get(i)?;
        Some(DeliveryRecord {
            item: ItemId::new(self.publishers[i], self.seqs[i]),
            published: self.published[i],
            delivered: SimTime::from_micros(delivered & !VIA_REPAIR),
            via_repair: delivered & VIA_REPAIR != 0,
        })
    }

    /// The deliveries in order, by value.
    pub fn iter(&self) -> DeliveryIter<'_> {
        DeliveryIter { log: self, at: 0 }
    }

    /// Forgets every delivery (an amnesiac restart).
    pub fn clear(&mut self) {
        self.seqs.clear();
        self.publishers.clear();
        self.published.clear();
        self.delivered.clear();
    }

    /// Heap bytes the columns have allocated, capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.seqs.capacity() * 8
            + self.publishers.capacity() * std::mem::size_of::<PublisherId>()
            + self.published.capacity() * std::mem::size_of::<SimTime>()
            + self.delivered.capacity() * 8
    }
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

/// The records of a [`DeliveryLog`], in delivery order.
#[derive(Debug, Clone)]
pub struct DeliveryIter<'a> {
    log: &'a DeliveryLog,
    at: usize,
}

impl Iterator for DeliveryIter<'_> {
    type Item = DeliveryRecord;

    fn next(&mut self) -> Option<DeliveryRecord> {
        let rec = self.log.get(self.at)?;
        self.at += 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.log.len() - self.at;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{decode_state, encode_state, NodeState};

    /// A record from three random words: seqs over the whole `u64` range,
    /// a few publishers, times below the flag bit.
    fn record(a: u64, b: u64, c: u64) -> DeliveryRecord {
        let seq = match a % 4 {
            0 => u64::MAX - b % 3,
            1 => a.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            _ => b % 64,
        };
        DeliveryRecord {
            item: ItemId::new(PublisherId((c % 5) as u16 * 13_107), seq),
            published: SimTime::from_micros(b.wrapping_mul(c) % VIA_REPAIR),
            delivered: SimTime::from_micros(if c.is_multiple_of(7) {
                VIA_REPAIR - 1
            } else {
                c % 1_000
            }),
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
        for i in [probe % (model.len() + 2), 0, model.len()] {
            assert_eq!(log.get(i), model.get(i).copied(), "get {i}");
        }
        assert!((&log.clone()).into_iter().eq(model.iter().copied()), "clone");
        assert_eq!(*log, log.clone());
    }

    proptest::proptest! {
        /// The columns answer as the `Vec<DeliveryRecord>` they replaced:
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

    #[test]
    fn a_delivery_time_the_flag_bit_would_hide_is_refused() {
        let mut log = DeliveryLog::default();
        let late = DeliveryRecord {
            item: ItemId::new(PublisherId(1), 2),
            published: SimTime::ZERO,
            delivered: SimTime::from_micros(VIA_REPAIR),
            via_repair: false,
        };
        assert!(!log.try_push(late));
        assert!(log.is_empty());
        let last = DeliveryRecord { delivered: SimTime::from_micros(VIA_REPAIR - 1), ..late };
        assert!(log.try_push(last));
        assert_eq!(log.get(0), Some(last));
    }
}
