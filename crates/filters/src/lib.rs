//! # filters — subscription summaries for the NewsWire hierarchy
//!
//! Paper §6–§7 describe two generations of subscription summary that travel
//! up the Astrolabe zone tree and gate forwarding decisions on the way down:
//!
//! * [`CategoryMask`] — the early prototype: an exact per-publisher bitmask
//!   of news categories, OR-aggregated at every level.
//! * [`BloomFilter`] — the scalable replacement: subscriptions hash into "a
//!   large single bit array in the order of a thousand bits or more", also
//!   OR-aggregated; publishers ship an item's bit [`positions`] and every
//!   forwarder tests them against the child zone's aggregate.
//!
//! Both rest on [`BitArray`], a plain dynamic bitset, and on the stable
//! dependency-free hashes in [`fnv1a`]/[`base_hashes`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitarray;
mod bitmask;
mod bloom;
mod hasher;

pub use bitarray::BitArray;
pub use bitmask::CategoryMask;
pub use bloom::{positions, BloomFilter};
pub use hasher::{base_hashes, derived, fnv1a, fnv1a_seeded, mix};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A Bloom filter never forgets an inserted key.
        #[test]
        fn bloom_no_false_negatives(keys in proptest::collection::vec("[a-z]{1,12}", 1..60)) {
            let mut f = BloomFilter::new(2048, 3);
            for k in &keys { f.insert(k); }
            for k in &keys { prop_assert!(f.contains(k)); }
        }

        /// Union equals inserting into one filter (merge = set union).
        #[test]
        fn bloom_union_equals_combined_inserts(
            xs in proptest::collection::vec("[a-z]{1,8}", 0..30),
            ys in proptest::collection::vec("[a-z]{1,8}", 0..30),
        ) {
            let mut a = BloomFilter::new(1024, 3);
            let mut b = BloomFilter::new(1024, 3);
            for k in &xs { a.insert(k); }
            for k in &ys { b.insert(k); }
            let mut merged = a.clone();
            merged.union(&b);
            let mut direct = BloomFilter::new(1024, 3);
            for k in xs.iter().chain(&ys) { direct.insert(k); }
            prop_assert_eq!(merged, direct);
        }

        /// Bloom union is commutative and idempotent — required for gossip:
        /// aggregates may be recomputed in any order, any number of times.
        #[test]
        fn bloom_union_commutative_idempotent(
            xs in proptest::collection::vec("[a-z]{1,8}", 0..20),
            ys in proptest::collection::vec("[a-z]{1,8}", 0..20),
        ) {
            let mut a = BloomFilter::new(512, 4);
            let mut b = BloomFilter::new(512, 4);
            for k in &xs { a.insert(k); }
            for k in &ys { b.insert(k); }
            let mut ab = a.clone(); ab.union(&b);
            let mut ba = b.clone(); ba.union(&a);
            prop_assert_eq!(&ab, &ba);
            let mut abb = ab.clone(); abb.union(&b);
            prop_assert_eq!(&ab, &abb);
        }

        /// Bit-array byte serialization round-trips.
        #[test]
        fn bitarray_bytes_roundtrip(len in 1usize..300, ones in proptest::collection::vec(0usize..300, 0..40)) {
            let mut a = BitArray::new(len);
            for o in ones { if o < len { a.set(o); } }
            prop_assert_eq!(BitArray::from_bytes(len, &a.to_bytes()), a);
        }

        /// Mask union is exactly bitwise OR of memberships.
        #[test]
        fn mask_union_semantics(xs in proptest::collection::vec(0u8..64, 0..20),
                                ys in proptest::collection::vec(0u8..64, 0..20)) {
            let a = CategoryMask::from_categories(xs.iter().copied());
            let b = CategoryMask::from_categories(ys.iter().copied());
            let u = a | b;
            for c in 0..64u8 {
                prop_assert_eq!(u.contains(c), a.contains(c) || b.contains(c));
            }
        }

        /// Double-hash positions are always in range and deterministic.
        #[test]
        fn positions_in_range(key in "[ -~]{0,24}", m in 8usize..4096, k in 1u32..8) {
            let p1 = positions(&key, m, k);
            let p2 = positions(&key, m, k);
            prop_assert_eq!(&p1, &p2);
            prop_assert_eq!(p1.len(), k as usize);
            prop_assert!(p1.iter().all(|&p| p < m));
        }
    }
}
