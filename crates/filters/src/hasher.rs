//! Stable, dependency-free hash functions for the filter family.
//!
//! Bloom filters need several independent hash functions whose values are
//! identical on every node (the same subscription string must map to the same
//! bit everywhere in the system), so `std`'s randomized `DefaultHasher` is
//! unusable here. We use FNV-1a with two different offsets and the classic
//! Kirsch–Mitzenmacher double-hashing construction `h_i = h1 + i·h2`.

/// FNV-1a over `data` with the standard 64-bit offset basis.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_seeded(data, 0xcbf2_9ce4_8422_2325)
}

/// FNV-1a starting from a caller-chosen basis, giving a cheap seeded hash.
pub fn fnv1a_seeded(data: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The two base hashes used by double hashing.
///
/// The second hash is forced odd so that, for power-of-two table sizes, the
/// probe sequence `h1 + i·h2 (mod m)` visits distinct slots.
pub fn base_hashes(data: &[u8]) -> (u64, u64) {
    let h1 = fnv1a(data);
    let h2 = fnv1a_seeded(data, 0x84222325_cbf29ce4) | 1;
    (h1, h2)
}

/// A fixed mix of a 64-bit key for hash tables whose layout must not depend
/// on a per-process seed: the high half folded into the low, then
/// multiplied by 2^64/φ (Fibonacci hashing), so keys that differ only in
/// their low bits or only in their high bits spread over the product's high
/// bits. Take a table slot from the high bits, `(mix(k) as u128 * len) >>
/// 64`, not the low.
pub fn mix(key: u64) -> u64 {
    (key ^ key >> 32).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The `i`-th derived hash of the Kirsch–Mitzenmacher family.
pub fn derived(h1: u64, h2: u64, i: u32) -> u64 {
    h1.wrapping_add(h2.wrapping_mul(u64::from(i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fnv1a(b"slashdot/linux"), fnv1a(b"slashdot/linux"));
        assert_eq!(base_hashes(b"x"), base_hashes(b"x"));
    }

    #[test]
    fn second_hash_is_odd() {
        for s in [&b"a"[..], b"bb", b"ccc", b""] {
            assert_eq!(base_hashes(s).1 & 1, 1);
        }
    }

    #[test]
    fn mix_spreads_low_and_high_bit_keys_over_the_top_bits() {
        let slot = |k: u64| ((u128::from(mix(k)) * 64) >> 64) as u64;
        for keys in [(0..32).collect::<Vec<u64>>(), (0..32).map(|n| n << 40).collect()] {
            let slots: std::collections::BTreeSet<u64> = keys.iter().map(|&k| slot(k)).collect();
            assert!(slots.len() >= 24, "{} slots of 64 for 32 keys", slots.len());
        }
    }

    #[test]
    fn derived_family_spreads() {
        let (h1, h2) = base_hashes(b"reuters/politics");
        let m = 1024u64;
        let slots: std::collections::HashSet<u64> =
            (0..8).map(|i| derived(h1, h2, i) % m).collect();
        assert!(slots.len() >= 7, "family collapsed: {slots:?}");
    }
}
