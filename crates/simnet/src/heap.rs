//! Heap bytes of the standard collections, from their lengths and
//! capacities, laid out as the standard library lays them out: what a
//! footprint report (a NewsWire node's, an Astrolabe agent's) adds up
//! without a counting allocator.

use std::mem::{align_of, size_of};

/// Bytes a `HashMap<K, V>` with `capacity()` of `capacity` has allocated:
/// its buckets (a power of two, at least 8/7 of the capacity from 8 up),
/// then one control byte per bucket and a 16-byte group.
pub fn hash_map_bytes<K, V>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 { capacity + 1 } else { capacity / 7 * 8 };
    let ctrl_align = align_of::<(K, V)>().max(16);
    (size_of::<(K, V)>() * buckets).next_multiple_of(ctrl_align) + buckets + 16
}

/// Bytes an `Arc` block holding a `payload`-byte value allocates: the two
/// counts, then the value, padded to their 8-byte alignment.
pub fn arc_bytes(payload: usize) -> usize {
    (2 * size_of::<usize>() + payload).next_multiple_of(align_of::<usize>())
}

/// Bytes a `BTreeMap<K, V>` of `len` entries has allocated, when it holds
/// its root node (an emptied map keeps it). A node has room for 11
/// entries; past one node, in-order inserts leave them about 7 full, and
/// one interior node (a leaf and 12 child pointers) sits over every seven.
pub fn btree_map_bytes<K, V>(len: usize, has_root: bool) -> usize {
    if !has_root {
        return 0;
    }
    let leaf = (8 + 4 + 11 * (size_of::<K>() + size_of::<V>())).next_multiple_of(8);
    if len <= 11 {
        return leaf;
    }
    let leaves = len.div_ceil(7);
    let interior = leaves.div_ceil(7);
    leaves * leaf + interior * (leaf + 12 * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_tables_from_capacity() {
        // 4, 8, 16 and 2,048 buckets of 16 bytes, plus the control bytes.
        assert_eq!(hash_map_bytes::<u64, usize>(0), 0);
        assert_eq!(hash_map_bytes::<u64, usize>(3), 84);
        assert_eq!(hash_map_bytes::<u64, usize>(14), 288);
        assert_eq!(hash_map_bytes::<u64, usize>(1_792), 34_832);
    }
}
