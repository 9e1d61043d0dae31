//! A fast, non-cryptographic hasher for the lock table.
//!
//! The lock table is keyed by small integer-like ids and sits on the
//! hottest path in the system; SipHash's HashDoS resistance buys
//! nothing here (keys are internal, not attacker-controlled). This is
//! the FxHash algorithm used by rustc (public domain), implemented
//! locally to stay within the approved dependency set.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` alias using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` alias using [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-fx hash state.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` keyed by [`ResourceId`](crate::ResourceId) using
/// [`LockTableHasher`].
pub type LockTableMap<V> =
    std::collections::HashMap<crate::ResourceId, V, BuildHasherDefault<LockTableHasher>>;

/// Row ids that differ only in their low `ROW_BLOCK_BITS` bits share a
/// block: 64 rows × 40-byte buckets is 2.5 KiB, within two 4 KiB pages.
const ROW_BLOCK_BITS: u32 = 6;
const ROW_BLOCK_MASK: u64 = (1 << ROW_BLOCK_BITS) - 1;

/// The lock table's hasher: Fx over the table id and the row's block
/// number, with the row's position inside its block kept as the low
/// bits of the hash.
///
/// `HashMap` takes the bucket from the low bits, so a block of
/// consecutive rows lands in consecutive buckets while the blocks
/// themselves scatter. A scan that locks rows in order then walks the
/// table a page at a time instead of taking a cache and a TLB miss per
/// lock, at grant and again at release; rows locked at random hash as
/// they did under plain Fx. Row ids a multiple of 64 apart share their
/// low bits — as they already did under Fx, whose low bits depend only
/// on the key's low bits.
///
/// [`ResourceId`](crate::ResourceId)'s `Hash` feeds the table id
/// through `write_u32` and the row id through `write_u64`.
#[derive(Debug, Default, Clone)]
pub struct LockTableHasher {
    fx: FxHasher,
    in_block: u64,
}

impl Hasher for LockTableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fx's strong bits are its high ones; the map wants them next
        // to the in-block position (bucket) and at the top (tag).
        (self.fx.hash.rotate_left(26) & !ROW_BLOCK_MASK) | self.in_block
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.fx.write(bytes);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fx.write_u32(n);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fx.add(n >> ROW_BLOCK_BITS);
        self.in_block = n & ROW_BLOCK_MASK;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&(1u32, 2u64)), hash_of(&(2u32, 1u64)));
    }

    #[test]
    fn handles_unaligned_byte_strings() {
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&[0u8; 7][..]), hash_of(&[0u8; 9][..]));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
    }

    /// Consecutive rows of a table sit in consecutive buckets, block by
    /// block; blocks and tables scatter.
    #[test]
    fn lock_table_hash_keeps_a_row_block_together() {
        use crate::{ResourceId, RowId, TableId};
        fn lock_hash(table: u32, row: u64) -> u64 {
            let mut h = LockTableHasher::default();
            ResourceId::Row(TableId(table), RowId(row)).hash(&mut h);
            h.finish()
        }
        let base = lock_hash(1, 64);
        for i in 0..64 {
            assert_eq!(lock_hash(1, 64 + i), base + i);
        }
        // Bucket bits above the block and the 7 tag bits both vary from
        // block to block and from table to table.
        let mut buckets = FxHashSet::default();
        let mut tags = FxHashSet::default();
        for table in 0..4 {
            for block in 0..1024 {
                let h = lock_hash(table, block * 64);
                buckets.insert((h >> ROW_BLOCK_BITS) & 0xFFFF);
                tags.insert(h >> 57);
            }
        }
        assert!(buckets.len() > 3800, "bucket diversity {}", buckets.len());
        assert_eq!(tags.len(), 128);
        let mut table_hash = LockTableHasher::default();
        ResourceId::Table(TableId(1)).hash(&mut table_hash);
        assert_ne!(table_hash.finish(), lock_hash(1, 0));
    }

    #[test]
    fn reasonable_distribution_over_sequential_keys() {
        // Sequential ids must not collide in the low bits the HashMap
        // actually uses.
        let mut low_bits = FxHashSet::default();
        for i in 0u64..4096 {
            low_bits.insert(hash_of(&i) & 0xFFF);
        }
        assert!(
            low_bits.len() > 2048,
            "low-bit diversity {}",
            low_bits.len()
        );
    }
}
