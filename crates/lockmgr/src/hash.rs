//! A fast, non-cryptographic hasher for the lock table.
//!
//! The lock table is keyed by small integer-like ids and sits on the
//! hottest path in the system; SipHash's HashDoS resistance buys
//! nothing here (keys are internal, not attacker-controlled). This is
//! the FxHash algorithm used by rustc (public domain), implemented
//! locally to stay within the approved dependency set.

use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::resource::RowId;

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

/// `HashMap` keyed by [`RowId`] using [`LockTableHasher`]: one segment
/// of one table's row lock heads.
pub(crate) type RowMap<V> =
    std::collections::HashMap<RowId, V, BuildHasherDefault<LockTableHasher>>;

/// Row ids that differ only in their low `ROW_BLOCK_BITS` bits share a
/// block: 64 rows × 32-byte buckets is 2 KiB, within one 4 KiB page.
const ROW_BLOCK_BITS: u32 = 6;
const ROW_BLOCK_MASK: u64 = (1 << ROW_BLOCK_BITS) - 1;

/// `hashbrown` takes a bucket's 7-bit tag from the hash's top bits.
const TAG_SHIFT: u32 = 57;

/// A table's row heads are split over `1 << ROW_SEGMENT_BITS` maps.
pub(crate) const ROW_SEGMENT_BITS: u32 = 6;

/// The lock table's hasher: Fx over the row's block number, with the
/// row's position inside its block kept as the low bits of the hash and
/// folded into the tag.
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
/// The tag is the block's Fx bits xor the in-block position, so the 64
/// rows of a block, side by side in the buckets, carry 64 different
/// tags: a probe that walks a neighbour's run compares no keys there.
///
/// [`RowId`]'s `Hash` feeds the row id through `write_u64`.
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
        let hash = (self.fx.hash.rotate_left(26) & !ROW_BLOCK_MASK) | self.in_block;
        hash ^ (self.in_block << TAG_SHIFT)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.fx.write(bytes);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fx.add(n >> ROW_BLOCK_BITS);
        self.in_block = n & ROW_BLOCK_MASK;
    }
}

/// Which of its table's segments holds `row`: the `ROW_SEGMENT_BITS`
/// hash bits just below the tag. They are the block's, so a block stays
/// in one segment, and neither the bucket (low bits) nor the tag uses
/// them, so a segment's rows still spread over its buckets and tags.
#[inline]
pub(crate) fn row_segment(row: RowId) -> usize {
    let hash = BuildHasherDefault::<LockTableHasher>::default().hash_one(row);
    (hash >> (TAG_SHIFT - ROW_SEGMENT_BITS)) as usize & ((1 << ROW_SEGMENT_BITS) - 1)
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

    fn row_hash(row: u64) -> u64 {
        BuildHasherDefault::<LockTableHasher>::default().hash_one(RowId(row))
    }

    /// Consecutive rows sit in consecutive buckets of one segment, block
    /// by block, each with its own tag; blocks scatter over buckets, tags
    /// and segments.
    #[test]
    fn lock_table_hash_keeps_a_row_block_together() {
        let below_tag = |h: u64| h & ((1 << TAG_SHIFT) - 1);
        let base = row_hash(64);
        let mut block_tags = FxHashSet::default();
        for i in 0..64 {
            assert_eq!(below_tag(row_hash(64 + i)), below_tag(base) + i);
            assert_eq!(row_segment(RowId(64 + i)), row_segment(RowId(64)));
            block_tags.insert(row_hash(64 + i) >> TAG_SHIFT);
        }
        assert_eq!(block_tags.len(), 64, "a block's rows carry distinct tags");
        let mut buckets = FxHashSet::default();
        let mut tags = FxHashSet::default();
        let mut per_segment = [0u32; 1 << ROW_SEGMENT_BITS];
        for block in 0..4096 {
            let h = row_hash(block * 64);
            buckets.insert((h >> ROW_BLOCK_BITS) & 0xFFFF);
            tags.insert(h >> TAG_SHIFT);
            per_segment[row_segment(RowId(block * 64))] += 1;
        }
        assert!(buckets.len() > 3800, "bucket diversity {}", buckets.len());
        assert_eq!(tags.len(), 128);
        // Consecutive blocks fill the segments evenly: 64 blocks each.
        let (least, most) = (per_segment.iter().min(), per_segment.iter().max());
        assert!(
            least >= Some(&60) && most <= Some(&68),
            "blocks per segment {least:?}..{most:?}"
        );
    }

    thread_local! {
        static KEY_COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A row id that counts how often a map compares it.
    #[derive(Hash)]
    #[allow(clippy::derived_hash_with_manual_eq)]
    struct CountedRow(u64);

    impl PartialEq for CountedRow {
        fn eq(&self, other: &Self) -> bool {
            KEY_COMPARES.with(|c| c.set(c.get() + 1));
            self.0 == other.0
        }
    }

    impl Eq for CountedRow {}

    /// Fresh rows inserted in order, as a scan locks them, into a table's
    /// segments: a probe rarely meets a tag it has to check the key of.
    /// With one tag per block it compared 10.3 keys per insert.
    #[test]
    fn an_in_order_scan_compares_few_keys() {
        const ROWS: u64 = 100_000;
        type Segment =
            std::collections::HashMap<CountedRow, (), BuildHasherDefault<LockTableHasher>>;
        let mut segments: Vec<Segment> = (0..1 << ROW_SEGMENT_BITS)
            .map(|_| Segment::default())
            .collect();
        for row in 0..ROWS {
            segments[row_segment(RowId(row))].insert(CountedRow(row), ());
        }
        let per_insert = KEY_COMPARES.with(|c| c.get()) as f64 / ROWS as f64;
        assert!(
            per_insert <= 0.5,
            "{per_insert:.2} key comparisons per insert"
        );
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
