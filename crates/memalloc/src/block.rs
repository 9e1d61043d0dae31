//! A single 128 KiB lock memory block and the handles into it.
#![warn(clippy::missing_inline_in_public_items)]

use std::num::NonZeroU32;

use crate::error::PoolError;

/// Sentinel for "no block" in the intrusive lists.
pub(crate) const NIL: u32 = u32::MAX;

/// Slots per bitmap word: the unit a [`SlotRun`] is claimed in.
const WORD_BITS: u32 = u64::BITS;

/// Which list a block currently lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ListId {
    /// The lock structure chain: blocks with at least one free slot.
    Available,
    /// The "empty block" list from the paper: blocks with no free slots
    /// left (the paper's naming is from the free list's point of view).
    Full,
    /// Not on any list (slab entry is vacant / recycled).
    Detached,
}

/// A stable handle to one allocated lock structure slot.
///
/// Handles embed the block's generation (never 0: `Option<SlotHandle>` is
/// 12 bytes) so that a handle surviving past a shrink that recycled its
/// block id is detected as stale instead of silently corrupting another
/// block. `repr(C)` here and on [`SlotRun`] keeps `block` and `generation`
/// side by side in both, so a handle is copied out of a run word-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct SlotHandle {
    pub(crate) block: u32,
    pub(crate) generation: NonZeroU32,
    pub(crate) slot: u32,
}

impl SlotHandle {
    /// The block index this handle points into (diagnostic use).
    #[inline]
    pub fn block_index(&self) -> u32 {
        self.block
    }
}

/// A lock holding's first two slots, of one block incarnation, in 12
/// bytes (`Option<SlotPair>` too; `second` is `u16::MAX` for one slot).
/// Each expands back to a full [`SlotHandle`]: frees stay checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct SlotPair {
    block: u32,
    generation: NonZeroU32,
    first: u16,
    second: u16,
}

impl SlotPair {
    const ONE: u16 = u16::MAX;

    /// The pair of the front of `slots` and how many it took: the first
    /// if its index fits a `u16`, the second too if also of its block.
    #[inline]
    pub fn pack(slots: &[SlotHandle]) -> (Option<Self>, usize) {
        let fits = |h: &&SlotHandle| h.slot < u32::from(Self::ONE);
        let Some(&a) = slots.first().filter(fits) else {
            return (None, 0);
        };
        let same = |h: &&SlotHandle| (h.block, h.generation) == (a.block, a.generation);
        let b = slots.get(1).filter(fits).filter(same);
        let second = b.map_or(Self::ONE, |b| b.slot as u16);
        let (block, generation, first) = (a.block, a.generation, a.slot as u16);
        let pair = SlotPair {
            block,
            generation,
            first,
            second,
        };
        (Some(pair), 1 + usize::from(b.is_some()))
    }

    /// The slots, first first.
    #[inline]
    pub fn handles(self) -> impl Iterator<Item = SlotHandle> {
        let (block, generation) = (self.block, self.generation);
        let slots = [self.first, self.second].into_iter();
        let handle = move |s: u16| SlotHandle {
            block,
            generation,
            slot: s.into(),
        };
        slots.filter(|&s| s != Self::ONE).map(handle)
    }
}

/// Slots of one bitmap word of one block: slot `word * 64 + i` is in
/// the run while bit `i` of `bits` is set. The pool claims and releases
/// runs in one step; a single slot is a one-bit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct SlotRun {
    pub block: u32,
    pub generation: NonZeroU32,
    pub word: u32,
    pub bits: u64,
}

impl SlotRun {
    /// A run that no real handle falls into.
    pub const EMPTY: SlotRun = SlotRun {
        block: NIL,
        generation: NonZeroU32::MIN,
        word: 0,
        bits: 0,
    };

    /// The one-slot run of `h`.
    #[inline]
    pub fn of(h: SlotHandle) -> Self {
        SlotRun {
            block: h.block,
            generation: h.generation,
            word: h.slot / WORD_BITS,
            bits: 1 << (h.slot % WORD_BITS),
        }
    }

    /// Remove and return the lowest slot. `bits` must be non-zero.
    #[inline]
    pub fn take(&mut self) -> SlotHandle {
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        SlotHandle {
            block: self.block,
            generation: self.generation,
            slot: self.word * WORD_BITS + bit,
        }
    }

    /// `h`'s bit if `h` lies in this run's word of the same block
    /// incarnation, whether or not the run holds it right now.
    #[inline]
    pub fn bit_of(&self, h: SlotHandle) -> Option<u64> {
        let run = SlotRun::of(h);
        (run.block == self.block && run.generation == self.generation && run.word == self.word)
            .then_some(run.bits)
    }
}

/// One allocation block. The bitmap is the only per-slot state.
#[derive(Debug)]
pub(crate) struct Block {
    /// One bit per slot; set while allocated.
    pub allocated: Vec<u64>,
    capacity: u32,
    /// Allocated slots, maintained incrementally — `used()` sits on the
    /// per-request hot path (pool statistics), so popcounting the
    /// bitmap there is too slow.
    used_count: u32,
    /// Every bitmap word below this one is full.
    cursor: u32,
    /// Reuse counter for stale-handle detection, from 1, wrapping to 1.
    pub generation: NonZeroU32,
    /// Intrusive list linkage.
    pub prev: u32,
    pub next: u32,
    /// Which list the block is on.
    pub list: ListId,
}

impl Block {
    /// Create a fresh, fully-free block with `capacity` slots.
    pub fn new(capacity: u32, generation: NonZeroU32) -> Self {
        Block {
            allocated: vec![0; capacity.div_ceil(WORD_BITS) as usize],
            capacity,
            used_count: 0,
            cursor: 0,
            generation,
            prev: NIL,
            next: NIL,
            list: ListId::Detached,
        }
    }

    /// Total slots in the block.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Currently allocated slots.
    pub fn used(&self) -> u32 {
        self.used_count
    }

    /// Recount allocated slots from the bitmap (validation only).
    pub fn used_recount(&self) -> u32 {
        self.allocated.iter().map(|w| w.count_ones()).sum()
    }

    /// True when no slot is allocated.
    pub fn is_fully_free(&self) -> bool {
        self.used_count == 0
    }

    /// True when every slot is allocated.
    pub fn is_full(&self) -> bool {
        self.used_count == self.capacity
    }

    /// The bits of `word` that are slots: all 64 except in a last word
    /// the capacity does not fill.
    fn word_mask(&self, word: u32) -> u64 {
        match self.capacity - word * WORD_BITS {
            n if n >= WORD_BITS => u64::MAX,
            n => (1 << n) - 1,
        }
    }

    /// Claim free slots of the lowest word that has any: every one of
    /// them if `whole_word`, else only the lowest. Returns the word and
    /// the claimed bits. The block must not be full.
    pub fn claim(&mut self, whole_word: bool) -> (u32, u64) {
        let mut word = self.cursor;
        let free = loop {
            let free = !self.allocated[word as usize] & self.word_mask(word);
            if free != 0 {
                break free;
            }
            word += 1;
        };
        // The baseline x86-64 target has no POPCNT, so the one-slot
        // claim, the hot case, skips the count.
        let (bits, n) = if whole_word {
            (free, free.count_ones())
        } else {
            (free & free.wrapping_neg(), 1)
        };
        self.allocated[word as usize] |= bits;
        self.used_count += n;
        self.cursor = word;
        (word, bits)
    }

    /// Free the slots `bits` of `word`, all or none: any of them not
    /// allocated is a [`PoolError::DoubleFree`].
    pub fn release(&mut self, word: u32, bits: u64) -> Result<(), PoolError> {
        let w = &mut self.allocated[word as usize];
        if *w & bits != bits {
            return Err(PoolError::DoubleFree);
        }
        *w &= !bits;
        self.used_count -= bits.count_ones();
        self.cursor = self.cursor.min(word);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_fully_free() {
        let b = Block::new(100, NonZeroU32::MIN);
        assert!(b.is_fully_free());
        assert!(!b.is_full());
        assert_eq!(b.capacity(), 100);
        assert_eq!(b.used(), 0);
        assert_eq!(b.allocated.len(), 2);
    }

    #[test]
    fn slots_hand_out_in_ascending_order() {
        let mut b = Block::new(4, NonZeroU32::MIN);
        let order: Vec<_> = (0..4).map(|_| b.claim(false)).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (0, 4), (0, 8)]);
        // A freed slot is the lowest clear bit again.
        b.release(0, 2).unwrap();
        assert_eq!(b.claim(false), (0, 2));
    }

    #[test]
    fn bitmap_tracks_allocation() {
        let mut b = Block::new(130, NonZeroU32::MIN); // spans 3 bitmap words
        assert_eq!(b.claim(true), (0, u64::MAX));
        assert_eq!(b.claim(true), (1, u64::MAX));
        // The last word holds two slots; the mask keeps the rest out.
        assert_eq!(b.claim(true), (2, 0b11));
        assert!(b.is_full());
        assert_eq!(b.used(), 130);
        assert_eq!(b.used_recount(), 130);
        b.release(1, 1 << 5).unwrap();
        assert_eq!(b.used(), 129);
        // The cursor moved back: the next claim finds word 1's hole.
        assert_eq!(b.claim(false), (1, 1 << 5));
        b.release(0, u64::MAX).unwrap();
        b.release(1, u64::MAX).unwrap();
        b.release(2, 0b11).unwrap();
        assert!(b.is_fully_free());
    }

    #[test]
    fn release_is_all_or_nothing() {
        let mut b = Block::new(8, NonZeroU32::MIN);
        assert_eq!(b.claim(true), (0, 0xff));
        b.release(0, 0b0001).unwrap();
        // Bit 0 is already free: the whole release is refused.
        assert_eq!(b.release(0, 0b0011), Err(PoolError::DoubleFree));
        assert_eq!(b.used(), 7);
        // Bits past the capacity were never allocated either.
        assert_eq!(b.release(0, 1 << 8), Err(PoolError::DoubleFree));
        assert_eq!(b.used_recount(), 7);
    }

    #[test]
    fn full_detection() {
        let mut b = Block::new(2, NonZeroU32::MIN);
        assert_eq!(b.claim(true), (0, 0b11));
        assert!(b.is_full());
        assert_eq!(b.used(), 2);
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn a_pair_holds_two_slots_of_one_block_incarnation() {
        let h = |block, generation, slot| SlotHandle {
            block,
            generation: NonZeroU32::new(generation).unwrap(),
            slot,
        };
        let taken = |slots: &[SlotHandle]| {
            let (pair, n) = SlotPair::pack(slots);
            let handles: Vec<_> = pair.into_iter().flat_map(SlotPair::handles).collect();
            assert_eq!(handles, slots[..n]);
            n
        };
        let first = h(3, 2, 7);
        assert_eq!(taken(&[first, h(4, 2, 8)]), 1, "another block");
        assert_eq!(taken(&[first, h(3, 1, 8)]), 1, "another incarnation");
        assert_eq!(taken(&[first, h(3, 2, 65_535)]), 1, "an index past u16");
        assert_eq!(taken(&[first]), 1);
        assert_eq!(taken(&[first, h(3, 2, 65_534), h(3, 2, 9)]), 2);
        assert_eq!(taken(&[h(3, 2, 65_535), first]), 0);
        assert_eq!(taken(&[]), 0);
    }

    #[test]
    fn runs_hand_out_their_lowest_slot() {
        let mut run = SlotRun {
            block: 3,
            generation: NonZeroU32::MIN,
            word: 2,
            bits: 0b1010,
        };
        let h = run.take();
        assert_eq!((h.block, h.generation.get(), h.slot), (3, 1, 129));
        assert_eq!(run.bits, 0b1000);
        assert_eq!(run.bit_of(h), Some(0b10));
        let stale = SlotHandle {
            generation: NonZeroU32::MAX,
            ..h
        };
        assert_eq!(run.bit_of(stale), None);
        assert_eq!(SlotRun::of(h).bits, 0b10);
    }
}
