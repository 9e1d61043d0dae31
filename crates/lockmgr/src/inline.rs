//! A small vector that keeps its first `N` elements inside itself.
//!
//! Almost every lock head has one holder and almost every holding is
//! charged `first_holder_slots` (2) lock structures, so a `Vec` for
//! either costs a heap allocation per granted lock — under the shard
//! latch. [`InlineVec`] stores up to `N` elements in place and moves
//! to a `Vec` only beyond that. It has `Vec`'s ordering semantics
//! (`push` appends, `swap_remove` moves the last element into the
//! hole), which the lock table's determinism relies on. Implemented
//! locally, like [`crate::hash`], to stay within the approved
//! dependency set; no `unsafe`.

/// A vector with inline room for `N` elements.
#[derive(Debug)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Debug)]
enum Repr<T, const N: usize> {
    /// Packed from the front: no `Some` follows a `None`.
    Inline([Option<T>; N]),
    /// More than `N` elements were held at some point.
    Spilled(Vec<T>),
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec(Repr::Inline(std::array::from_fn(|_| None)))
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline(items) => items.iter().flatten().count(),
            Repr::Spilled(v) => v.len(),
        }
    }

    /// True when no element is held.
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            Repr::Inline(items) => items.iter().all(Option::is_none),
            Repr::Spilled(v) => v.is_empty(),
        }
    }

    /// Append `value`.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline(items) => match items.iter_mut().find(|i| i.is_none()) {
                Some(free) => *free = Some(value),
                None => {
                    let mut v: Vec<T> = items.iter_mut().filter_map(Option::take).collect();
                    v.push(value);
                    self.0 = Repr::Spilled(v);
                }
            },
            Repr::Spilled(v) => v.push(value),
        }
    }

    /// Remove and return the element at `index`, moving the last
    /// element into its place.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    pub fn swap_remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Inline(items) => {
                let len = items.iter().flatten().count();
                assert!(index < len, "swap_remove index {index} out of {len}");
                let last = items[len - 1].take().expect("packed from the front");
                if index == len - 1 {
                    last
                } else {
                    items[index].replace(last).expect("packed from the front")
                }
            }
            Repr::Spilled(v) => v.swap_remove(index),
        }
    }

    /// Iterate in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (inline, spilled): (&[Option<T>], &[T]) = match &self.0 {
            Repr::Inline(items) => (items, &[]),
            Repr::Spilled(v) => (&[], v),
        };
        inline.iter().flatten().chain(spilled)
    }

    /// Iterate mutably in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let (inline, spilled): (&mut [Option<T>], &mut [T]) = match &mut self.0 {
            Repr::Inline(items) => (items, &mut []),
            Repr::Spilled(v) => (&mut [], v),
        };
        inline.iter_mut().flatten().chain(spilled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operation agrees with `Vec` across the spill boundary.
    #[test]
    fn matches_vec_semantics_across_the_spill() {
        let mut small: InlineVec<u32, 2> = InlineVec::default();
        let mut model: Vec<u32> = Vec::new();
        assert!(small.is_empty());
        for round in 0..3 {
            for v in 0..5 {
                small.push(round * 10 + v);
                model.push(round * 10 + v);
                assert_eq!(small.iter().copied().collect::<Vec<_>>(), model);
                assert_eq!(small.len(), model.len());
            }
            for index in [1, 0, 2, 0] {
                assert_eq!(small.swap_remove(index), model.swap_remove(index));
                assert_eq!(small.iter().copied().collect::<Vec<_>>(), model);
            }
            for v in small.iter_mut() {
                *v += 100;
            }
            for v in model.iter_mut() {
                *v += 100;
            }
            assert_eq!(small.is_empty(), model.is_empty());
        }
        while !model.is_empty() {
            assert_eq!(small.swap_remove(0), model.swap_remove(0));
        }
        assert!(small.is_empty());
        assert_eq!(small.len(), 0);
    }

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u8, 2> = InlineVec::default();
        v.push(1);
        v.push(2);
        assert!(matches!(v.0, Repr::Inline(_)));
        assert_eq!(v.swap_remove(0), 1);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![2]);
        v.push(3);
        v.push(4);
        assert!(matches!(v.0, Repr::Spilled(_)));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn swap_remove_out_of_bounds_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::default();
        v.push(1);
        v.swap_remove(1);
    }
}
