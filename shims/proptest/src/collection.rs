//! Collection strategies (`vec`) and the [`SizeRange`] bound type.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// An inclusive length range for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl SizeRange {
    /// Inclusive bounds of the range.
    pub fn bounds(&self) -> (usize, usize) {
        (self.min, self.max)
    }

    pub(crate) fn sample(&self, rng: &mut TestRng) -> usize {
        if self.min == self.max {
            self.min
        } else {
            self.min + rng.below((self.max - self.min + 1) as u64) as usize
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<core::ops::RangeTo<usize>> for SizeRange {
    fn from(r: core::ops::RangeTo<usize>) -> Self {
        assert!(r.end > 0, "empty size range");
        SizeRange {
            min: 0,
            max: r.end - 1,
        }
    }
}

/// Generates a `Vec` whose length falls in `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_every_bound_form() {
        let mut r = TestRng::from_seed(3);
        for _ in 0..100 {
            assert_eq!(vec(0u8..5, 4usize).generate(&mut r).len(), 4);
            let a = vec(0u8..5, 1..4).generate(&mut r).len();
            assert!((1..4).contains(&a));
            let b = vec(0u8..5, 2usize..=6).generate(&mut r).len();
            assert!((2..=6).contains(&b));
            let c = vec(0u8..5, ..3usize).generate(&mut r).len();
            assert!(c < 3);
        }
    }

    #[test]
    fn elements_come_from_element_strategy() {
        let mut r = TestRng::from_seed(4);
        let v = vec(10u32..13, 64usize).generate(&mut r);
        assert!(v.iter().all(|e| (10..13).contains(e)));
    }
}
