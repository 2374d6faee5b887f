//! Multi-index bookkeeping for Cartesian expansions.
//!
//! A degree-k expansion stores one coefficient per multi-index
//! `a = (ax, ay, az)` with `|a| = ax+ay+az ≤ k` — `C(k+3, 3)` of them. This
//! module provides the canonical enumeration (graded lexicographic), the
//! inverse lookup, and binomial tables shared by the P2M/M2M/M2P kernels.

/// The set of multi-indices of total degree ≤ `k`, with O(1) inverse lookup.
#[derive(Debug, Clone)]
pub struct MultiIndexSet {
    pub degree: u32,
    /// Multi-indices in graded-lex order: sorted by |a|, then by (ax, ay, az).
    pub indices: Vec<(u8, u8, u8)>,
    /// `lookup[ax][ay][az]` → position in `indices`.
    lookup: Vec<usize>,
    stride: usize,
}

impl MultiIndexSet {
    /// Enumerate every multi-index with `|a| ≤ degree`.
    pub fn new(degree: u32) -> Self {
        assert!(degree <= crate::MAX_DEGREE + 1, "degree {degree} unreasonably large");
        let k = degree as usize;
        let mut indices = Vec::with_capacity(Self::count(degree));
        for total in 0..=k {
            for ax in 0..=total {
                for ay in 0..=(total - ax) {
                    let az = total - ax - ay;
                    indices.push((ax as u8, ay as u8, az as u8));
                }
            }
        }
        let stride = k + 1;
        let mut lookup = vec![usize::MAX; stride * stride * stride];
        for (pos, &(x, y, z)) in indices.iter().enumerate() {
            lookup[(x as usize * stride + y as usize) * stride + z as usize] = pos;
        }
        MultiIndexSet { degree, indices, lookup, stride }
    }

    /// Number of coefficients in a degree-k expansion: `C(k+3, 3)`.
    pub fn count(degree: u32) -> usize {
        let k = degree as usize;
        (k + 1) * (k + 2) * (k + 3) / 6
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Position of multi-index `(x, y, z)`; panics if out of range in debug.
    #[inline]
    pub fn pos(&self, x: u8, y: u8, z: u8) -> usize {
        let p = self.lookup[(x as usize * self.stride + y as usize) * self.stride + z as usize];
        debug_assert_ne!(p, usize::MAX, "index ({x},{y},{z}) exceeds degree {}", self.degree);
        p
    }

    /// Position of `(x,y,z)` or `None` when `|a|` exceeds the degree.
    #[inline]
    pub fn try_pos(&self, x: u8, y: u8, z: u8) -> Option<usize> {
        if (x as u32 + y as u32 + z as u32) > self.degree {
            return None;
        }
        Some(self.pos(x, y, z))
    }
}

/// Borrow a cached [`MultiIndexSet`] for `degree` (thread-local; the eval
/// hot path constructs these once per degree instead of per call).
pub fn with_cached_set<R>(degree: u32, f: impl FnOnce(&MultiIndexSet) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static CACHE: RefCell<Vec<Option<MultiIndexSet>>> = const { RefCell::new(Vec::new()) };
    }
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        let idx = degree as usize;
        if c.len() <= idx {
            c.resize_with(idx + 1, || None);
        }
        let set = c[idx].get_or_insert_with(|| MultiIndexSet::new(degree));
        f(set)
    })
}

/// `n!` as f64 (n ≤ 20 fits exactly in f64's integer range up to 2^53? 20!
/// ≈ 2.4e18 > 2^53, but we only use ratios that stay small; factorials up to
/// 12 are exact and degrees beyond that are rejected upstream).
pub fn factorial(n: u32) -> f64 {
    (1..=n).fold(1.0, |acc, i| acc * i as f64)
}

/// Binomial coefficient `C(n, k)` as f64.
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut num = 1.0;
    let mut den = 1.0;
    for i in 0..k {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formula() {
        for k in 0..8 {
            let s = MultiIndexSet::new(k);
            assert_eq!(s.len(), MultiIndexSet::count(k));
        }
        assert_eq!(MultiIndexSet::count(0), 1);
        assert_eq!(MultiIndexSet::count(1), 4);
        assert_eq!(MultiIndexSet::count(2), 10);
        assert_eq!(MultiIndexSet::count(3), 20);
        assert_eq!(MultiIndexSet::count(4), 35);
        assert_eq!(MultiIndexSet::count(5), 56);
    }

    #[test]
    fn graded_order_and_lookup_roundtrip() {
        let s = MultiIndexSet::new(5);
        let mut prev_total = 0u32;
        for (pos, &(x, y, z)) in s.indices.iter().enumerate() {
            let total = x as u32 + y as u32 + z as u32;
            assert!(total >= prev_total, "not graded at {pos}");
            prev_total = total;
            assert_eq!(s.pos(x, y, z), pos);
        }
    }

    #[test]
    fn try_pos_rejects_overflow() {
        let s = MultiIndexSet::new(2);
        assert!(s.try_pos(1, 1, 0).is_some());
        assert!(s.try_pos(2, 1, 0).is_none());
        assert!(s.try_pos(0, 0, 3).is_none());
    }

    #[test]
    fn zeroth_index_is_scalar() {
        let s = MultiIndexSet::new(3);
        assert_eq!(s.indices[0], (0, 0, 0));
        assert_eq!(s.pos(0, 0, 0), 0);
    }

    #[test]
    fn factorials_and_binomials() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(5), 120.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(6, 0), 1.0);
        assert_eq!(binomial(3, 5), 0.0);
        // Pascal identity spot check.
        for n in 1..10 {
            for k in 1..n {
                assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
            }
        }
    }
}
