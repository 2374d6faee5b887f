//! Peano–Hilbert ordering.
//!
//! The Costzones scheme of Singh et al. (the shared-memory ancestor of DPDA,
//! §1 and §3.3.3) uses a Peano–Hilbert ordering; the paper's SPDA uses Morton
//! instead. `Curve::Hilbert` orders SPDA's 2-D cluster grid with
//! [`hilbert_index_2d`], and `tables --artifact ablations` compares the two
//! curves in simulated seconds: Hilbert has strictly better worst-case
//! locality (no long Z jumps) at a slightly higher per-index cost.
//!
//! The index uses the classic rotation-based algorithm.

/// Hilbert index of cell `(x, y)` on a `2^order × 2^order` grid.
pub fn hilbert_index_2d(mut x: u32, mut y: u32, order: u32) -> u64 {
    debug_assert!(order <= 32 && (order == 32 || (x < (1 << order) && y < (1 << order))));
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s: u32 = order;
    while s > 0 {
        s -= 1;
        rx = (x >> s) & 1;
        ry = (y >> s) & 1;
        d += (((3 * rx) ^ ry) as u64) << (2 * s);
        rot_2d(s, &mut x, &mut y, rx, ry);
    }
    d
}

/// `(x, y)` of the cell with Hilbert index `d` on a `2^order` grid
/// (inverse of [`hilbert_index_2d`]).
pub fn hilbert_xy_from_index_2d(d: u64, order: u32) -> (u32, u32) {
    let (mut x, mut y) = (0u32, 0u32);
    let mut t = d;
    for s in 0..order {
        let rx = (1 & (t / 2)) as u32;
        let ry = (1 & (t ^ rx as u64)) as u32;
        rot_2d(s, &mut x, &mut y, rx, ry);
        x += rx << s;
        y += ry << s;
        t /= 4;
    }
    (x, y)
}

/// Rotate/flip the quadrant of a sub-square appropriately (standard helper).
fn rot_2d(s: u32, x: &mut u32, y: &mut u32, rx: u32, ry: u32) {
    if ry == 0 {
        if rx == 1 {
            let m = if s == 0 { 0 } else { (1u32 << s) - 1 };
            *x = m.wrapping_sub(*x) & m;
            *y = m.wrapping_sub(*y) & m;
        }
        std::mem::swap(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hilbert_2d_order1() {
        // The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        assert_eq!(hilbert_index_2d(0, 0, 1), 0);
        assert_eq!(hilbert_index_2d(0, 1, 1), 1);
        assert_eq!(hilbert_index_2d(1, 1, 1), 2);
        assert_eq!(hilbert_index_2d(1, 0, 1), 3);
    }

    #[test]
    fn hilbert_2d_is_a_permutation_and_adjacent() {
        let order = 4;
        let n = 1u32 << order;
        let mut cells: Vec<(u32, u32)> = (0..n).flat_map(|y| (0..n).map(move |x| (x, y))).collect();
        cells.sort_by_key(|&(x, y)| hilbert_index_2d(x, y, order));
        // Consecutive cells along the curve are grid neighbors — the key
        // locality property Morton lacks.
        for w in cells.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            let d = (x0 as i64 - x1 as i64).abs() + (y0 as i64 - y1 as i64).abs();
            assert_eq!(d, 1, "non-adjacent step {:?} -> {:?}", w[0], w[1]);
        }
        // Permutation: indices are 0..n².
        let idx: Vec<u64> = cells.iter().map(|&(x, y)| hilbert_index_2d(x, y, order)).collect();
        assert_eq!(idx, (0..(n as u64 * n as u64)).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn hilbert_2d_roundtrip(x in 0u32..(1<<10), y in 0u32..(1<<10)) {
            let d = hilbert_index_2d(x, y, 10);
            prop_assert_eq!(hilbert_xy_from_index_2d(d, 10), (x, y));
        }

        #[test]
        fn hilbert_2d_in_range(x in 0u32..(1<<8), y in 0u32..(1<<8)) {
            prop_assert!(hilbert_index_2d(x, y, 8) < (1u64 << 16));
        }
    }
}
