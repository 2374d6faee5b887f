//! Gray codes and the SPSA modular subdomain→processor mapping.
//!
//! §3.3.1: "For a two-dimensional simulation running on a d-dimensional
//! hypercube, subdomain (i, j) is assigned to processor
//! (gray(i, d/2), gray(j, d/2)). Here, gray(p, q) represents the p-th entry
//! in the gray-code table formed from q bits." The gray-code embedding maps
//! a 2-D (or 3-D) mesh of subdomains onto hypercube node labels so that
//! neighboring subdomains land on neighboring hypercube nodes — which is what
//! makes the tree-merge communication of Fig. 5c/d nearest-neighbor.

/// The `p`-th entry of the reflected binary gray-code table on `q` bits.
/// `p` is taken modulo `2^q`, which is exactly the *modular* assignment of
/// the paper: with `r > p` subdomains, subdomain indices wrap around the
/// processor grid.
#[inline]
pub fn gray_code(p: u64, q: u32) -> u64 {
    let m = if q >= 64 { u64::MAX } else { (1u64 << q) - 1 };
    let p = p & m;
    p ^ (p >> 1)
}

/// Inverse gray code: the index of `g` in the `q`-bit gray-code table.
#[inline]
pub fn gray_code_inverse(g: u64, q: u32) -> u64 {
    let m = if q >= 64 { u64::MAX } else { (1u64 << q) - 1 };
    let mut g = g & m;
    let mut p = g;
    while g != 0 {
        g >>= 1;
        p ^= g;
    }
    p
}

/// SPSA mapping for a 2-D `c×c` subdomain grid onto a hypercube of dimension
/// `d` (`p = 2^d` processors, `d` even split as `d/2 + d/2` or odd split as
/// `⌈d/2⌉ + ⌊d/2⌋` between x and y): returns the processor label whose
/// high bits come from the row gray code and low bits from the column.
#[inline]
pub fn subdomain_to_processor_2d(i: u64, j: u64, d: u32) -> u64 {
    let dx = d.div_ceil(2);
    let dy = d / 2;
    (gray_code(j, dy) << dx) | gray_code(i, dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gray_code_table_3bit() {
        let table: Vec<u64> = (0..8).map(|p| gray_code(p, 3)).collect();
        assert_eq!(table, vec![0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100]);
    }

    #[test]
    fn successive_entries_differ_by_one_bit() {
        for q in 1..=6u32 {
            let n = 1u64 << q;
            for p in 0..n {
                let a = gray_code(p, q);
                let b = gray_code((p + 1) % n, q); // table is cyclic
                assert_eq!((a ^ b).count_ones(), 1, "q={q} p={p}");
            }
        }
    }

    #[test]
    fn modular_wraparound() {
        // p beyond the table wraps: entry 9 of a 3-bit table == entry 1.
        assert_eq!(gray_code(9, 3), gray_code(1, 3));
    }

    #[test]
    fn mapping_2d_is_bijective_on_grid() {
        // A 4×4 grid on a 4-dim hypercube (16 procs) must hit every label.
        let mut seen = [false; 16];
        for i in 0..4u64 {
            for j in 0..4u64 {
                let p = subdomain_to_processor_2d(i, j, 4) as usize;
                assert!(p < 16);
                assert!(!seen[p], "duplicate label {p}");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn mapping_2d_neighbors_are_hypercube_neighbors() {
        // Adjacent subdomains differ in exactly one hypercube bit.
        for i in 0..4u64 {
            for j in 0..4u64 {
                let p = subdomain_to_processor_2d(i, j, 4);
                if i + 1 < 4 {
                    let q = subdomain_to_processor_2d(i + 1, j, 4);
                    assert_eq!((p ^ q).count_ones(), 1);
                }
                if j + 1 < 4 {
                    let q = subdomain_to_processor_2d(i, j + 1, 4);
                    assert_eq!((p ^ q).count_ones(), 1);
                }
            }
        }
    }

    #[test]
    fn mapping_2d_odd_dimension() {
        // d=5: 32 processors, 8 columns × 4 rows.
        let mut seen = std::collections::HashSet::new();
        for i in 0..8u64 {
            for j in 0..4u64 {
                let p = subdomain_to_processor_2d(i, j, 5);
                assert!(p < 32);
                assert!(seen.insert(p));
            }
        }
        assert_eq!(seen.len(), 32);
    }

    proptest! {
        #[test]
        fn gray_roundtrip(p: u64, q in 1u32..=63) {
            let m = (1u64 << q) - 1;
            prop_assert_eq!(gray_code_inverse(gray_code(p, q), q), p & m);
        }

        #[test]
        fn gray_is_a_permutation_sample(q in 1u32..=10) {
            let n = 1u64 << q;
            let mut seen = vec![false; n as usize];
            for p in 0..n {
                let g = gray_code(p, q) as usize;
                prop_assert!(!seen[g]);
                seen[g] = true;
            }
        }
    }
}
