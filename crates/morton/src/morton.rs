//! Morton (Z-order) encoding in two and three dimensions.
//!
//! §3.3.2: "a Morton ordering is constructed by using the cluster
//! coordinates… The bits of the row and column are interleaved and the boxes
//! are labelled by the Morton number." 2-D keys interleave two 32-bit
//! coordinates into a `u64`; 3-D keys interleave three 21-bit coordinates
//! into a `u64` (63 bits), enough for cluster grids up to 2M³ — far beyond
//! the paper's 256×256.

/// Spread the low 32 bits of `x` so there is one empty bit between
/// consecutive bits (`..b3 b2 b1 b0` → `..b3 0 b2 0 b1 0 b0`).
#[inline]
fn part1by1(x: u32) -> u64 {
    let mut x = x as u64;
    x &= 0x0000_0000_ffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`part1by1`]: compact every second bit.
#[inline]
fn compact1by1(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x as u32
}

/// Spread the low 21 bits of `x` with two empty bits between consecutive
/// bits.
#[inline]
fn part1by2(x: u32) -> u64 {
    let mut x = x as u64;
    x &= 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x001f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`part1by2`].
#[inline]
fn compact1by2(x: u64) -> u32 {
    let mut x = x & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    x = (x | (x >> 32)) & 0x0000_0000_001f_ffff;
    x as u32
}

/// Interleave `(x, y)` into a 2-D Morton key. `x` occupies the even bits so
/// that, within each level, the child order is (x-low,y-low), (x-high,y-low),
/// (x-low,y-high), (x-high,y-high) — matching `Aabb::octant_of` bit 0 = x.
#[inline]
pub fn encode_2d(x: u32, y: u32) -> u64 {
    part1by1(x) | (part1by1(y) << 1)
}

/// Inverse of [`encode_2d`].
#[inline]
pub fn decode_2d(key: u64) -> (u32, u32) {
    (compact1by1(key), compact1by1(key >> 1))
}

/// Interleave `(x, y, z)` (21 bits each) into a 3-D Morton key.
///
/// # Panics
/// Debug-asserts that the coordinates fit in 21 bits.
#[inline]
pub fn encode_3d(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << 21) && y < (1 << 21) && z < (1 << 21));
    part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
}

/// Inverse of [`encode_3d`].
#[inline]
pub fn decode_3d(key: u64) -> (u32, u32, u32) {
    (compact1by2(key), compact1by2(key >> 1), compact1by2(key >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_2d_known_values() {
        assert_eq!(encode_2d(0, 0), 0);
        assert_eq!(encode_2d(1, 0), 0b01);
        assert_eq!(encode_2d(0, 1), 0b10);
        assert_eq!(encode_2d(1, 1), 0b11);
        assert_eq!(encode_2d(2, 3), 0b1110);
        assert_eq!(encode_2d(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn encode_3d_known_values() {
        assert_eq!(encode_3d(0, 0, 0), 0);
        assert_eq!(encode_3d(1, 0, 0), 0b001);
        assert_eq!(encode_3d(0, 1, 0), 0b010);
        assert_eq!(encode_3d(0, 0, 1), 0b100);
        assert_eq!(encode_3d(1, 1, 1), 0b111);
        assert_eq!(encode_3d(2, 0, 0), 0b001_000);
    }

    proptest! {
        #[test]
        fn roundtrip_2d(x: u32, y: u32) {
            prop_assert_eq!(decode_2d(encode_2d(x, y)), (x, y));
        }

        #[test]
        fn roundtrip_3d(x in 0u32..(1<<21), y in 0u32..(1<<21), z in 0u32..(1<<21)) {
            prop_assert_eq!(decode_3d(encode_3d(x, y, z)), (x, y, z));
        }

        #[test]
        fn morton_2d_monotone_in_each_axis(x in 0u32..u32::MAX, y: u32) {
            // Increasing one coordinate strictly increases the key.
            prop_assert!(encode_2d(x, y) < encode_2d(x + 1, y));
        }

        #[test]
        fn morton_3d_locality_block(x in 0u32..(1u32<<20), y in 0u32..(1u32<<20), z in 0u32..(1u32<<20)) {
            // All 8 cells of an aligned 2×2×2 block are contiguous in Z order.
            let (bx, by, bz) = (x & !1, y & !1, z & !1);
            let base = encode_3d(bx, by, bz);
            for dx in 0..2 { for dy in 0..2 { for dz in 0..2 {
                let k = encode_3d(bx + dx, by + dy, bz + dz);
                prop_assert!(k >= base && k < base + 8);
            }}}
        }
    }
}
