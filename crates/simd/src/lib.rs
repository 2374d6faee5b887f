//! Portable SIMD substrate for the batched force kernels.
//!
//! The crates.io registry is unreachable in this build environment, so
//! instead of `wide`/`portable_simd` this small crate provides the three
//! pieces the SoA interaction-slab kernels need:
//!
//! * **A fixed-width lane type** — [`F64s`] (4 × f64), a plain array with
//!   `#[inline(always)]` element-wise ops: compiled inside a
//!   `#[target_feature(enable = "avx2")]` context LLVM lowers every op to
//!   one 256-bit vector instruction; compiled at the baseline ISA the ops
//!   stay correct scalar/SSE2 code.
//! * **Runtime dispatch** — [`isa`] probes the CPU once (cached) into three
//!   tiers (AVX-512F ⊃ AVX2+FMA ⊃ portable); each kernel selects its
//!   intrinsic body by it explicitly. The `force-scalar` feature pins the
//!   portable body everywhere, which is also the only path on non-x86_64.
//! * **Aligned, padded slab storage** — [`AlignedF64Slab`] /
//!   [`AlignedU32Slab`] back the reusable SoA scratch with 64-byte-aligned
//!   blocks, so every [`PAD_MULTIPLE`]-element chunk
//!   starts on a cache line and a slab padded with sentinels never makes a
//!   vector loop straddle a ragged tail.
//!
//! [`KernelPrecision`] names the arithmetic the kernels implement on top of
//! this: vectorized f64, its only value. The exact scalar arithmetic lives
//! on as the per-target walk (`bhut_tree::traverse`), which the tests hold
//! the slab kernels to.

use std::sync::atomic::{AtomicU8, Ordering};

/// f64 lanes per vector op (256-bit registers).
pub const F64_LANES: usize = 4;
/// Slab padding granularity, in elements. Eight f64 are one 64-byte cache
/// line and one AVX-512 chunk — two [`F64_LANES`] chunks — so one padded
/// length serves every ISA tier.
pub const PAD_MULTIPLE: usize = 8;
/// Slab block alignment, bytes.
pub const SLAB_ALIGN: usize = 64;

/// Arithmetic of the batched P2P/M2P kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPrecision {
    /// Vectorized f64 lanes — the per-target walk's per-interaction
    /// arithmetic up to summation order and an inverse-sqrt refactoring
    /// (≤1e-12 relative on full sweeps). The only value; removed by ROADMAP
    /// direction 3(e).
    #[default]
    F64,
}

impl KernelPrecision {
    /// Short stable name for configs/JSON (`"f64"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelPrecision::F64 => "f64",
        }
    }

    /// Inverse of [`KernelPrecision::as_str`]. The retired `"mixed_f32"`
    /// and `"scalar_f64"` are refused with their own message rather than
    /// read as another mode.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "f64" => Ok(KernelPrecision::F64),
            "mixed_f32" | "scalar_f64" => {
                Err(format!("kernel precision {s:?} was removed; use \"f64\""))
            }
            other => Err(format!("unknown kernel precision {other:?}")),
        }
    }
}

/// Instruction sets the dispatcher distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// 512-bit vectors (AVX-512F, which implies the AVX2+FMA tier too).
    /// Only the slab kernel, the mixed-frontier replay and its lane MAC
    /// tests have 512-bit bodies; everything else runs its AVX2 body under
    /// this tier.
    Avx512,
    /// 256-bit vectors via the AVX2+FMA-compiled clone of a dispatched
    /// body. FMA is part of the tier contract because the f64 kernels'
    /// Newton–Raphson rsqrt uses a fused negative-multiply-add.
    Avx2,
    /// The baseline-ISA body (scalar/SSE2 on x86_64, NEON-autovec on
    /// aarch64) — always available, and pinned by `force-scalar`.
    Portable,
}

const ISA_UNKNOWN: u8 = 0;
const ISA_AVX2: u8 = 1;
const ISA_PORTABLE: u8 = 2;
const ISA_AVX512: u8 = 3;

static ISA_CACHE: AtomicU8 = AtomicU8::new(ISA_UNKNOWN);

/// The instruction set dispatched kernels run under on this machine,
/// probed once per process and cached.
#[inline]
pub fn isa() -> Isa {
    match ISA_CACHE.load(Ordering::Relaxed) {
        ISA_AVX512 => Isa::Avx512,
        ISA_AVX2 => Isa::Avx2,
        ISA_PORTABLE => Isa::Portable,
        _ => {
            let isa = probe();
            let tag = match isa {
                Isa::Avx512 => ISA_AVX512,
                Isa::Avx2 => ISA_AVX2,
                Isa::Portable => ISA_PORTABLE,
            };
            ISA_CACHE.store(tag, Ordering::Relaxed);
            isa
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
fn probe() -> Isa {
    let avx2 = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
    if avx2 && std::is_x86_feature_detected!("avx512f") {
        Isa::Avx512
    } else if avx2 {
        Isa::Avx2
    } else {
        Isa::Portable
    }
}

#[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
fn probe() -> Isa {
    Isa::Portable
}

/// Four f64 lanes (one 256-bit register under AVX2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64s(pub [f64; F64_LANES]);

impl F64s {
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64s([v; F64_LANES])
    }

    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Load the first [`F64_LANES`] elements of `s`.
    #[inline(always)]
    pub fn load(s: &[f64]) -> Self {
        let mut v = [0.0; F64_LANES];
        v.copy_from_slice(&s[..F64_LANES]);
        F64s(v)
    }

    #[allow(clippy::should_implement_trait)] // lane op, not std::ops
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(o.0) {
            *a += b;
        }
        F64s(v)
    }

    #[allow(clippy::should_implement_trait)] // lane op, not std::ops
    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(o.0) {
            *a -= b;
        }
        F64s(v)
    }

    #[allow(clippy::should_implement_trait)] // lane op, not std::ops
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(o.0) {
            *a *= b;
        }
        F64s(v)
    }

    /// Elementwise maximum, in the x86 `maxpd` convention (`self > o ? self
    /// : o`, so `o` wins ties and NaNs): the kernels clamp `r²` to
    /// [`R2_FLOOR_F64`] with this before the rsqrt, and the intrinsic bodies
    /// must agree bit for bit.
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(o.0) {
            *a = if *a > b { *a } else { b };
        }
        F64s(v)
    }

    /// Lane-wise [`rsqrt_nr_f64`] — the kernels' reciprocal square root.
    #[inline(always)]
    pub fn rsqrt_nr(self) -> Self {
        let mut v = self.0;
        for lane in &mut v {
            *lane = rsqrt_nr_f64(*lane);
        }
        F64s(v)
    }

    /// Horizontal sum, in fixed lane order (deterministic across ISAs — the
    /// dispatcher never changes results, only speed).
    #[inline(always)]
    pub fn hsum(self) -> f64 {
        let mut acc = 0.0;
        for j in 0..F64_LANES {
            acc += self.0[j];
        }
        acc
    }
}

/// Floor clamped onto `r²` (one `max` per chunk) before the rsqrt, so it
/// runs unconditionally on every lane without ever producing an Inf or NaN. Padding sentinels sit at the origin with zero
/// mass, so their (clamped) lanes still contribute exactly `+0.0`; the clamp
/// is a bitwise no-op on any lane with `r² > floor`, i.e. on every physical
/// configuration — separations would have to drop below `1e-50` before it
/// rounds anything. The value is chosen so the worst-case amplified terms
/// (`φ ≤ m/√floor`, `|a| ≤ m/floor`) stay finite rather than overflowing
/// into the accumulators.
pub const R2_FLOOR_F64: f64 = 1e-100;

/// Seed constant for [`rsqrt_nr_f64`]: `magic - (bits >> 1)` flips the
/// exponent around 1.0 and halves it, landing within ~3.4% of `1/√x`.
/// This is the f64 analogue of the classic f32 `0x5f3759df` trick.
pub const RSQRT_MAGIC_F64: u64 = 0x5FE6_EB50_C7B5_37A9;

/// Division-free reciprocal square root: integer magic-constant seed plus
/// four Newton–Raphson steps, good to ≤2 ulp over the kernels' whole input
/// range (asserted in the tests across `[1e-100, 1e100]`).
///
/// The force kernels use this instead of `1/√x` because `vsqrtpd` and
/// `vdivpd` share one unpipelined divider port that caps the f64 kernel at
/// ~½ of its mul/add throughput; the NR form is pure mul/FMA. Determinism
/// is why the seed is a *software* bit trick rather than `vrsqrt14pd`:
/// hardware estimate tables differ per microarchitecture, while this exact
/// shift/subtract — refined only by correctly-rounded mul and fused
/// negative-multiply-add — gives every ISA tier the same bits.
///
/// The fused step is written `(-xh).mul_add(t, 1.5)`, which is the IEEE
/// operation `fma(-xh, t, 1.5)` — exactly what `vfnmadd` computes — so the
/// intrinsic bodies can mirror it bit for bit.
#[inline(always)]
pub fn rsqrt_nr_f64(x: f64) -> f64 {
    let xh = 0.5 * x;
    let mut y = f64::from_bits(RSQRT_MAGIC_F64.wrapping_sub(x.to_bits() >> 1));
    for _ in 0..4 {
        let t = y * y;
        let r = (-xh).mul_add(t, 1.5);
        y *= r;
    }
    y
}

/// Mask a mass chunk by id: lanes whose id equals `target` contribute zero
/// mass (the slab-kernel form of the per-particle walk's `skip_id`).
/// Multiplies by a `{1.0, 0.0}` factor rather than bit-selecting the loaded
/// mass: a multiply is pure data flow LLVM cannot legally fold away
/// (sign/NaN rules), while a select on a load tempts it into per-lane
/// conditional loads that re-scalarize the loop. Exact: masses are finite
/// and non-negative, so `m·1.0 = m` and `m·0.0 = +0.0` bit for bit.
#[inline(always)]
pub fn masked_mass_f64(ms: &[f64], ids: &[u32], target: u32) -> F64s {
    let mut v = [0.0f64; F64_LANES];
    for j in 0..F64_LANES {
        let keep = u64::from(ids[j] != target).wrapping_neg();
        v[j] = ms[j] * f64::from_bits(1.0f64.to_bits() & keep);
    }
    F64s(v)
}

macro_rules! aligned_slab {
    ($(#[$meta:meta])* $name:ident, $block:ident, $elem:ty, $per:expr, $zero:expr) => {
        #[repr(C, align(64))]
        #[derive(Debug, Clone, Copy)]
        struct $block([$elem; $per]);

        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        pub struct $name {
            blocks: Vec<$block>,
            /// Elements pushed since the last clear (excludes padding).
            len: usize,
            /// Elements covered by [`Self::pad_to`] (≥ `len` once padded).
            padded: usize,
        }

        impl $name {
            pub fn new() -> Self {
                Self::default()
            }

            /// Logical (un-padded) element count.
            #[inline(always)]
            pub fn len(&self) -> usize {
                self.len
            }

            #[inline(always)]
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// Allocated capacity, elements.
            pub fn capacity(&self) -> usize {
                self.blocks.len() * $per
            }

            /// Empty the slab, keeping capacity.
            #[inline]
            pub fn clear(&mut self) {
                self.len = 0;
                self.padded = 0;
            }

            /// Keep the first `len` logical elements and drop the rest
            /// (a no-op when the slab is not longer), keeping capacity.
            /// Like a push, this invalidates any padding: the slots from
            /// `len` on hold stale values until [`Self::pad_to`] or later
            /// pushes rewrite them.
            #[inline]
            pub fn truncate(&mut self, len: usize) {
                self.len = self.len.min(len);
                self.padded = self.len;
            }

            #[inline(always)]
            pub fn push(&mut self, v: $elem) {
                let (b, j) = (self.len / $per, self.len % $per);
                if b == self.blocks.len() {
                    self.blocks.push($block([$zero; $per]));
                }
                self.blocks[b].0[j] = v;
                self.len += 1;
                // Pushing invalidates any previous padding.
                self.padded = self.len;
            }

            /// Extend the slab with `sentinel` until its padded length is a
            /// multiple of `multiple` (the logical length is unchanged).
            pub fn pad_to(&mut self, multiple: usize, sentinel: $elem) {
                let target = self.len.next_multiple_of(multiple.max(1));
                while self.blocks.len() * $per < target {
                    self.blocks.push($block([$zero; $per]));
                }
                let len = self.len;
                let flat = self.flat_mut();
                for slot in &mut flat[len..target] {
                    *slot = sentinel;
                }
                self.padded = target;
            }

            /// Padded element count (= logical length until [`Self::pad_to`]
            /// runs).
            #[inline(always)]
            pub fn padded_len(&self) -> usize {
                self.padded.max(self.len)
            }

            /// The slab including its padding sentinels — what the vector
            /// kernels iterate. 64-byte aligned; length a whole number of
            /// pad multiples once padded.
            #[inline(always)]
            pub fn padded(&self) -> &[$elem] {
                &self.flat()[..self.padded_len()]
            }

            /// Drop capacity beyond `max(keep, len)` elements and release
            /// the excess allocation.
            pub fn shrink_to(&mut self, keep: usize) {
                let blocks = keep.max(self.padded_len()).div_ceil($per);
                if blocks < self.blocks.len() {
                    self.blocks.truncate(blocks);
                    self.blocks.shrink_to_fit();
                }
            }

            #[inline(always)]
            fn flat(&self) -> &[$elem] {
                // SAFETY: `Vec<$block>` stores its `[$elem; $per]` arrays
                // contiguously; reinterpreting as a flat element slice of
                // `blocks.len() * $per` elements is layout-exact.
                unsafe {
                    std::slice::from_raw_parts(
                        self.blocks.as_ptr().cast::<$elem>(),
                        self.blocks.len() * $per,
                    )
                }
            }

            #[inline(always)]
            fn flat_mut(&mut self) -> &mut [$elem] {
                // SAFETY: as in `flat`.
                unsafe {
                    std::slice::from_raw_parts_mut(
                        self.blocks.as_mut_ptr().cast::<$elem>(),
                        self.blocks.len() * $per,
                    )
                }
            }
        }

        impl std::ops::Deref for $name {
            type Target = [$elem];

            /// The logical contents, padding excluded — so `slab.len()`,
            /// indexing and iteration behave exactly like the `Vec` the
            /// slab replaced.
            #[inline(always)]
            fn deref(&self) -> &[$elem] {
                &self.flat()[..self.len]
            }
        }

        impl Extend<$elem> for $name {
            fn extend<I: IntoIterator<Item = $elem>>(&mut self, iter: I) {
                for v in iter {
                    self.push(v);
                }
            }
        }
    };
}

aligned_slab!(
    /// Growable f64 slab in 64-byte-aligned blocks.
    AlignedF64Slab,
    BlockF64,
    f64,
    8,
    0.0f64
);
aligned_slab!(
    /// Growable u32 slab in 64-byte-aligned blocks.
    AlignedU32Slab,
    BlockU32,
    u32,
    16,
    0u32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_multiple_covers_both_lane_widths() {
        // A 4-lane AVX2 chunk and an 8-lane AVX-512 chunk.
        assert_eq!(PAD_MULTIPLE % F64_LANES, 0);
        assert_eq!(PAD_MULTIPLE % 8, 0);
        assert_eq!(PAD_MULTIPLE * std::mem::size_of::<f64>(), SLAB_ALIGN);
    }

    #[test]
    fn isa_is_stable_and_respects_force_scalar() {
        let a = isa();
        assert_eq!(a, isa(), "cached probe must be deterministic");
        if cfg!(feature = "force-scalar") || !cfg!(target_arch = "x86_64") {
            assert_eq!(a, Isa::Portable);
        }
    }

    #[test]
    fn lane_arithmetic_matches_scalar() {
        let a = F64s([1.0, 2.0, 3.0, 4.0]);
        let b = F64s([0.5, 0.25, 2.0, 8.0]);
        assert_eq!(a.add(b).0, [1.5, 2.25, 5.0, 12.0]);
        assert_eq!(a.sub(b).0, [0.5, 1.75, 1.0, -4.0]);
        assert_eq!(a.mul(b).0, [0.5, 0.5, 6.0, 32.0]);
        assert_eq!(a.hsum(), 10.0);
        // max follows the x86 convention: ties and NaNs take the second
        // operand, and a clamp is a bitwise no-op on lanes above the floor.
        let clamped = F64s([4.0, 0.0, 1.0, 0.0]).max(F64s::splat(R2_FLOOR_F64));
        assert_eq!(clamped.0, [4.0, R2_FLOOR_F64, 1.0, R2_FLOOR_F64]);
        assert!(clamped.rsqrt_nr().0.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nr_rsqrt_is_two_ulp_accurate_over_the_kernel_range() {
        // Log-uniform sweep across everything the floored kernels can feed
        // it, from the r² floor up to far beyond any physical separation.
        for k in 0..=100_000 {
            let x = 10f64.powf(-100.0 + 200.0 * (k as f64 / 100_000.0));
            let exact = 1.0 / x.sqrt();
            let got = rsqrt_nr_f64(x);
            let rel = ((got - exact) / exact).abs();
            assert!(rel < 5e-16, "x={x:e}: got {got:e}, exact {exact:e}, rel {rel:e}");
        }
        // And the lane version is the scalar helper per lane, bit for bit.
        let xs = [R2_FLOOR_F64, 1e-8, 3.7, 1e2];
        let lanes = F64s(xs).rsqrt_nr();
        for (lane, &x) in lanes.0.iter().zip(&xs) {
            assert_eq!(*lane, rsqrt_nr_f64(x));
        }
    }

    #[test]
    fn masked_mass_zeroes_the_target_lane() {
        let ms = [1.0f64, 2.0, 3.0, 4.0];
        let ids = [7u32, 9, 11, 13];
        assert_eq!(masked_mass_f64(&ms, &ids, 11).0, [1.0, 2.0, 0.0, 4.0]);
        assert_eq!(masked_mass_f64(&ms, &ids, 99).0, ms);
    }

    #[test]
    fn slab_push_pad_and_alignment() {
        let mut s = AlignedF64Slab::new();
        for i in 0..11 {
            s.push(i as f64);
        }
        assert_eq!(s.len(), 11);
        assert_eq!(&s[..3], &[0.0, 1.0, 2.0]);
        s.pad_to(PAD_MULTIPLE, -1.0);
        assert_eq!(s.len(), 11, "padding must not change the logical length");
        assert_eq!(s.padded_len(), 16);
        assert_eq!(&s.padded()[11..], &[-1.0; 5]);
        assert_eq!(s.padded().as_ptr() as usize % SLAB_ALIGN, 0, "slab base must be 64B aligned");
        // A later push invalidates the padding bookkeeping.
        s.push(11.0);
        assert_eq!(s.padded_len(), 12);
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.padded_len(), 0);
        assert!(s.capacity() >= 16, "clear keeps capacity");
    }

    #[test]
    fn slab_truncate_then_refill_equals_a_fresh_fill() {
        let vs: Vec<f64> = (0..37).map(|i| 1.0 + i as f64).collect();
        // Cuts at, before and after a pad boundary, to empty, and past the end.
        for (fill, keep, more) in [(37usize, 11usize, 9usize), (16, 8, 3), (21, 0, 5), (9, 40, 2)] {
            let (mut cut, mut fresh) = (AlignedF64Slab::new(), AlignedF64Slab::new());
            cut.extend(vs[..fill].iter().copied());
            cut.pad_to(PAD_MULTIPLE, -1.0);
            cut.truncate(keep);
            let kept = keep.min(fill);
            assert_eq!(cut.len(), kept, "fill {fill} keep {keep}");
            assert_eq!(cut.padded_len(), kept, "a truncate invalidates the padding");
            assert_eq!(&cut[..], &vs[..kept]);
            fresh.extend(vs[..kept].iter().copied());
            for &v in &vs[..more] {
                cut.push(-v);
                fresh.push(-v);
            }
            cut.pad_to(PAD_MULTIPLE, 0.0);
            fresh.pad_to(PAD_MULTIPLE, 0.0);
            assert_eq!(cut.padded(), fresh.padded(), "fill {fill} keep {keep}: stale slots leak");
            assert_eq!(cut.padded().as_ptr() as usize % SLAB_ALIGN, 0, "64B alignment is kept");
            assert!(cut.capacity() >= fill, "truncate keeps capacity");
        }
        // The u32 slab shares the body; one ragged cut.
        let mut u = AlignedU32Slab::new();
        u.extend(0..19u32);
        u.truncate(5);
        u.pad_to(PAD_MULTIPLE, u32::MAX);
        assert_eq!(u.padded(), &[0, 1, 2, 3, 4, u32::MAX, u32::MAX, u32::MAX]);
    }

    #[test]
    fn slab_empty_pad_is_empty() {
        let mut s = AlignedF64Slab::new();
        s.pad_to(PAD_MULTIPLE, 0.0);
        assert_eq!(s.padded_len(), 0);
        assert!(s.padded().is_empty());
    }

    #[test]
    fn slab_shrink_releases_capacity_but_never_contents() {
        let mut s = AlignedU32Slab::new();
        for i in 0..10_000 {
            s.push(i);
        }
        s.clear();
        for i in 0..100u32 {
            s.push(i);
        }
        let before = s.capacity();
        assert!(before >= 10_000);
        s.shrink_to(256);
        assert!(s.capacity() < before);
        assert!(s.capacity() >= 256);
        assert_eq!(s.len(), 100);
        assert_eq!(s[99], 99);
        // Shrinking below the live contents clamps to them.
        s.shrink_to(0);
        assert!(s.capacity() >= 100);
        assert_eq!(&s[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn slab_reuse_roundtrip() {
        let mut s = AlignedF64Slab::new();
        for round in 0..3 {
            s.clear();
            for i in 0..33 {
                s.push((round * 100 + i) as f64);
            }
            s.pad_to(PAD_MULTIPLE, 0.0);
            assert_eq!(s.len(), 33);
            assert_eq!(s.padded_len(), 40);
            assert_eq!(s[0], (round * 100) as f64);
            assert_eq!(s.padded()[39], 0.0);
        }
    }

    #[test]
    fn precision_names_roundtrip() {
        let p = KernelPrecision::F64;
        assert_eq!(KernelPrecision::parse(p.as_str()), Ok(p));
        assert!(KernelPrecision::parse("f16").is_err());
        // The retired modes are refused by name, not read as another one.
        for name in ["mixed_f32", "scalar_f64"] {
            let retired = KernelPrecision::parse(name).unwrap_err();
            assert!(retired.contains(name) && retired.contains("removed"), "{retired}");
        }
        assert_eq!(KernelPrecision::default(), KernelPrecision::F64);
    }
}
