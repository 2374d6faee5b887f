//! Vectorized slab kernels for the grouped-walk SoA interaction lists.
//!
//! These are the SIMD counterparts of the per-target walk's scalar kernels,
//! [`crate::traverse::accel_kernel`] / [`crate::traverse::potential_kernel`],
//! folded over a slab's rows. They iterate the *padded* slabs
//! ([`bhut_simd::AlignedF64Slab::padded`]) so the lane loops never straddle a
//! ragged tail: padding sentinels carry zero mass, so their lanes contribute
//! exactly zero.
//!
//! There is one kernel, [`accel_slab_member_f64`] — accepted nodes and
//! id-masked near field in one call; either view may be empty. (What a
//! target meets below the gather's mixed roots never becomes a slab:
//! [`crate::replay`] evaluates it during the walk, with this module's
//! per-interaction arithmetic.) It has three bodies, dispatched at runtime by
//! [`bhut_simd::isa`]:
//!
//! * a **portable** body on the [`bhut_simd`] lane types — safe code, the
//!   correctness reference, and the only path on non-x86_64 or under the
//!   `force-scalar` feature;
//! * an **AVX2** body in `core::arch` intrinsics. Autovectorizing the
//!   portable body inside a `#[target_feature]` clone looks tempting but is
//!   fragile in practice — LLVM's SLP pass splits the compare/sqrt chain
//!   into per-lane branches (sinking the "expensive" sqrt behind the `r² >
//!   0` guard), which re-scalarizes the hot loop. Explicit intrinsics make
//!   the 256-bit shape unconditional.
//! * an **AVX-512** body: the same chunk arithmetic at eight lanes, one
//!   512-bit accumulator per quantity — exactly the operations the AVX2 body
//!   performs on two consecutive 4-lane chunks, so the wider tier changes
//!   nothing but speed.
//!
//! All bodies perform the *same IEEE operations in the same order* —
//! correctly-rounded add/sub/mul (plus the one fused
//! negative-multiply-add inside the NR rsqrt below, where `f64::mul_add`
//! and `vfnmadd` compute the identical IEEE fma) and lane-order horizontal
//! sums. LLVM never contracts anything else into an FMA without fast-math,
//! so dispatch changes speed, never results.
//!
//! The arithmetic differs from the scalar kernels only in two deliberate
//! ways:
//!
//! * **Division-free rsqrt** — one `inv ≈ 1/√r²` from
//!   [`bhut_simd::rsqrt_nr_f64`] (magic-constant seed + four
//!   Newton–Raphson steps, ≤2 ulp) feeds both halves of the kernel:
//!   `φ -= m·inv` and `w = m·inv³`, instead of the scalar `m/(r²·√r²)` /
//!   `-m/√r²`. `vsqrtpd`/`vdivpd` share one unpipelined divider port that
//!   caps the kernel at roughly half its mul/add throughput; the NR form
//!   is pure mul/FMA and lifts that ceiling on wide parts (it is about
//!   neutral on AVX2-only parts, which trade the divider for port
//!   pressure — one arithmetic family for every tier is what keeps
//!   dispatch bit-stable). Same math as the scalar kernels, different
//!   rounding (≤ a few ulp per interaction), which is why
//!   grouped-vs-scalar equivalence is asserted at ≤1e-12 relative rather
//!   than bitwise.
//! * **Eight partial sums** — per quantity, slab element `i` is added into
//!   partial sum `i mod 8`, and the eight are reduced at the end in a fixed
//!   order: low four plus high four lane-wise, then the four in lane order.
//!   AVX-512 holds them in one `__m512d`; AVX2 in two 256-bit accumulators,
//!   one for the even and one for the odd 4-lane chunks; the portable body
//!   in two [`bhut_simd::F64s`] halves the same way. (Eight, not four: the
//!   AVX-512 body then adds each chunk result once, instead of folding it
//!   into four lanes with two adds and an extract.)
//!
//! The `r² = 0` singularity (unsoftened self-interaction) and the zero-mass
//! padding sentinels are both neutralized without branches: `r²` is clamped
//! to a tiny positive floor ([`bhut_simd::R2_FLOOR_F64`]) so the rsqrt runs
//! unconditionally on every lane and never produces an Inf or NaN, while
//! the padding sentinels' zero mass multiplies their lanes away to exactly
//! `+0.0`. The clamp is a bitwise no-op on every physical lane —
//! a single `max` replaces the compare/blend dance a conditional guard
//! would need (and which LLVM happily re-branches, see above).

use bhut_simd::PAD_MULTIPLE;

/// A borrowed view of one padded SoA slab (positions + masses), bundling the
/// four parallel slices the f64 kernel walks together.
///
/// The vector bodies load whole [`PAD_MULTIPLE`] chunks from all four columns
/// without bounds checks, so a view can only be made by [`SlabView::new`],
/// which checks what they rely on: equal column lengths, a whole number of
/// chunks.
#[derive(Clone, Copy)]
pub struct SlabView<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    zs: &'a [f64],
    ms: &'a [f64],
}

impl<'a> SlabView<'a> {
    /// View four equally long columns holding a whole number of
    /// [`PAD_MULTIPLE`] chunks.
    ///
    /// # Panics
    /// If the columns differ in length or the length is not a multiple of
    /// [`PAD_MULTIPLE`] — a caller passing an unpadded slab is a bug, and
    /// the kernels would read past it.
    #[inline]
    pub fn new(xs: &'a [f64], ys: &'a [f64], zs: &'a [f64], ms: &'a [f64]) -> Self {
        let n = xs.len();
        assert!([ys, zs, ms].iter().all(|c| c.len() == n), "slab columns must be equally long");
        assert!(n.is_multiple_of(PAD_MULTIPLE), "slab must be padded to {PAD_MULTIPLE} elements");
        SlabView { xs, ys, zs, ms }
    }

    /// Elements per column, padding included.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Fused per-member evaluation: one call accumulates the accepted-node M2P
/// slab and the id-masked near-field P2P slab into a *single* set of lane
/// accumulators, reduced by one horizontal sum at the end. Returns `(ax, ay, az, phi)` at `(px, py, pz)`
/// with Plummer softening `eps2 = ε²`. The lane of `parts` whose id equals
/// `target_id` is masked to zero mass; padding sentinels carry id `u32::MAX`
/// and zero mass, so they contribute nothing either way.
///
/// # Panics
/// If `ids` is not as long as `parts`.
///
/// This is the hot entry point of the grouped executor. Relative to two
/// separate kernel calls it saves a dispatch, a splat preamble and a
/// horizontal-sum reduction per member — overhead that dominates once the
/// slabs themselves vectorize. The summation *grouping* differs from
/// separate calls (one running sum instead of partial sums added scalar),
/// so results agree to a few ulp, not bitwise; grouped-vs-scalar
/// equivalence stays ≤1e-12 as before.
#[allow(clippy::too_many_arguments)] // SoA slabs are separate slices by design
pub fn accel_slab_member_f64(
    px: f64,
    py: f64,
    pz: f64,
    target_id: u32,
    nodes: SlabView<'_>,
    parts: SlabView<'_>,
    ids: &[u32],
    eps2: f64,
) -> (f64, f64, f64, f64) {
    assert_eq!(parts.len(), ids.len(), "one id per near-field slab entry");
    // SAFETY (both arms): `isa()` returned the tier only after runtime
    // feature detection (AVX-512F implies the AVX2+FMA tier). The bodies'
    // unchecked loads stay inside the slabs: every `SlabView` holds four
    // equally long columns of whole `PAD_MULTIPLE` chunks (checked by
    // `SlabView::new`, the only constructor), and `ids` was just checked to
    // be as long as `parts`.
    #[cfg(target_arch = "x86_64")]
    match bhut_simd::isa() {
        bhut_simd::Isa::Avx512 => {
            return unsafe {
                avx512::accel_slab_member_f64(px, py, pz, target_id, nodes, parts, ids, eps2)
            }
        }
        bhut_simd::Isa::Avx2 => {
            return unsafe {
                avx2::accel_slab_member_f64(px, py, pz, target_id, nodes, parts, ids, eps2)
            }
        }
        bhut_simd::Isa::Portable => {}
    }
    portable::accel_slab_member_f64(px, py, pz, target_id, nodes, parts, ids, eps2)
}

/// The safe lane-type body: correctness reference and non-AVX2 fallback.
mod portable {
    use super::SlabView;
    use bhut_simd::{masked_mass_f64, F64s, F64_LANES, R2_FLOOR_F64};

    #[allow(clippy::too_many_arguments)]
    pub fn accel_slab_member_f64(
        px: f64,
        py: f64,
        pz: f64,
        target_id: u32,
        nodes: SlabView<'_>,
        parts: SlabView<'_>,
        ids: &[u32],
        eps2: f64,
    ) -> (f64, f64, f64, f64) {
        let (pxv, pyv, pzv) = (F64s::splat(px), F64s::splat(py), F64s::splat(pz));
        let eps2v = F64s::splat(eps2);
        let floorv = F64s::splat(R2_FLOOR_F64);
        // Eight partial sums per quantity `[ax, ay, az, φ]`: the even
        // four-lane chunks of a slab go to `acc[0]`, the odd ones to `acc[1]`.
        let mut acc = [[F64s::zero(); 4]; 2];
        let mut add = |half: usize, dx: F64s, dy: F64s, dz: F64s, m: F64s| {
            let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz)).add(eps2v);
            let inv = r2.max(floorv).rsqrt_nr();
            let im = m.mul(inv);
            let [ax, ay, az, ph] = &mut acc[half];
            *ph = ph.add(im);
            let w = im.mul(inv).mul(inv);
            *ax = ax.add(dx.mul(w));
            *ay = ay.add(dy.mul(w));
            *az = az.add(dz.mul(w));
        };
        for i in (0..nodes.xs.len()).step_by(F64_LANES) {
            let dx = F64s::load(&nodes.xs[i..]).sub(pxv);
            let dy = F64s::load(&nodes.ys[i..]).sub(pyv);
            let dz = F64s::load(&nodes.zs[i..]).sub(pzv);
            add(i / F64_LANES % 2, dx, dy, dz, F64s::load(&nodes.ms[i..]));
        }
        for i in (0..parts.xs.len()).step_by(F64_LANES) {
            let dx = F64s::load(&parts.xs[i..]).sub(pxv);
            let dy = F64s::load(&parts.ys[i..]).sub(pyv);
            let dz = F64s::load(&parts.zs[i..]).sub(pzv);
            let m = masked_mass_f64(&parts.ms[i..], &ids[i..], target_id);
            add(i / F64_LANES % 2, dx, dy, dz, m);
        }
        // Low half plus high half lane-wise, then the lane-order sum.
        let [ax, ay, az, ph] = [0, 1, 2, 3].map(|q| acc[0][q].add(acc[1][q]).hsum());
        (ax, ay, az, -ph)
    }
}

/// Explicit 256-bit bodies. Every operation here is the correctly-rounded
/// IEEE counterpart of the portable body's, executed in the same order, so
/// the two paths return bit-identical results (asserted in the tests on
/// AVX2 hardware).
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::SlabView;
    use core::arch::x86_64::*;

    /// `rsqrt_nr(max(r², floor))` — the branch-free singularity guard plus
    /// the division-free Newton–Raphson rsqrt of the f64 kernel.
    /// `_mm256_max_pd` has the `a > b ? a : b` convention the portable
    /// [`bhut_simd::F64s::max`] mirrors; the seed/refine sequence is
    /// op-for-op [`bhut_simd::rsqrt_nr_f64`] (`_mm256_sub_epi64` is the
    /// wrapping subtract, `_mm256_fnmadd_pd(a, b, c)` is the IEEE
    /// `fma(-a, b, c)` that `f64::mul_add` computes) — so the bodies stay
    /// bit-identical.
    #[inline(always)]
    pub(crate) unsafe fn floored_rsqrt_pd(r2: __m256d) -> __m256d {
        let x = _mm256_max_pd(r2, _mm256_set1_pd(bhut_simd::R2_FLOOR_F64));
        let xh = _mm256_mul_pd(_mm256_set1_pd(0.5), x);
        let three_half = _mm256_set1_pd(1.5);
        let mut y = _mm256_castsi256_pd(_mm256_sub_epi64(
            _mm256_set1_epi64x(bhut_simd::RSQRT_MAGIC_F64 as i64),
            _mm256_srli_epi64::<1>(_mm256_castpd_si256(x)),
        ));
        for _ in 0..4 {
            let t = _mm256_mul_pd(y, y);
            let r = _mm256_fnmadd_pd(xh, t, three_half);
            y = _mm256_mul_pd(y, r);
        }
        y
    }

    /// Horizontal sum in lane order (matches the portable `hsum`).
    #[inline(always)]
    pub(super) unsafe fn hsum_pd(v: __m256d) -> f64 {
        let mut a = [0.0f64; 4];
        _mm256_storeu_pd(a.as_mut_ptr(), v);
        ((a[0] + a[1]) + a[2]) + a[3]
    }

    /// Four of the eight partial sums per quantity: the even or the odd
    /// four-lane chunks of the slabs.
    #[derive(Clone, Copy)]
    struct Acc4 {
        ax: __m256d,
        ay: __m256d,
        az: __m256d,
        ph: __m256d,
    }

    impl Acc4 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            let z = _mm256_setzero_pd();
            Acc4 { ax: z, ay: z, az: z, ph: z }
        }

        /// The even chunks' sums plus the odd ones' lane-wise, then the
        /// lane-order sum.
        #[inline(always)]
        unsafe fn finish(lo: Self, hi: Self) -> (f64, f64, f64, f64) {
            let (ax, ay) = (_mm256_add_pd(lo.ax, hi.ax), _mm256_add_pd(lo.ay, hi.ay));
            let (az, ph) = (_mm256_add_pd(lo.az, hi.az), _mm256_add_pd(lo.ph, hi.ph));
            (hsum_pd(ax), hsum_pd(ay), hsum_pd(az), -hsum_pd(ph))
        }
    }

    /// One 4-lane M2P chunk at slab offset `i`, accumulated into `acc`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn m2p_chunk_f64(
        acc: &mut Acc4,
        i: usize,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        ms: &[f64],
        pxv: __m256d,
        pyv: __m256d,
        pzv: __m256d,
        eps2v: __m256d,
    ) {
        let dx = _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i)), pxv);
        let dy = _mm256_sub_pd(_mm256_loadu_pd(ys.as_ptr().add(i)), pyv);
        let dz = _mm256_sub_pd(_mm256_loadu_pd(zs.as_ptr().add(i)), pzv);
        let r2 = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            ),
            eps2v,
        );
        let inv = floored_rsqrt_pd(r2);
        let im = _mm256_mul_pd(_mm256_loadu_pd(ms.as_ptr().add(i)), inv);
        acc.ph = _mm256_add_pd(acc.ph, im);
        let w = _mm256_mul_pd(_mm256_mul_pd(im, inv), inv);
        acc.ax = _mm256_add_pd(acc.ax, _mm256_mul_pd(dx, w));
        acc.ay = _mm256_add_pd(acc.ay, _mm256_mul_pd(dy, w));
        acc.az = _mm256_add_pd(acc.az, _mm256_mul_pd(dz, w));
    }

    /// One 4-lane P2P chunk: as [`m2p_chunk_f64`] with the `target` id
    /// (an `_mm_set1_epi32` splat) masked to zero mass.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn p2p_chunk_f64(
        acc: &mut Acc4,
        i: usize,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        ms: &[f64],
        ids: &[u32],
        target: __m128i,
        pxv: __m256d,
        pyv: __m256d,
        pzv: __m256d,
        eps2v: __m256d,
    ) {
        let one = _mm256_set1_pd(1.0);
        let dx = _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i)), pxv);
        let dy = _mm256_sub_pd(_mm256_loadu_pd(ys.as_ptr().add(i)), pyv);
        let dz = _mm256_sub_pd(_mm256_loadu_pd(zs.as_ptr().add(i)), pzv);
        let r2 = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            ),
            eps2v,
        );
        // idf = 1.0 where id != target, 0.0 where it matches: widen the
        // 4×32-bit equality mask to 64-bit lanes and andnot against 1.0
        // (the portable `masked_mass_f64` factor).
        let eq = _mm_cmpeq_epi32(_mm_loadu_si128(ids.as_ptr().add(i) as *const __m128i), target);
        let idf = _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq)), one);
        let inv = floored_rsqrt_pd(r2);
        let m = _mm256_mul_pd(_mm256_loadu_pd(ms.as_ptr().add(i)), idf);
        let im = _mm256_mul_pd(m, inv);
        acc.ph = _mm256_add_pd(acc.ph, im);
        let w = _mm256_mul_pd(_mm256_mul_pd(im, inv), inv);
        acc.ax = _mm256_add_pd(acc.ax, _mm256_mul_pd(dx, w));
        acc.ay = _mm256_add_pd(acc.ay, _mm256_mul_pd(dy, w));
        acc.az = _mm256_add_pd(acc.az, _mm256_mul_pd(dz, w));
    }

    /// Fused member body: the two chunk helpers accumulated in the order
    /// nodes → particles, a slab's even four-lane chunks into one [`Acc4`]
    /// and its odd ones into another (matching the portable body exactly).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and `ids` must be as long as
    /// `parts` (the views themselves guarantee whole, equally long chunks).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn accel_slab_member_f64(
        px: f64,
        py: f64,
        pz: f64,
        target_id: u32,
        nodes: SlabView<'_>,
        parts: SlabView<'_>,
        ids: &[u32],
        eps2: f64,
    ) -> (f64, f64, f64, f64) {
        let (pxv, pyv, pzv) = (_mm256_set1_pd(px), _mm256_set1_pd(py), _mm256_set1_pd(pz));
        let eps2v = _mm256_set1_pd(eps2);
        let target = _mm_set1_epi32(target_id as i32);
        let (mut lo, mut hi) = (Acc4::zero(), Acc4::zero());
        // Every view is whole eight-element chunks: an even and an odd one.
        for i in (0..nodes.xs.len()).step_by(8) {
            let (xs, ys, zs, ms) = (nodes.xs, nodes.ys, nodes.zs, nodes.ms);
            m2p_chunk_f64(&mut lo, i, xs, ys, zs, ms, pxv, pyv, pzv, eps2v);
            m2p_chunk_f64(&mut hi, i + 4, xs, ys, zs, ms, pxv, pyv, pzv, eps2v);
        }
        for i in (0..parts.xs.len()).step_by(8) {
            let (xs, ys, zs, ms) = (parts.xs, parts.ys, parts.zs, parts.ms);
            p2p_chunk_f64(&mut lo, i, xs, ys, zs, ms, ids, target, pxv, pyv, pzv, eps2v);
            p2p_chunk_f64(&mut hi, i + 4, xs, ys, zs, ms, ids, target, pxv, pyv, pzv, eps2v);
        }
        Acc4::finish(lo, hi)
    }
}

/// Explicit 512-bit body for the f64 kernel. Same chunk arithmetic as
/// [`avx2`] at eight lanes: every elementwise op is the correctly-rounded
/// IEEE counterpart of two consecutive 4-lane AVX2 chunks, and one 512-bit
/// register per quantity holds the eight partial sums the AVX2 body keeps
/// in two 256-bit halves — lanes 0–3 its even chunks', 4–7 its odd ones' —
/// so this tier is bitwise the AVX2 (and portable) result, just faster.
/// The win is real only because the NR rsqrt is pure mul/FMA: with a
/// hardware sqrt+div the 256-bit-wide divider would serialize the doubled
/// lanes right back.
///
/// Every view is a whole number of [`bhut_simd::PAD_MULTIPLE`] (8) chunks —
/// the kernel's contract — so the loops have no trailing 4-lane chunk.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::avx2::hsum_pd;
    use super::SlabView;
    use core::arch::x86_64::*;

    /// Eight-lane `avx2::floored_rsqrt_pd`: same clamp, same seed
    /// subtract, same four FNMA-refined Newton steps.
    #[inline(always)]
    pub(crate) unsafe fn floored_rsqrt_pd8(r2: __m512d) -> __m512d {
        let x = _mm512_max_pd(r2, _mm512_set1_pd(bhut_simd::R2_FLOOR_F64));
        let xh = _mm512_mul_pd(_mm512_set1_pd(0.5), x);
        let three_half = _mm512_set1_pd(1.5);
        let mut y = _mm512_castsi512_pd(_mm512_sub_epi64(
            _mm512_set1_epi64(bhut_simd::RSQRT_MAGIC_F64 as i64),
            _mm512_srli_epi64::<1>(_mm512_castpd_si512(x)),
        ));
        for _ in 0..4 {
            let t = _mm512_mul_pd(y, y);
            let r = _mm512_fnmadd_pd(xh, t, three_half);
            y = _mm512_mul_pd(y, r);
        }
        y
    }

    /// The eight partial sums per quantity.
    #[derive(Clone, Copy)]
    struct Acc8 {
        ax: __m512d,
        ay: __m512d,
        az: __m512d,
        ph: __m512d,
    }

    /// Low half plus high half lane-wise, then the AVX2 body's lane-order
    /// sum.
    #[inline(always)]
    unsafe fn fold(v: __m512d) -> f64 {
        hsum_pd(_mm256_add_pd(_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd::<1>(v)))
    }

    /// One 8-lane M2P chunk at slab offset `i`, accumulated into `acc`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn m2p_chunk8_f64(
        acc: &mut Acc8,
        i: usize,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        ms: &[f64],
        pxv: __m512d,
        pyv: __m512d,
        pzv: __m512d,
        eps2v: __m512d,
    ) {
        let dx = _mm512_sub_pd(_mm512_loadu_pd(xs.as_ptr().add(i)), pxv);
        let dy = _mm512_sub_pd(_mm512_loadu_pd(ys.as_ptr().add(i)), pyv);
        let dz = _mm512_sub_pd(_mm512_loadu_pd(zs.as_ptr().add(i)), pzv);
        let r2 = _mm512_add_pd(
            _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                _mm512_mul_pd(dz, dz),
            ),
            eps2v,
        );
        let inv = floored_rsqrt_pd8(r2);
        let im = _mm512_mul_pd(_mm512_loadu_pd(ms.as_ptr().add(i)), inv);
        acc.ph = _mm512_add_pd(acc.ph, im);
        let w = _mm512_mul_pd(_mm512_mul_pd(im, inv), inv);
        acc.ax = _mm512_add_pd(acc.ax, _mm512_mul_pd(dx, w));
        acc.ay = _mm512_add_pd(acc.ay, _mm512_mul_pd(dy, w));
        acc.az = _mm512_add_pd(acc.az, _mm512_mul_pd(dz, w));
    }

    /// One 8-lane P2P chunk: as [`m2p_chunk8_f64`] with the `target` id
    /// (an `_mm256_set1_epi32` splat over the eight 32-bit ids) masked to
    /// zero mass. The andnot runs in the integer domain
    /// (`_mm512_andnot_si512` is AVX-512F; the `_pd` form is not) — bitwise
    /// the same operation as the AVX2 body's `_mm256_andnot_pd`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn p2p_chunk8_f64(
        acc: &mut Acc8,
        i: usize,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        ms: &[f64],
        ids: &[u32],
        target: __m256i,
        pxv: __m512d,
        pyv: __m512d,
        pzv: __m512d,
        eps2v: __m512d,
    ) {
        let one = _mm512_set1_pd(1.0);
        let dx = _mm512_sub_pd(_mm512_loadu_pd(xs.as_ptr().add(i)), pxv);
        let dy = _mm512_sub_pd(_mm512_loadu_pd(ys.as_ptr().add(i)), pyv);
        let dz = _mm512_sub_pd(_mm512_loadu_pd(zs.as_ptr().add(i)), pzv);
        let r2 = _mm512_add_pd(
            _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                _mm512_mul_pd(dz, dz),
            ),
            eps2v,
        );
        let eq =
            _mm256_cmpeq_epi32(_mm256_loadu_si256(ids.as_ptr().add(i) as *const __m256i), target);
        let idf = _mm512_castsi512_pd(_mm512_andnot_si512(
            _mm512_cvtepi32_epi64(eq),
            _mm512_castpd_si512(one),
        ));
        let inv = floored_rsqrt_pd8(r2);
        let m = _mm512_mul_pd(_mm512_loadu_pd(ms.as_ptr().add(i)), idf);
        let im = _mm512_mul_pd(m, inv);
        acc.ph = _mm512_add_pd(acc.ph, im);
        let w = _mm512_mul_pd(_mm512_mul_pd(im, inv), inv);
        acc.ax = _mm512_add_pd(acc.ax, _mm512_mul_pd(dx, w));
        acc.ay = _mm512_add_pd(acc.ay, _mm512_mul_pd(dy, w));
        acc.az = _mm512_add_pd(acc.az, _mm512_mul_pd(dz, w));
    }

    /// Fused member body: nodes → particles into one [`Acc8`], matching the
    /// AVX2 and portable bodies exactly.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, AVX2 and FMA, and `ids` must be as
    /// long as `parts` (the views themselves guarantee whole, equally long
    /// chunks).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn accel_slab_member_f64(
        px: f64,
        py: f64,
        pz: f64,
        target_id: u32,
        nodes: SlabView<'_>,
        parts: SlabView<'_>,
        ids: &[u32],
        eps2: f64,
    ) -> (f64, f64, f64, f64) {
        let (pxv, pyv, pzv) = (_mm512_set1_pd(px), _mm512_set1_pd(py), _mm512_set1_pd(pz));
        let eps2v = _mm512_set1_pd(eps2);
        let target = _mm256_set1_epi32(target_id as i32);
        let z = _mm512_setzero_pd();
        let mut acc = Acc8 { ax: z, ay: z, az: z, ph: z };
        for i in (0..nodes.xs.len()).step_by(8) {
            m2p_chunk8_f64(
                &mut acc, i, nodes.xs, nodes.ys, nodes.zs, nodes.ms, pxv, pyv, pzv, eps2v,
            );
        }
        for i in (0..parts.xs.len()).step_by(8) {
            p2p_chunk8_f64(
                &mut acc, i, parts.xs, parts.ys, parts.zs, parts.ms, ids, target, pxv, pyv, pzv,
                eps2v,
            );
        }
        (fold(acc.ax), fold(acc.ay), fold(acc.az), -fold(acc.ph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::{accel_kernel, potential_kernel};
    use bhut_geom::Vec3;
    use bhut_simd::{AlignedF64Slab, AlignedU32Slab, PAD_MULTIPLE};

    const EPS: f64 = 1e-3;

    struct Slabs {
        xs: AlignedF64Slab,
        ys: AlignedF64Slab,
        zs: AlignedF64Slab,
        ms: AlignedF64Slab,
        ids: AlignedU32Slab,
    }

    fn make_slabs(n: usize, seed: u64) -> Slabs {
        // Small deterministic LCG; no external RNG needed here.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut s = Slabs {
            xs: AlignedF64Slab::new(),
            ys: AlignedF64Slab::new(),
            zs: AlignedF64Slab::new(),
            ms: AlignedF64Slab::new(),
            ids: AlignedU32Slab::new(),
        };
        for i in 0..n {
            s.xs.push(next() * 2.0 - 1.0);
            s.ys.push(next() * 2.0 - 1.0);
            s.zs.push(next() * 2.0 - 1.0);
            s.ms.push(next() + 0.1);
            s.ids.push(i as u32);
        }
        s.xs.pad_to(PAD_MULTIPLE, 0.0);
        s.ys.pad_to(PAD_MULTIPLE, 0.0);
        s.zs.pad_to(PAD_MULTIPLE, 0.0);
        s.ms.pad_to(PAD_MULTIPLE, 0.0);
        s.ids.pad_to(PAD_MULTIPLE, u32::MAX);
        s
    }

    fn view(s: &Slabs) -> SlabView<'_> {
        SlabView::new(s.xs.padded(), s.ys.padded(), s.zs.padded(), s.ms.padded())
    }

    /// One call of the f64 kernel: a target and the two slabs it sees.
    struct Case<'a> {
        p: Vec3,
        target: u32,
        nodes: &'a Slabs,
        parts: &'a Slabs,
        eps2: f64,
    }

    /// Run `case` through the body of one ISA tier, or `None` if this host
    /// cannot execute that tier.
    fn run_tier(tier: bhut_simd::Isa, c: &Case<'_>) -> Option<(f64, f64, f64, f64)> {
        let Case { p, target, nodes, parts, eps2 } = *c;
        let (n, q, ids) = (view(nodes), view(parts), parts.ids.padded());
        match tier {
            bhut_simd::Isa::Portable => {
                Some(portable::accel_slab_member_f64(p.x, p.y, p.z, target, n, q, ids, eps2))
            }
            #[cfg(target_arch = "x86_64")]
            bhut_simd::Isa::Avx2 => {
                (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")).then(|| {
                    // SAFETY: AVX2 and FMA were detected on this host just above.
                    unsafe { avx2::accel_slab_member_f64(p.x, p.y, p.z, target, n, q, ids, eps2) }
                })
            }
            #[cfg(target_arch = "x86_64")]
            bhut_simd::Isa::Avx512 => (is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma"))
            .then(|| {
                // SAFETY: AVX-512F, AVX2 and FMA were detected just above.
                unsafe { avx512::accel_slab_member_f64(p.x, p.y, p.z, target, n, q, ids, eps2) }
            }),
            #[cfg(not(target_arch = "x86_64"))]
            _ => None,
        }
    }

    /// The dispatched kernel on `case`.
    fn member(c: &Case<'_>) -> (f64, f64, f64, f64) {
        accel_slab_member_f64(
            c.p.x,
            c.p.y,
            c.p.z,
            c.target,
            view(c.nodes),
            view(c.parts),
            c.parts.ids.padded(),
            c.eps2,
        )
    }

    /// `(nodes, parts)` lengths: both present, either empty, both empty, and
    /// lengths that pad to one or many chunks.
    const SHAPES: [(usize, usize); 8] =
        [(0, 0), (5, 0), (0, 4), (5, 3), (13, 16), (40, 16), (64, 7), (200, 333)];

    /// The logical rows of `s` as `(id, position, mass)`.
    fn rows(s: &Slabs) -> impl Iterator<Item = (u32, Vec3, f64)> + '_ {
        (0..s.xs.len()).map(|i| (s.ids[i], Vec3::new(s.xs[i], s.ys[i], s.zs[i]), s.ms[i]))
    }

    /// The per-target walk's kernels folded over the logical rows of both
    /// slabs, the near-field row whose id is `target` left out.
    fn scalar_fold(p: Vec3, target: u32, nodes: &Slabs, parts: &Slabs) -> (Vec3, f64) {
        let near = rows(parts).filter(|&(id, ..)| id != target);
        let (mut acc, mut phi) = (Vec3::ZERO, 0.0);
        for (_, src, m) in rows(nodes).chain(near) {
            acc += accel_kernel(p, src, m, EPS);
            phi += potential_kernel(p, src, m, EPS);
        }
        (acc, phi)
    }

    #[test]
    fn member_kernel_matches_a_fold_of_the_scalar_kernels_within_1e12() {
        for (nn, np) in SHAPES {
            let nodes = make_slabs(nn, 11 + nn as u64);
            let parts = make_slabs(np, 23 + np as u64);
            let p = Vec3::new(0.31, 0.07, -0.55);
            let target = if np > 0 { (np / 2) as u32 } else { 0 };
            let (acc_ref, phi_ref) = scalar_fold(p, target, &nodes, &parts);
            let (ax, ay, az, phi) =
                member(&Case { p, target, nodes: &nodes, parts: &parts, eps2: EPS * EPS });
            let tol = 1e-12;
            assert!(
                acc_ref.dist(Vec3::new(ax, ay, az)) <= tol * acc_ref.norm().max(1.0),
                "n={nn}/{np}"
            );
            assert!((phi - phi_ref).abs() <= tol * phi_ref.abs().max(1.0), "n={nn}/{np}");
        }
    }

    /// The dispatcher only ever picks one tier per host, so compare the body
    /// of *every* tier this host can execute against the portable reference:
    /// all perform the same IEEE operations in the same order. Prints the
    /// tiers it covered, so a host without one of them is visible in the log.
    #[test]
    fn every_runnable_member_body_is_bitwise_the_portable_body() {
        use bhut_simd::Isa;
        let mut covered = vec![Isa::Portable];
        for (nn, np) in SHAPES {
            let nodes = make_slabs(nn, 301 + nn as u64);
            let parts = make_slabs(np, 401 + np as u64);
            let case = Case {
                p: Vec3::new(-0.2, 0.9, 0.4),
                target: (np / 2) as u32,
                nodes: &nodes,
                parts: &parts,
                eps2: EPS * EPS,
            };
            let want = run_tier(Isa::Portable, &case).expect("portable always runs");
            assert_eq!(member(&case), want, "dispatched, n={nn}/{np}");
            for tier in [Isa::Avx2, Isa::Avx512] {
                if let Some(got) = run_tier(tier, &case) {
                    assert_eq!(got, want, "{tier:?}, n={nn}/{np}");
                    if !covered.contains(&tier) {
                        covered.push(tier);
                    }
                }
            }
        }
        println!("ISA tiers covered (slab kernel): {covered:?}");
    }

    /// The unchecked loads of the vector bodies rest on these refusals, so
    /// they must hold in release builds too (`assert!`, not `debug_assert!`).
    #[test]
    fn ragged_or_unequal_views_are_refused() {
        let refused = |f: fn()| std::panic::catch_unwind(f).is_err();
        const COL: [f64; 16] = [0.0; 16];
        fn view(x: usize, y: usize, z: usize, m: usize) -> usize {
            SlabView::new(&COL[..x], &COL[..y], &COL[..z], &COL[..m]).len()
        }
        // A column that is not a whole number of chunks.
        assert!(refused(|| _ = view(11, 11, 11, 11)));
        // Whole chunks, but one column shorter than the others.
        assert!(refused(|| _ = view(16, 16, 8, 16)));
        assert!(refused(|| _ = view(8, 16, 16, 16)));
        // Fewer ids than near-field entries.
        assert!(refused(|| {
            let parts = SlabView::new(&COL, &COL, &COL, &COL);
            let ids = [u32::MAX; 8];
            let nodes = SlabView::new(&[], &[], &[], &[]);
            accel_slab_member_f64(0.0, 0.0, 0.0, 0, nodes, parts, &ids, 1e-6);
        }));
        // What is accepted: whole, equal columns — the empty view included.
        let ok = SlabView::new(&COL, &COL, &COL, &COL);
        assert_eq!(ok.len(), 16);
        assert!(SlabView::new(&[], &[], &[], &[]).is_empty());
    }

    #[test]
    fn zero_mass_padding_contributes_exactly_nothing() {
        // Same logical data, different padding lengths → identical sums.
        let a = make_slabs(9, 7);
        let mut b = make_slabs(9, 7);
        for s in [&mut b.xs, &mut b.ys, &mut b.zs, &mut b.ms] {
            s.pad_to(PAD_MULTIPLE * 4, 0.0);
        }
        b.ids.pad_to(PAD_MULTIPLE * 4, u32::MAX);
        let at = |nodes: &Slabs| {
            member(&Case {
                p: Vec3::new(0.5, 0.5, 0.5),
                target: 4,
                nodes,
                parts: nodes,
                eps2: EPS * EPS,
            })
        };
        let (ra, rb) = (at(&a), at(&b));
        assert_eq!(ra, rb);
    }

    #[test]
    fn unsoftened_self_interaction_is_guarded() {
        // eps = 0 and the target sitting exactly on a source: the r² = 0 lane
        // must contribute zero, not NaN.
        let s = make_slabs(5, 3);
        // Evaluate exactly on top of source 2.
        let p = Vec3::new(s.xs[2], s.ys[2], s.zs[2]);
        // The source sits in the node slab and, under an id that matches
        // nothing, in the particle slab too: only the r² guard protects.
        let (ax, ay, az, phi) =
            member(&Case { p, target: u32::MAX - 1, nodes: &s, parts: &s, eps2: 0.0 });
        assert!(ax.is_finite() && ay.is_finite() && az.is_finite() && phi.is_finite());
    }
}
