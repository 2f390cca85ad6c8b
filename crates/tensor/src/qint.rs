//! Quantized integer kernels: `i8`×`i8`→`i32` with a **structural
//! integer determinism contract**.
//!
//! This is the executable INT8 counterpart of the f32 kernel family
//! ([`dwconv`](crate::dwconv), [`matmul`](crate::matmul)), under the
//! same `SKYNET_SIMD` runtime dispatch ([`simd::active`]) and the same
//! two backends:
//!
//! * [`Backend::Scalar`] — plain loops: `c ⊞= w · x` one element at a
//!   time, the oracle the `qint_equivalence` suite compares against;
//! * [`Backend::Avx2`] — the reduction restructured so adjacent
//!   `i8×i8` products are summed **in pairs** by `vpmaddwd`
//!   (`_mm256_madd_epi16`), one instruction per pair instead of a
//!   widen-multiply-widen-add chain. See *Why pairing keeps
//!   bit-identity* below. The matmul runs register tiles of 6 output
//!   rows × 16 columns: the weights are paired once per call, each pair
//!   of `b` rows is widened and interleaved once for all six rows, and
//!   the accumulators stay in registers until the tile's only store.
//!
//! ## Why pairing keeps bit-identity
//!
//! `vpmaddwd` multiplies eight pairs of `i16`s and adds each pair into
//! an `i32`. Our operands are sign-extended `i8`s, so |x| ≤ 128, every
//! product is ≤ 16384, and a pair sum is ≤ 32768 — produced directly
//! in `i32`, these sums are **exact** for all `i8` inputs including
//! `i8::MIN` (the instruction's only saturating case is
//! `(−32768)² + (−32768)²`, unreachable from 8-bit operands). In the
//! quantized activation domain the bound is tighter still:
//! [`quantize_i8`] never emits −128, so products are ≤ 16129 and pair
//! sums ≤ 32258 — exact even as `i16`s. Either way the pair sums are
//! exact integers, and two's-complement wrapping `i32` addition is
//! associative and commutative, so regrouping the same multiset of
//! products into pairs cannot change a single accumulator bit — the
//! AVX2 kernels are bit-identical to the scalar loops by construction,
//! and the `qint_equivalence` suite (which plants `±127` and `i8::MIN`
//! extremes) asserts it bitwise.
//!
//! ## Why the integer contract is *stronger* than the f32 one
//!
//! The f32 kernels are bit-identical across backends because both
//! backends perform the same IEEE-754 operations in the same order —
//! a carefully engineered property (no FMA, fixed reduction trees).
//! The integer kernels get bit-identity **structurally**: an `i8`×`i8`
//! product is always exact (|−128·−128| = 16384 < 2¹⁵), and
//! two's-complement wrapping `i32` addition is associative *and*
//! commutative. Any grouping of the same multiset of products —
//! register pairs, element loops, different thread splits — produces
//! the same accumulator bits. The `qint_equivalence` proptest suite
//! still asserts it bitwise, wrap boundaries included.
//!
//! ## Why the vector epilogues keep bit-identity
//!
//! Requantization (`i32` accumulator → `i8` activation, [`requant_i8`])
//! and input quantization ([`quantize_i8`]) leave the integer domain,
//! so they get bit-identity the f32 way: by replaying the exact
//! sequence. The scalar loop is the oracle and the `Scalar` body. The
//! AVX2 backend runs 32-element blocks whose every lane does the same
//! IEEE-754 single-precision ops in the same order as one scalar
//! iteration:
//!
//! * `cvtepi32_ps`, `mul`, `add` — never fused into an FMA;
//! * the activation clamp as `max_ps(v, lo)` then `min_ps(v, hi)`,
//!   which is `if v > lo { v } else { lo }` lane for lane, NaN
//!   included;
//! * `div_ps` by the scale — a true divide, never a reciprocal;
//! * `f32::round`'s ties-away rounding emulated exactly: truncate,
//!   then step `copysign(1, x)` wherever `|x − t| ≥ 0.5` (the
//!   difference is exact, so ties are detected exactly);
//! * NaN (and, when quantizing, ±∞) to 0, a `±127` clamp,
//!   `cvttps_epi32`, and saturating packs to `i8`; saturations are
//!   counted with `movemask` + popcount.
//!
//! Elements are independent, so the block/tail split cannot matter: a
//! remainder shorter than a block runs through the same vector block
//! on zero-padded staging, with the padding lanes' saturation bits
//! masked off. The `qint_equivalence` suite compares both backends
//! bitwise — output and saturation count — on planted ties up to
//! `±127.5`, `-0.0`, clamp edges, `i32` extremes, NaN and ±∞.
//!
//! ## Lane width
//!
//! [`QLANES`] is 32: one AVX2 register holds 32 `i8`s, four times the
//! 8-lane f32 ceiling. It is the block of the vector epilogues and the
//! unit of the `quant.dwconv3.lanes_used` counter on both backends; the
//! matmul counts its 16-column blocks.
//!
//! ## Telemetry
//!
//! When metrics are on, `quant.<op>.lanes_used` counters tally the
//! elements processed through full vector blocks, and the saturation
//! helpers return clamp counts their callers publish as
//! `quant.<op>.saturated` (see OBSERVABILITY.md).

use crate::parallel::par_chunks_mut;
use crate::simd::{self, Backend};
use crate::telemetry;

/// Lane count of the integer kernel family: one AVX2 register of
/// `i8`s. Fixed on every backend so the block structure — and the
/// vector-vs-tail split — never depends on the ISA.
pub const QLANES: usize = 32;

/// Quantized activations saturate to this magnitude: the symmetric
/// `i8` range `[-127, 127]`. `-128` is excluded so that negation is
/// always representable and the range is symmetric around zero
/// (zero-point is identically 0 in this scheme).
pub const QMAX: i32 = 127;

/// Rows per parallel stripe of [`matmul_i8_acc`]: eight 6-row register
/// tiles, the same stripe as the f32 kernel's.
const QBLOCK: usize = 48;

/// Number of elements of a `len`-element loop that the 32-lane kernels
/// process as full blocks (the remainder runs scalar).
#[inline]
pub fn qvector_cover(len: usize) -> usize {
    len / QLANES * QLANES
}

/// Tallies `quant.<op>.lanes_used` when metrics are enabled.
#[inline]
pub fn record_qlanes(op: &'static str, lanes: usize) {
    if lanes > 0 && telemetry::metrics_enabled() {
        telemetry::counter(&format!("quant.{op}.lanes_used")).add(lanes as u64);
    }
}

// ---------------------------------------------------------------------------
// Integer matmul (point-wise convolutions)
// ---------------------------------------------------------------------------

/// The scalar oracle of the matmul row-stripe body: `c ⊞= a·b` one
/// wrapping product at a time.
fn matmul_i8_rows_scalar(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let crow = &mut c[i * n..i * n + n];
        for (p, &av) in a[i * k..i * k + k].iter().enumerate() {
            if av == 0 {
                continue; // exact for integers: the skipped row adds 0
            }
            let w = i32::from(av);
            for (cv, &bv) in crow.iter_mut().zip(&b[p * n..p * n + n]) {
                *cv = cv.wrapping_add(w * i32::from(bv));
            }
        }
    }
}

/// Packs two `i8` weights into the `[w0, w1]` `i16` pair `vpmaddwd`
/// expects, replicated across a register by `_mm256_set1_epi32`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pair_weights(w0: i8, w1: i8) -> i32 {
    (((w1 as i16 as u16 as u32) << 16) | (w0 as i16 as u16 as u32)) as i32
}

/// Output rows per register tile of the AVX2 matmul: six rows of two
/// accumulators plus the two unpacked `b` pair vectors and the weight
/// broadcast fill fifteen of AVX2's sixteen vector registers.
#[cfg(target_arch = "x86_64")]
const QMR: usize = 6;

/// One `R`-row × 16-column `vpmaddwd` register tile: `c[r][0..16] ⊞=
/// a[i0 + r] · b[.., 0..16]` for the `kc` rows of `b` starting at `b`
/// (pitch `ldb`), whose weight pairs start at pair `q0`; row `r` of the
/// tile is stored at `c + r·ldc`. Each pair of
/// `b` rows is widened and interleaved once and shared by all `R` rows;
/// the accumulators stay in `vpmaddwd`'s interleaved layout across the
/// whole loop and are stored once.
///
/// Layout: `_mm256_unpacklo_epi16(x0, x1)` interleaves in-lane, so the
/// `madd` of the lo/hi unpacks yields columns `[0..4, 8..12]` and
/// `[4..8, 12..16]`. The same two `_mm256_permute2x128_si256` shuffles
/// (selectors `0x20`/`0x31`) convert between that layout and the
/// natural `[0..8]`/`[8..16]` order in both directions, so existing
/// accumulator values are permuted in once and the finished tile is
/// permuted back out once. An odd final row pairs with itself under the
/// weight pair `[w, 0]`.
///
/// # Safety
///
/// Requires AVX2. `wp` holds the weight pairs pair-major (`wp[q·m + i]`,
/// [`matmul_i8_rows_avx2`]) for pairs `q0..q0 + ⌈kc/2⌉` and rows
/// `i0..i0 + R`; `b + p·ldb` is readable for 16 bytes for every `p < kc`;
/// `c + r·ldc` is readable and writable for 16 `i32`s for every `r < R`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn qtile_avx2<const R: usize>(
    wp: &[i32],
    m: usize,
    q0: usize,
    i0: usize,
    b: *const i8,
    ldb: usize,
    kc: usize,
    c: *mut i32,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    #[inline(always)]
    unsafe fn madd_rows<const R: usize>(
        acc: &mut [[__m256i; 2]; R],
        (lo, hi): (__m256i, __m256i),
        w: *const i32,
    ) {
        for (r, a) in acc.iter_mut().enumerate() {
            // SAFETY: `w` addresses this pair's weights of the tile's rows.
            let wv = _mm256_set1_epi32(unsafe { w.add(r).read() });
            a[0] = _mm256_add_epi32(a[0], _mm256_madd_epi16(lo, wv));
            a[1] = _mm256_add_epi32(a[1], _mm256_madd_epi16(hi, wv));
        }
    }
    let widen = |p: *const i8| _mm256_cvtepi8_epi16(_mm_loadu_si128(p as *const __m128i));
    // SAFETY: every pointer offset is inside the ranges the caller vouches
    // for.
    unsafe {
        let mut acc = [[_mm256_setzero_si256(); 2]; R];
        for (r, a) in acc.iter_mut().enumerate() {
            let crow = c.add(r * ldc) as *const __m256i;
            let (c0, c1) = (_mm256_loadu_si256(crow), _mm256_loadu_si256(crow.add(1)));
            *a = [
                _mm256_permute2x128_si256::<0x20>(c0, c1),
                _mm256_permute2x128_si256::<0x31>(c0, c1),
            ];
        }
        let mut w = wp.as_ptr().add(q0 * m + i0);
        let mut bp = b;
        for _ in 0..kc / 2 {
            let (x0, x1) = (widen(bp), widen(bp.add(ldb)));
            let pair = (_mm256_unpacklo_epi16(x0, x1), _mm256_unpackhi_epi16(x0, x1));
            madd_rows(&mut acc, pair, w);
            bp = bp.add(2 * ldb);
            w = w.add(m);
        }
        if kc % 2 == 1 {
            let x0 = widen(bp);
            let pair = (_mm256_unpacklo_epi16(x0, x0), _mm256_unpackhi_epi16(x0, x0));
            madd_rows(&mut acc, pair, w);
        }
        for (r, a) in acc.iter().enumerate() {
            let crow = c.add(r * ldc) as *mut __m256i;
            _mm256_storeu_si256(crow, _mm256_permute2x128_si256::<0x20>(a[0], a[1]));
            _mm256_storeu_si256(crow.add(1), _mm256_permute2x128_si256::<0x31>(a[0], a[1]));
        }
    }
}

/// [`qtile_avx2`] over rows `i0..i1` (stored from `c` on): whole
/// `QMR`-row tiles, then one shorter tile for the row remainder.
///
/// # Safety
///
/// As [`qtile_avx2`], for rows `i0..i1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn qtile_rows_avx2(
    wp: &[i32],
    m: usize,
    q0: usize,
    (i0, i1): (usize, usize),
    b: *const i8,
    ldb: usize,
    kc: usize,
    c: *mut i32,
    ldc: usize,
) {
    let mut i = i0;
    // SAFETY: forwarded to the caller; `i + R <= i1` for every tile.
    unsafe {
        while i + QMR <= i1 {
            qtile_avx2::<QMR>(wp, m, q0, i, b, ldb, kc, c.add((i - i0) * ldc), ldc);
            i += QMR;
        }
        let ct = c.add((i - i0) * ldc);
        match i1 - i {
            0 => {}
            1 => qtile_avx2::<1>(wp, m, q0, i, b, ldb, kc, ct, ldc),
            2 => qtile_avx2::<2>(wp, m, q0, i, b, ldb, kc, ct, ldc),
            3 => qtile_avx2::<3>(wp, m, q0, i, b, ldb, kc, ct, ldc),
            4 => qtile_avx2::<4>(wp, m, q0, i, b, ldb, kc, ct, ldc),
            _ => qtile_avx2::<5>(wp, m, q0, i, b, ldb, kc, ct, ldc),
        }
    }
}

/// The AVX2 matmul body: the weights are paired into `i32`s once per
/// call (pair-major, in the scratch arena), then [`qtile_avx2`] runs
/// over every full 16-column block. A column remainder (`n % 16`
/// columns — all of `n` when `n < 16`) is packed into a zero-padded
/// 16-column panel and runs through the same tiles against 16-wide
/// staging rows, so narrow outputs (the short row bands of small
/// feature maps) stay on the vector path; the padding columns only feed
/// staging lanes that are never copied back.
///
/// Exactness: pair sums from sign-extended `i8`s are exact in `i32`
/// (see the module docs), and wrapping addition is associative, so
/// this produces the same bits as [`matmul_i8_rows_scalar`] for every
/// input, wrap-arounds included. Zero weights are multiplied, not
/// skipped: they add an exact 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_i8_rows_avx2(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    let mut wp = crate::scratch::checkout_i32("tensor.qmatmul", k.div_ceil(2) * m);
    for (q, wq) in wp.chunks_exact_mut(m.max(1)).enumerate() {
        for (i, w) in wq.iter_mut().enumerate() {
            let w1 = if 2 * q + 1 < k {
                a[i * k + 2 * q + 1]
            } else {
                0
            };
            *w = pair_weights(a[i * k + 2 * q], w1);
        }
    }
    let nb = n / 16 * 16;
    for j in (0..nb).step_by(16) {
        // SAFETY: j + 16 <= nb <= n bounds the `c` and `b` columns of
        // every row; `wp` holds all ⌈k/2⌉ pairs of all m rows.
        unsafe {
            let (bj, cj) = (b.as_ptr().add(j), c.as_mut_ptr().add(j));
            qtile_rows_avx2(&wp, m, 0, (0, m), bj, n, k, cj, n);
        }
    }
    let tail = n - nb;
    if tail == 0 {
        return;
    }
    // The panel covers `KC` rows of `b` at a time (an even count, so
    // chunks start on a pair boundary) and the staging one row tile; both
    // are stack buffers. `c ⊞= a·b` splits over row chunks exactly.
    const KC: usize = 64;
    let mut panel = [0i8; KC * 16];
    let mut stage = [0i32; QMR * 16];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for (p, prow) in panel[..kc * 16].chunks_exact_mut(16).enumerate() {
            let row = (p0 + p) * n;
            prow[..tail].copy_from_slice(&b[row + nb..row + n]);
            prow[tail..].fill(0);
        }
        for i0 in (0..m).step_by(QMR) {
            let rows = QMR.min(m - i0);
            for r in 0..rows {
                stage[r * 16..r * 16 + tail].copy_from_slice(&c[(i0 + r) * n + nb..][..tail]);
            }
            // SAFETY: `stage` holds `rows` 16-wide rows and each of the
            // `kc` panel rows 16 bytes; `p0` is even, so the chunk's
            // pairs start at `p0 / 2`.
            unsafe {
                let (pp, st) = (panel.as_ptr(), stage.as_mut_ptr());
                qtile_rows_avx2(&wp, m, p0 / 2, (i0, i0 + rows), pp, 16, kc, st, 16);
            }
            for r in 0..rows {
                c[(i0 + r) * n + nb..][..tail].copy_from_slice(&stage[r * 16..r * 16 + tail]);
            }
        }
    }
}

pub(crate) fn matmul_i8_rows(
    be: Backend,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    match be {
        Backend::Scalar => matmul_i8_rows_scalar(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { matmul_i8_rows_avx2(a, b, c, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("AVX2 is never active off x86_64"),
    }
}

/// Computes `c ⊞= a * b` where `a` is `m×k` `i8`, `b` is `k×n` `i8` and
/// `c` is `m×n` `i32`, all dense row-major; `⊞` is wrapping addition.
///
/// Output rows are distributed over the [`parallel`](crate::parallel)
/// pool in fixed 32-row stripes; wrapping integer addition is
/// associative, so the stripe split, thread count, and SIMD backend
/// can never change a single output bit.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_i8_acc(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "lhs too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "rhs too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "out too short: {} < {}", c.len(), m * n);
    if m * n == 0 {
        return;
    }
    let be = simd::active();
    let _span = telemetry::span("tensor.qmatmul");
    if telemetry::metrics_enabled() {
        telemetry::counter("quant.matmul.calls").inc();
        // Every column runs through a 16-column block on the vector
        // backend, the remainder through one zero-padded panel block.
        record_qlanes("matmul", m * k * n.div_ceil(16) * 16);
    }
    par_chunks_mut(&mut c[..m * n], QBLOCK * n, |stripe, c_rows| {
        let i0 = stripe * QBLOCK;
        matmul_i8_rows(be, &a[i0 * k..], b, c_rows, c_rows.len() / n, k, n);
    });
}

/// Computes `c = a * b` (overwriting `c`) with the same conventions as
/// [`matmul_i8_acc`].
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_i8(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    c[..m * n].fill(0);
    matmul_i8_acc(a, b, c, m, k, n);
}

// ---------------------------------------------------------------------------
// Integer 3×3 depth-wise convolution (stride 1, padding 1)
// ---------------------------------------------------------------------------

/// One guarded output cell of the 3×3 stencil: taps outside the plane
/// contribute nothing (zero padding). The AVX2 body's border columns.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn dw_cell_scalar(x: &[i8], w9: &[i8], h: usize, wd: usize, y: usize, xc: usize) -> i32 {
    let mut acc = 0i32;
    for ky in 0..3 {
        let iy = y + ky;
        if iy < 1 || iy > h {
            continue;
        }
        let row = (iy - 1) * wd;
        for kx in 0..3 {
            let ix = xc + kx;
            if ix < 1 || ix > wd {
                continue;
            }
            acc = acc.wrapping_add(i32::from(w9[ky * 3 + kx]) * i32::from(x[row + ix - 1]));
        }
    }
    acc
}

/// The scalar oracle of [`dw_plane_rows`]: per output row, each
/// in-bounds tap is one wrapping multiply-add over the columns it
/// reaches (output column `xc` reads input column `xc + kx − 1`).
fn dw_plane_rows_scalar(
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    for y in y0..y1 {
        let orow = &mut o[(y - y0) * wd..(y - y0 + 1) * wd];
        orow.fill(0);
        for ky in 0..3 {
            let iy = y + ky;
            if iy < 1 || iy > h {
                continue;
            }
            let xrow = &x[(iy - 1) * wd..iy * wd];
            for kx in 0..3 {
                let w = i32::from(w9[ky * 3 + kx]);
                let (o0, i0) = (usize::from(kx == 0), kx.saturating_sub(1));
                let len = if kx == 1 { wd } else { wd.saturating_sub(1) };
                for (ov, &xv) in orow[o0..o0 + len].iter_mut().zip(&xrow[i0..i0 + len]) {
                    *ov = ov.wrapping_add(w * i32::from(xv));
                }
            }
        }
    }
}

/// One 16-column pairing block of the DW stencil at column `xs`:
/// reduces the row's in-bounds tap list two taps per `vpmaddwd` into
/// zeroed register accumulators and stores once (overwrite semantics),
/// in the same permuted layout as [`qtile_avx2`]. The
/// taps of a pair may come from different input rows, each carrying
/// its own base offset.
///
/// # Safety
///
/// Requires AVX2, `1 <= xs` and `xs + 15 <= wd - 2` (so every 16-byte
/// tap load and the 16-wide store stay inside their rows), and `orow`
/// spanning a full `wd`-column output row of the plane `x`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dw_block16_avx2(x: &[i8], taps: &[(i8, usize); 9], nt: usize, orow: *mut i32, xs: usize) {
    use std::arch::x86_64::*;
    let mut m0 = _mm256_setzero_si256();
    let mut m1 = _mm256_setzero_si256();
    let mut t = 0usize;
    while t + 1 < nt {
        let ((wa, ba), (wb, bb)) = (taps[t], taps[t + 1]);
        if wa != 0 || wb != 0 {
            let wp = _mm256_set1_epi32(pair_weights(wa, wb));
            let xa = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                x.as_ptr().add(ba + xs - 1) as *const __m128i
            ));
            let xb = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                x.as_ptr().add(bb + xs - 1) as *const __m128i
            ));
            m0 = _mm256_add_epi32(m0, _mm256_madd_epi16(_mm256_unpacklo_epi16(xa, xb), wp));
            m1 = _mm256_add_epi32(m1, _mm256_madd_epi16(_mm256_unpackhi_epi16(xa, xb), wp));
        }
        t += 2;
    }
    if t < nt {
        let (wa, ba) = taps[t];
        if wa != 0 {
            let wp = _mm256_set1_epi32(pair_weights(wa, 0));
            let xa = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                x.as_ptr().add(ba + xs - 1) as *const __m128i
            ));
            m0 = _mm256_add_epi32(m0, _mm256_madd_epi16(_mm256_unpacklo_epi16(xa, xa), wp));
            m1 = _mm256_add_epi32(m1, _mm256_madd_epi16(_mm256_unpackhi_epi16(xa, xa), wp));
        }
    }
    let op = orow.add(xs);
    _mm256_storeu_si256(
        op as *mut __m256i,
        _mm256_permute2x128_si256::<0x20>(m0, m1),
    );
    _mm256_storeu_si256(
        (op as *mut __m256i).add(1),
        _mm256_permute2x128_si256::<0x31>(m0, m1),
    );
}

/// The AVX2 DW body: per output row the in-bounds taps are
/// collected into a flat list (nine entries in the interior, six or
/// three at the vertical borders) and reduced over 16-column register
/// blocks ([`dw_block16_avx2`]). Because each block computes its
/// cells from scratch and stores once — it never accumulates into the
/// output — an interior column remainder is covered by one extra block
/// **overlapping** the previous one (re-storing identical bits), so
/// only the two border columns ever take the guarded scalar path.
/// Bit-identity is the same exact-pairs argument: every output cell is
/// the same wrapping-i32 tap sum no matter which block computes it.
/// Planes too narrow for a block (interior < 16 columns) stage each
/// row zero-padded instead ([`dw_row_narrow_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_plane_rows_avx2(
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    let wi = wd.saturating_sub(2); // interior columns 1..=wd-2
    for y in y0..y1 {
        let orow = &mut o[(y - y0) * wd..(y - y0 + 1) * wd];
        // In-bounds taps for this output row: (weight, row base + kx),
        // so a block at column xs loads 16 bytes from base + xs - 1.
        let mut taps = [(0i8, 0usize); 9];
        let mut nt = 0;
        for ky in 0..3 {
            let iy = y + ky;
            if iy < 1 || iy > h {
                continue;
            }
            let row = (iy - 1) * wd;
            for kx in 0..3 {
                taps[nt] = (w9[ky * 3 + kx], row + kx);
                nt += 1;
            }
        }
        if wi >= 16 {
            // SAFETY: every xs satisfies 1 <= xs and xs + 15 <= wi <=
            // wd - 2, so loads and stores stay inside their rows.
            unsafe {
                let op = orow.as_mut_ptr();
                for bx in 0..wi / 16 {
                    dw_block16_avx2(x, &taps, nt, op, 1 + bx * 16);
                }
                if !wi.is_multiple_of(16) {
                    // Overlapping tail block: recomputes some cells of
                    // the previous block to the same bits.
                    dw_block16_avx2(x, &taps, nt, op, 1 + wi - 16);
                }
            }
            orow[0] = dw_cell_scalar(x, w9, h, wd, y, 0);
            orow[wd - 1] = dw_cell_scalar(x, w9, h, wd, y, wd - 1);
        } else {
            dw_row_narrow_avx2(x, w9, orow, h, wd, y);
        }
    }
}

/// One output row of a plane too narrow for [`dw_block16_avx2`]'s
/// in-place blocks (`wd ≤ 17`): the three input rows are staged
/// zero-padded — plane column `c` at staged column `c + 1`, rows
/// outside the plane all zero — so every output column, borders
/// included, is an interior cell of the staged rows. One block covers
/// columns `0..16`; a second, overlapping one (identical bits, see
/// [`dw_plane_rows_avx2`]) covers column 16 when `wd == 17`. The
/// zero taps add exact zeros, so each cell is the same wrapping-i32 tap
/// sum the guarded scalar cell computes.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_row_narrow_avx2(x: &[i8], w9: &[i8], orow: &mut [i32], h: usize, wd: usize, y: usize) {
    const WP: usize = 20;
    assert!(wd <= 17, "narrow-plane path takes at most 17 columns");
    let mut rows = [0i8; 3 * WP];
    for ky in 0..3 {
        let iy = y + ky;
        if (1..=h).contains(&iy) {
            rows[ky * WP + 1..ky * WP + 1 + wd].copy_from_slice(&x[(iy - 1) * wd..iy * wd]);
        }
    }
    let mut taps = [(0i8, 0usize); 9];
    for (t, tap) in taps.iter_mut().enumerate() {
        *tap = (w9[t], (t / 3) * WP + t % 3);
    }
    let mut stage = [0i32; WP];
    // SAFETY: AVX2 is the caller's guarantee. The staged rows form a
    // 3-row, WP-column plane and `stage` one full WP-column output row,
    // and both blocks start at xs ∈ {1, wd - 15} ⊆ [1, 2] (wd ≤ 17,
    // asserted), so 1 <= xs and xs + 15 <= WP - 2 as
    // `dw_block16_avx2` requires.
    unsafe {
        dw_block16_avx2(&rows, &taps, 9, stage.as_mut_ptr(), 1);
        if wd > 16 {
            dw_block16_avx2(&rows, &taps, 9, stage.as_mut_ptr(), wd - 15);
        }
    }
    orow.copy_from_slice(&stage[1..1 + wd]);
}

/// Output rows `y0..y1` of one `(item, channel)` plane of
/// [`dwconv3_i8`] on backend `be`. `o` covers exactly the destination
/// rows (`(y1-y0)·wd` elements) and is **overwritten**, so callers may
/// hand in dirty scratch.
///
/// Rows are computed independently (the stencil reads only `x`), so any
/// row banding produces the same bits as a full-plane pass — the fused
/// INT8 bundle leans on this.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dw_plane_rows(
    be: Backend,
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    match be {
        Backend::Scalar => dw_plane_rows_scalar(x, w9, o, h, wd, y0, y1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { dw_plane_rows_avx2(x, w9, o, h, wd, y0, y1) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("AVX2 is never active off x86_64"),
    }
}

fn dw_plane(be: Backend, x: &[i8], w9: &[i8], o: &mut [i32], h: usize, wd: usize) {
    dw_plane_rows(be, x, w9, o, h, wd, 0, h)
}

/// Integer 3×3 depth-wise convolution, stride 1, zero padding 1 (the
/// "same" geometry every SkyNet DW-Conv uses). `x` is `n×c×h×w` `i8`,
/// `w` holds `c` filters of 9 taps (`c×1×3×3` flattened), and `out`
/// receives `n×c×h×w` raw `i32` accumulators (overwritten), one plane
/// per parallel task. Bit-identical across backends and thread counts
/// for the same structural reason as [`matmul_i8_acc`].
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn dwconv3_i8(x: &[i8], w: &[i8], out: &mut [i32], n: usize, c: usize, h: usize, wd: usize) {
    let plane = h * wd;
    assert!(x.len() >= n * c * plane, "input too short");
    assert!(w.len() >= c * 9, "weights too short");
    assert!(out.len() >= n * c * plane, "out too short");
    if n * c * plane == 0 {
        return;
    }
    let be = simd::active();
    let _span = telemetry::span("tensor.qdwconv3");
    if telemetry::metrics_enabled() {
        telemetry::counter("quant.dwconv3.calls").inc();
        record_qlanes("dwconv3", n * c * h * qvector_cover(wd.saturating_sub(2)));
    }
    par_chunks_mut(&mut out[..n * c * plane], plane, |pi, o| {
        let ch = pi % c;
        dw_plane(
            be,
            &x[pi * plane..(pi + 1) * plane],
            &w[ch * 9..ch * 9 + 9],
            o,
            h,
            wd,
        );
    });
}

// ---------------------------------------------------------------------------
// Quantize / requantize / dequantize
// ---------------------------------------------------------------------------

/// Quantizes `src` to symmetric `i8`: `q = round(v / scale)` clamped to
/// `[-QMAX, QMAX]`, zero-point 0. `f32::round` ties away from zero —
/// the requantization rounding mode of the whole INT8 path. Returns the
/// number of elements that clamped (callers publish it as a
/// `quant.<op>.saturated` counter). Non-finite inputs quantize to 0 and
/// count as saturated.
///
/// The AVX2 backend replays the scalar sequence lane-wise over
/// 32-element blocks (see the module docs); the output bits and the
/// count are the same on every backend.
///
/// # Panics
///
/// Panics when `dst` is shorter than `src` or `scale` is not a
/// strictly positive finite number.
pub fn quantize_i8(src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
    assert!(dst.len() >= src.len(), "dst too short");
    #[cfg(target_arch = "x86_64")]
    if simd::active() == Backend::Avx2 {
        // SAFETY: the Avx2 backend is only ever active after runtime
        // `avx2` detection succeeded (`simd::active`/`simd::force`
        // enforce it).
        return unsafe { quantize_i8_avx2(src, scale, dst) };
    }
    quantize_i8_scalar(src, scale, dst)
}

/// The scalar oracle of [`quantize_i8`] and its `Scalar` body.
fn quantize_i8_scalar(src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    let mut saturated = 0u64;
    for (d, &v) in dst.iter_mut().zip(src) {
        let q = (v / scale).round();
        if q.abs() > QMAX as f32 || !q.is_finite() {
            saturated += 1;
        }
        *d = if q.is_finite() {
            q.clamp(-(QMAX as f32), QMAX as f32) as i8
        } else {
            0
        };
    }
    saturated
}

/// Requantizes raw `i32` accumulators to the next stage's `i8`
/// activations:
///
/// ```text
/// v = (acc as f32) · mult + bias          // dequantized pre-activation
/// v = clamp(v, lo, hi)                    // fused activation (optional)
/// q = clamp(round(v / out_scale), ±127)   // next stage's i8 domain
/// ```
///
/// `mult` is `in_scale · w_scale` for the producing channel; `bias` is
/// the (BN-folded) f32 bias. Every element runs the same f32 ops in
/// the same order on both backends — scalar in element order on
/// `Scalar`, lane-wise over 32-element blocks on `Avx2` (see the
/// module docs) — so the output bits and the count
/// never depend on the backend. Returns the clamp count at the `i8`
/// step (the activation clamp is semantics, not saturation).
///
/// # Panics
///
/// Panics when `dst` is shorter than `acc` or `out_scale` is not a
/// strictly positive finite number.
pub fn requant_i8(
    acc: &[i32],
    mult: f32,
    bias: f32,
    clamp: Option<(f32, f32)>,
    out_scale: f32,
    dst: &mut [i8],
) -> u64 {
    assert!(
        out_scale.is_finite() && out_scale > 0.0,
        "out_scale must be positive"
    );
    assert!(dst.len() >= acc.len(), "dst too short");
    #[cfg(target_arch = "x86_64")]
    if simd::active() == Backend::Avx2 {
        // SAFETY: the Avx2 backend is only ever active after runtime
        // `avx2` detection succeeded (`simd::active`/`simd::force`
        // enforce it).
        return unsafe { requant_i8_avx2(acc, mult, bias, clamp, out_scale, dst) };
    }
    requant_i8_scalar(acc, mult, bias, clamp, out_scale, dst)
}

/// The scalar oracle of [`requant_i8`] and its `Scalar` body.
fn requant_i8_scalar(
    acc: &[i32],
    mult: f32,
    bias: f32,
    clamp: Option<(f32, f32)>,
    out_scale: f32,
    dst: &mut [i8],
) -> u64 {
    let mut saturated = 0u64;
    for (d, &a) in dst.iter_mut().zip(acc) {
        let mut v = (a as f32) * mult + bias;
        if let Some((lo, hi)) = clamp {
            v = if v > lo { v } else { lo };
            v = if v < hi { v } else { hi };
        }
        let q = (v / out_scale).round();
        if q.abs() > QMAX as f32 {
            saturated += 1;
        }
        *d = q.clamp(-(QMAX as f32), QMAX as f32) as i8;
    }
    saturated
}

/// `f32::round` (ties away from zero) on eight lanes, exactly: `t` is
/// `x` truncated toward zero, and `x − t` is exact (the fractional part
/// of a float is representable), so `|x − t| ≥ 0.5` picks precisely the
/// lanes that round away, where `t ± 1` is exact too (`|t| < 2²³`
/// there). Infinities keep `t` (`∞ − ∞` is NaN, which compares false),
/// NaN stays NaN, and `±0` keeps its sign.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn round_ties_away_ps(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_ps(-0.0);
    let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
    let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(x, t));
    let away = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    let step = _mm256_or_ps(_mm256_set1_ps(1.0), _mm256_and_ps(sign, x)); // copysign(1, x)
    _mm256_blendv_ps(t, _mm256_add_ps(t, step), away)
}

/// The `i8` step shared by the vector quantize and requant bodies, on
/// eight pre-rounding values `x` (`v / scale`): round ties away, zero
/// NaN lanes (and ±∞ lanes when `QUANTIZE` — the scalar `as i8` and
/// `is_finite` rules), clamp to `±QMAX`, truncate to `i32`. Returns the
/// `i32` lanes and the movemask of the saturated lanes, by each scalar
/// body's own saturation predicate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn to_i8_lanes<const QUANTIZE: bool>(
    x: std::arch::x86_64::__m256,
) -> (std::arch::x86_64::__m256i, u32) {
    use std::arch::x86_64::*;
    let qmax = _mm256_set1_ps(QMAX as f32);
    let q = round_ties_away_ps(x);
    let mag = _mm256_andnot_ps(_mm256_set1_ps(-0.0), q);
    let (keep, sat) = if QUANTIZE {
        // `!q.is_finite() || |q| > QMAX` ⇔ `!(|q| <= QMAX)`; keep finite.
        (
            _mm256_cmp_ps::<_CMP_LT_OQ>(mag, _mm256_set1_ps(f32::INFINITY)),
            _mm256_cmp_ps::<_CMP_NLE_UQ>(mag, qmax),
        )
    } else {
        // `|q| > QMAX` (false for NaN); NaN casts to 0, ±∞ clamps.
        (
            _mm256_cmp_ps::<_CMP_ORD_Q>(q, q),
            _mm256_cmp_ps::<_CMP_GT_OQ>(mag, qmax),
        )
    };
    let q = _mm256_and_ps(q, keep);
    let q = _mm256_min_ps(_mm256_max_ps(q, _mm256_set1_ps(-(QMAX as f32))), qmax);
    (_mm256_cvttps_epi32(q), _mm256_movemask_ps(sat) as u32)
}

/// Packs four registers of in-range (`±QMAX`) `i32` lanes — elements
/// `0..8`, `8..16`, `16..24`, `24..32` — into 32 `i8`s in element
/// order and stores them at `dst`. The two saturating packs interleave
/// 128-bit halves; one dword permute restores the order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store_i8x32(dst: *mut i8, v: [std::arch::x86_64::__m256i; 4]) {
    use std::arch::x86_64::*;
    let ab = _mm256_packs_epi32(v[0], v[1]);
    let cd = _mm256_packs_epi32(v[2], v[3]);
    let abcd = _mm256_packs_epi16(ab, cd);
    let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    _mm256_storeu_si256(
        dst as *mut __m256i,
        _mm256_permutevar8x32_epi32(abcd, order),
    );
}

/// Runs `block` — one 32-element vector block reading `src` and
/// writing `dst`, returning its saturation movemask — over every full
/// block of a `len`-element epilogue, then over the remainder staged
/// through zero-padded 32-element buffers. Lanes are independent, so
/// the padding lanes only touch staging slots that are never copied
/// back, and their saturation bits are masked off: every length runs
/// on the vector path.
///
/// # Safety
///
/// `block` must be safe to call on any 32-element `src`/`dst` pair.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn for_each_block32<T: Copy + Default>(
    src: &[T],
    dst: &mut [i8],
    block: impl Fn(*const T, *mut i8) -> u32,
) -> u64 {
    let nq = qvector_cover(src.len());
    let mut saturated = 0u64;
    for j in (0..nq).step_by(QLANES) {
        // SAFETY: j + QLANES <= nq <= src.len() <= dst.len().
        let m = unsafe { block(src.as_ptr().add(j), dst.as_mut_ptr().add(j)) };
        saturated += u64::from(m.count_ones());
    }
    let tail = src.len() - nq;
    if tail > 0 {
        let mut s = [T::default(); QLANES];
        let mut d = [0i8; QLANES];
        s[..tail].copy_from_slice(&src[nq..]);
        let m = block(s.as_ptr(), d.as_mut_ptr()) & ((1u32 << tail) - 1);
        dst[nq..src.len()].copy_from_slice(&d[..tail]);
        saturated += u64::from(m.count_ones());
    }
    saturated
}

/// The AVX2 body of [`quantize_i8`]: per lane `div`, then the shared
/// [`to_i8_lanes`] step — the scalar oracle's sequence, element-wise.
///
/// # Safety
///
/// Requires AVX2; `dst` must be at least as long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_i8_avx2(src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    use std::arch::x86_64::*;
    let vscale = _mm256_set1_ps(scale);
    for_each_block32(src, dst, |s, d| {
        let mut lanes = [_mm256_setzero_si256(); 4];
        let mut sat = 0u32;
        for (r, lane) in lanes.iter_mut().enumerate() {
            let v = _mm256_loadu_ps(s.add(8 * r));
            let (q, m) = to_i8_lanes::<true>(_mm256_div_ps(v, vscale));
            *lane = q;
            sat |= m << (8 * r);
        }
        store_i8x32(d, lanes);
        sat
    })
}

/// The AVX2 body of [`requant_i8`]: per lane `cvtepi32_ps`, `mul`,
/// `add` (never fused), the activation clamp as `max_ps(v, lo)` then
/// `min_ps(v, hi)` — x86 `max`/`min` return the second operand unless
/// the first compares greater/less, which is exactly the scalar
/// `if v > lo { v } else { lo }`, NaN included — then `div` and the
/// shared [`to_i8_lanes`] step.
///
/// # Safety
///
/// Requires AVX2; `dst` must be at least as long as `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requant_i8_avx2(
    acc: &[i32],
    mult: f32,
    bias: f32,
    clamp: Option<(f32, f32)>,
    out_scale: f32,
    dst: &mut [i8],
) -> u64 {
    use std::arch::x86_64::*;
    let (vmult, vbias, vscale) = (
        _mm256_set1_ps(mult),
        _mm256_set1_ps(bias),
        _mm256_set1_ps(out_scale),
    );
    let window = clamp.map(|(lo, hi)| (_mm256_set1_ps(lo), _mm256_set1_ps(hi)));
    for_each_block32(acc, dst, |a, d| {
        let mut lanes = [_mm256_setzero_si256(); 4];
        let mut sat = 0u32;
        for (r, lane) in lanes.iter_mut().enumerate() {
            let a = _mm256_loadu_si256(a.add(8 * r) as *const __m256i);
            let mut v = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(a), vmult), vbias);
            if let Some((lo, hi)) = window {
                v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
            }
            let (q, m) = to_i8_lanes::<false>(_mm256_div_ps(v, vscale));
            *lane = q;
            sat |= m << (8 * r);
        }
        store_i8x32(d, lanes);
        sat
    })
}

/// Dequantizes raw `i32` accumulators straight to f32:
/// `dst[j] = (acc[j] as f32) · mult + bias` — the network-exit epilogue
/// (the detection head leaves the integer domain here).
///
/// # Panics
///
/// Panics when `dst` is shorter than `acc`.
pub fn dequant_f32(acc: &[i32], mult: f32, bias: f32, dst: &mut [f32]) {
    assert!(dst.len() >= acc.len(), "dst too short");
    for (d, &a) in dst.iter_mut().zip(acc) {
        *d = (a as f32) * mult + bias;
    }
}

// ---------------------------------------------------------------------------
// Integer data movement: max-pool and reorg (pure permutations/selects)
// ---------------------------------------------------------------------------

/// 2-D max pooling on `i8` planes with a square `k×k` window and stride
/// `k`, mirroring [`maxpool2d`](crate::pool::maxpool2d). Legal directly
/// in the quantized domain: with a positive scale and zero zero-point,
/// `q ↦ q·scale` is monotone, so the integer max picks the same winner
/// the f32 max would.
///
/// The SkyNet window, `k == 2`, runs one plane per task on the
/// [`parallel`](crate::parallel) pool; integer max is exact and
/// order-free, so the result is the same as the serial loop other `k`
/// take.
///
/// # Panics
///
/// Panics when `k == 0`, the spatial extents are not divisible by `k`,
/// or `src` is shorter than `n·c·h·w`.
pub fn maxpool2d_i8(src: &[i8], n: usize, c: usize, h: usize, w: usize, k: usize) -> Vec<i8> {
    assert!(k > 0, "window size must be positive");
    assert!(
        h.is_multiple_of(k) && w.is_multiple_of(k),
        "spatial extents {h}×{w} not divisible by {k}"
    );
    assert!(src.len() >= n * c * h * w, "input too short");
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0i8; n * c * oh * ow];
    if out.is_empty() {
        return out;
    }
    if k == 2 {
        par_chunks_mut(&mut out, oh * ow, |pi, o| {
            let plane = &src[pi * h * w..(pi + 1) * h * w];
            for (orow, rows) in o.chunks_exact_mut(ow).zip(plane.chunks_exact(2 * w)) {
                let (r0, r1) = rows.split_at(w);
                for ((d, a), b) in orow
                    .iter_mut()
                    .zip(r0.chunks_exact(2))
                    .zip(r1.chunks_exact(2))
                {
                    *d = a[0].max(a[1]).max(b[0].max(b[1]));
                }
            }
        });
        return out;
    }
    for pi in 0..n * c {
        let base = pi * h * w;
        let obase = pi * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i8::MIN;
                for ky in 0..k {
                    let row = base + (oy * k + ky) * w + ox * k;
                    for kx in 0..k {
                        let v = src[row + kx];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out[obase + oy * ow + ox] = best;
            }
        }
    }
    out
}

/// The 2×2 stride-2 `i8` max-pool of whole row pairs: `src` holds full
/// rows of width `w` (an even count), `dst` receives the pooled rows —
/// the fused INT8 bundle's pooled store. Each window is
/// `max(max(a₀, a₁), max(b₀, b₁))` exactly as in [`maxpool2d_i8`]'s
/// k == 2 body; integer max is exact and order-free, so the AVX2 body
/// (32 outputs per step: a vertical byte max, then the pair max on
/// sign-extended 16-bit halves, packed back without saturating) agrees
/// bit for bit.
pub(crate) fn maxpool2_rows_i8(be: Backend, dst: &mut [i8], src: &[i8], w: usize) {
    if w < 2 {
        return;
    }
    for (orow, rows) in dst.chunks_exact_mut(w / 2).zip(src.chunks_exact(2 * w)) {
        let (r0, r1) = rows.split_at(w);
        let done = match be {
            Backend::Scalar => 0,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 backend is only ever active after runtime
            // detection succeeded; the body stays within `r0`/`r1`/`orow`.
            Backend::Avx2 => unsafe { maxpool2_row_i8_avx2(orow, r0, r1) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => unreachable!("AVX2 is never active off x86_64"),
        };
        for ((d, a), b) in orow[done..]
            .iter_mut()
            .zip(r0[2 * done..].chunks_exact(2))
            .zip(r1[2 * done..].chunks_exact(2))
        {
            *d = a[0].max(a[1]).max(b[0].max(b[1]));
        }
    }
}

/// AVX2 body of [`maxpool2_rows_i8`] over one row pair; returns how many
/// outputs it wrote (a multiple of 32), the caller finishes the tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn maxpool2_row_i8_avx2(orow: &mut [i8], r0: &[i8], r1: &[i8]) -> usize {
    use std::arch::x86_64::*;
    let pairs = |v: __m256i| {
        // Even bytes and odd bytes of each 16-bit lane, sign-extended.
        let even = _mm256_srai_epi16::<8>(_mm256_slli_epi16::<8>(v));
        _mm256_max_epi16(even, _mm256_srai_epi16::<8>(v))
    };
    let mut ox = 0;
    while ox + 32 <= orow.len() {
        let i = 2 * ox;
        let load = |r: &[i8], at: usize| _mm256_loadu_si256(r.as_ptr().add(at).cast());
        let lo = pairs(_mm256_max_epi8(load(r0, i), load(r1, i)));
        let hi = pairs(_mm256_max_epi8(load(r0, i + 32), load(r1, i + 32)));
        // packs interleaves 128-bit lanes; the permute restores order.
        let packed = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packs_epi16(lo, hi));
        _mm256_storeu_si256(orow.as_mut_ptr().add(ox).cast(), packed);
        ox += 32;
    }
    ox
}

/// Space-to-depth reordering on `i8` planes with block size `s`,
/// mirroring [`reorg`](crate::reorg::reorg): input channel `c` and
/// intra-block offset `(dy, dx)` land in output channel
/// `c·s² + dy·s + dx`. A pure permutation, so the quantization scale
/// rides along unchanged.
///
/// # Panics
///
/// Panics when `s == 0`, the spatial extents are not divisible by `s`,
/// or `src` is shorter than `n·c·h·w`.
pub fn reorg_i8(src: &[i8], n: usize, c: usize, h: usize, w: usize, s: usize) -> Vec<i8> {
    assert!(s > 0, "block size must be positive");
    assert!(
        h.is_multiple_of(s) && w.is_multiple_of(s),
        "spatial extents {h}×{w} not divisible by {s}"
    );
    assert!(src.len() >= n * c * h * w, "input too short");
    let (oh, ow, oc) = (h / s, w / s, c * s * s);
    let mut out = vec![0i8; n * oc * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let in_base = (ni * c + ci) * h * w;
            for dy in 0..s {
                for dx in 0..s {
                    let och = ci * s * s + dy * s + dx;
                    let out_base = (ni * oc + och) * oh * ow;
                    for oy in 0..oh {
                        let in_row = in_base + (oy * s + dy) * w + dx;
                        let out_row = out_base + oy * ow;
                        for ox in 0..ow {
                            out[out_row + ox] = src[in_row + ox * s];
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] = c[i * n + j]
                        .wrapping_add(i32::from(a[i * k + p]) * i32::from(b[p * n + j]));
                }
            }
        }
        c
    }

    fn seq_i8(len: usize, stride: usize) -> Vec<i8> {
        (0..len)
            .map(|i| ((i * stride + 13) % 255) as u8 as i8)
            .collect()
    }

    #[test]
    fn matmul_matches_naive_across_tail_boundaries() {
        for n in [1, 31, 32, 33, 64, 67] {
            let (m, k) = (5, 7);
            let a = seq_i8(m * k, 3);
            let b = seq_i8(k * n, 5);
            let mut c = vec![0i32; m * n];
            matmul_i8(&a, &b, &mut c, m, k, n);
            assert_eq!(c, naive_matmul(&a, &b, m, k, n), "n={n}");
        }
    }

    #[test]
    fn matmul_acc_adds_to_existing() {
        let a = vec![1i8, 0, 0, 1];
        let b = vec![5i8, 6, 7, 8];
        let mut c = vec![1i32; 4];
        matmul_i8_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![6, 7, 8, 9]);
    }

    fn naive_dw(x: &[i8], w9: &[i8], h: usize, wd: usize) -> Vec<i32> {
        let mut o = vec![0i32; h * wd];
        for y in 0..h {
            for xc in 0..wd {
                let mut acc = 0i32;
                for ky in 0..3 {
                    for kx in 0..3 {
                        let (iy, ix) = (y + ky, xc + kx);
                        if iy < 1 || iy > h || ix < 1 || ix > wd {
                            continue;
                        }
                        acc = acc.wrapping_add(
                            i32::from(w9[ky * 3 + kx]) * i32::from(x[(iy - 1) * wd + ix - 1]),
                        );
                    }
                }
                o[y * wd + xc] = acc;
            }
        }
        o
    }

    #[test]
    fn dwconv3_matches_naive_across_widths() {
        for wd in [1, 2, 3, 33, 34, 40, 70] {
            let h = 5;
            let x = seq_i8(h * wd, 7);
            let w9 = seq_i8(9, 11);
            let mut out = vec![0i32; h * wd];
            dwconv3_i8(&x, &w9, &mut out, 1, 1, h, wd);
            assert_eq!(out, naive_dw(&x, &w9, h, wd), "wd={wd}");
        }
    }

    #[test]
    fn dwconv3_multichannel_uses_per_channel_filters() {
        let (n, c, h, wd) = (2, 3, 4, 36);
        let x = seq_i8(n * c * h * wd, 3);
        let w = seq_i8(c * 9, 5);
        let mut out = vec![0i32; n * c * h * wd];
        dwconv3_i8(&x, &w, &mut out, n, c, h, wd);
        for pi in 0..n * c {
            let ch = pi % c;
            let want = naive_dw(
                &x[pi * h * wd..(pi + 1) * h * wd],
                &w[ch * 9..ch * 9 + 9],
                h,
                wd,
            );
            assert_eq!(
                &out[pi * h * wd..(pi + 1) * h * wd],
                &want[..],
                "plane {pi}"
            );
        }
    }

    #[test]
    fn quantize_clamps_and_counts() {
        let src = [0.0f32, 0.5, -0.5, 100.0, -100.0, 1.49, f32::NAN];
        let mut dst = [0i8; 7];
        let sat = quantize_i8(&src, 0.5, &mut dst);
        // 100/0.5 = 200 and -200 clamp; NaN counts and maps to 0.
        assert_eq!(sat, 3);
        assert_eq!(dst, [0, 1, -1, 127, -127, 3, 0]);
    }

    #[test]
    fn requant_rounds_ties_away_and_clamps() {
        // acc·mult+bias = [1.5, -1.5, 300, -0.5] with out_scale 1.
        let acc = [3i32, -3, 600, -1];
        let mut dst = [0i8; 4];
        let sat = requant_i8(&acc, 0.5, 0.0, None, 1.0, &mut dst);
        assert_eq!(sat, 1);
        // round ties away from zero: 1.5 → 2, -1.5 → -2, -0.5 → -1.
        assert_eq!(dst, [2, -2, 127, -1]);
    }

    #[test]
    fn requant_applies_activation_clamp() {
        let acc = [-10i32, 4, 100];
        let mut dst = [0i8; 3];
        let sat = requant_i8(&acc, 1.0, 0.0, Some((0.0, 6.0)), 0.5, &mut dst);
        assert_eq!(sat, 0);
        assert_eq!(dst, [0, 8, 12]); // clamp to [0,6] then /0.5
    }

    #[test]
    fn dequant_is_affine() {
        let acc = [2i32, -4];
        let mut dst = [0f32; 2];
        dequant_f32(&acc, 0.25, 1.0, &mut dst);
        assert_eq!(dst, [1.5, 0.0]);
    }

    #[test]
    fn maxpool_i8_picks_winner() {
        let src = [1i8, 5, 3, 2, 4, 0, -1, 9];
        let out = maxpool2d_i8(&src, 1, 1, 2, 4, 2);
        assert_eq!(out, vec![5, 9]);
    }

    #[test]
    fn reorg_i8_matches_fig5() {
        let src: Vec<i8> = (0..16).collect();
        let out = reorg_i8(&src, 1, 1, 4, 4, 2);
        assert_eq!(
            out,
            vec![0, 2, 8, 10, 1, 3, 9, 11, 4, 6, 12, 14, 5, 7, 13, 15]
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pairing_matmul_matches_scalar_generic_across_shapes() {
        if !Backend::Avx2.is_available() {
            return;
        }
        for (m, k, n) in [
            (1, 1, 1),
            (3, 4, 16),
            (5, 7, 33),
            (2, 9, 64),
            (4, 5, 17),
            (3, 8, 16),
            (6, 2, 80),
        ] {
            let a = seq_i8(m * k, 3);
            let b = seq_i8(k * n, 5);
            // Pre-seeded accumulators exercise the permute-in path.
            let mut want = vec![7i32; m * n];
            let mut got = want.clone();
            matmul_i8_rows_scalar(&a, &b, &mut want, m, k, n);
            // SAFETY: guarded by the availability check above.
            unsafe { matmul_i8_rows_avx2(&a, &b, &mut got, m, k, n) };
            assert_eq!(want, got, "m={m} k={k} n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pairing_matmul_wraps_identically() {
        if !Backend::Avx2.is_available() {
            return;
        }
        let k = 1 << 18; // 262144 · 16384 = 2^32: wraps the i32 accumulator
        let (a, b) = (vec![i8::MIN; k], vec![i8::MIN; k * 16]);
        let mut want = vec![0i32; 16];
        let mut got = vec![0i32; 16];
        matmul_i8_rows_scalar(&a, &b, &mut want, 1, k, 16);
        // SAFETY: guarded by the availability check above.
        unsafe { matmul_i8_rows_avx2(&a, &b, &mut got, 1, k, 16) };
        assert_eq!(want, got);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pairing_dwconv_matches_scalar_generic_across_widths() {
        if !Backend::Avx2.is_available() {
            return;
        }
        for wd in [1, 2, 3, 16, 17, 18, 19, 33, 40, 70] {
            let h = 5;
            let x = seq_i8(h * wd, 7);
            let w9 = seq_i8(9, 11);
            // Dirty scratch: dw_plane_rows has overwrite semantics.
            let mut want = vec![-1i32; h * wd];
            let mut got = vec![13i32; h * wd];
            dw_plane_rows_scalar(&x, &w9, &mut want, h, wd, 0, h);
            // SAFETY: guarded by the availability check above.
            unsafe { dw_plane_rows_avx2(&x, &w9, &mut got, h, wd, 0, h) };
            assert_eq!(want, got, "wd={wd}");
        }
    }

    #[test]
    fn dw_row_bands_match_full_plane_on_every_backend() {
        let (h, wd) = (7, 40);
        let x = seq_i8(h * wd, 7);
        let w9 = seq_i8(9, 11);
        for be in simd::available_backends() {
            let mut full = vec![0i32; h * wd];
            dw_plane_rows(be, &x, &w9, &mut full, h, wd, 0, h);
            let mut banded = vec![-7i32; h * wd];
            for (y0, y1) in [(0usize, 2usize), (2, 3), (3, 7)] {
                dw_plane_rows(be, &x, &w9, &mut banded[y0 * wd..y1 * wd], h, wd, y0, y1);
            }
            assert_eq!(full, banded, "backend {}", be.name());
        }
    }

    #[test]
    fn wrapping_accumulation_is_backend_stable() {
        // Products of -128·-128 accumulate past i32::MAX and must wrap
        // identically to the naive wrapping loop.
        let k = 1 << 18; // 262144 · 16384 = 2^32 → wraps twice over
        let a = vec![i8::MIN; k];
        let b = vec![i8::MIN; k]; // k×1 matrix
        let mut c = vec![0i32; 1];
        matmul_i8(&a, &b, &mut c, 1, k, 1);
        let mut want = 0i32;
        for _ in 0..k {
            want = want.wrapping_add(16384);
        }
        assert_eq!(c[0], want);
    }
}
