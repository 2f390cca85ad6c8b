//! Register-tiled single-precision matrix multiplication.
//!
//! This is the compute core behind standard and point-wise convolutions
//! (via [`im2col`](crate::conv)) and the fused bundle's point-wise stage.
//! One micro-kernel, generic over the [`crate::simd`] lane type, computes
//! an `MR × NR` output tile (6 rows × 16 columns, then an 8-column block
//! and a scalar column tail) whose accumulators stay in registers for the
//! whole `k` loop: each `b` row segment is loaded once per tile and
//! shared by the tile's six rows, and each output element is stored once,
//! after its chain is complete. An `Epilogue` runs on the finished
//! accumulators before that store — the identity for [`matmul_acc`] and
//! [`matmul_at_b_acc`], the per-channel BN+activation for the fused
//! point-wise tile (`pw_bnact_tile`).
//!
//! ## Bit-identity
//!
//! Every output element is built as `c = c + a·b` over `p` in ascending
//! order, never fused into an FMA, skipping the `p` whose `a` is `0.0` —
//! the same chain the scalar loop `for p in 0..k { if a != 0 { c += a·b } }`
//! computes. Lanes and tile rows are independent, so the chain is the same
//! whatever tile, block or tail an element falls in and whatever the
//! call's row or column count: results are **bit-identical** across
//! `SKYNET_SIMD` backends, thread counts, row stripes and band widths.
//! The only unsafe code is the unchecked tile loads and stores, whose
//! bounds are asserted once per call, and the `target_feature`
//! wrapper that instantiates the AVX2 backend after runtime detection.

use crate::fused::BnAct;
use crate::parallel::par_chunks_mut;
use crate::simd::{self, Backend, BnActV, F32x8, ScalarV, LANES};
use crate::telemetry;

#[cfg(target_arch = "x86_64")]
use crate::simd::Avx2V;

/// Output rows per register tile. Six rows of two 8-lane accumulators are
/// twelve independent add chains, enough to cover the add latency, and
/// with the two `b` vectors and the `a` splat they fit AVX2's sixteen
/// vector registers.
const MR: usize = 6;

/// Output columns per register tile: two 8-lane vectors.
const NR: usize = 2 * LANES;

/// Rows per parallel task of the public entry points: a whole number of
/// register tiles, fixed so the decomposition never depends on the
/// thread count.
const STRIPE: usize = 8 * MR;

/// What happens to a finished output element before its only store.
pub(crate) trait Epilogue {
    /// `true`: each chain starts from `c`'s current value (`c += a·b`);
    /// `false`: from `+0.0`, and `c`'s prior contents are never read.
    const ACCUMULATE: bool;
    /// Applies the epilogue to output row `i`'s finished vectors.
    fn apply_v<V: F32x8>(&self, i: usize, acc: &mut [V]);
    /// Applies the epilogue to one finished element of output row `i`.
    fn apply(&self, i: usize, x: f32) -> f32;
}

/// The identity epilogue of `c += a·b`.
struct Accumulate;

impl Epilogue for Accumulate {
    const ACCUMULATE: bool = true;
    #[inline(always)]
    fn apply_v<V: F32x8>(&self, _: usize, _: &mut [V]) {}
    #[inline(always)]
    fn apply(&self, _: usize, x: f32) -> f32 {
        x
    }
}

/// Output row `i` is channel `i`: `c = bn_act(a·b)`, the sequence of
/// [`simd::bn_act_inplace`].
impl Epilogue for BnAct {
    const ACCUMULATE: bool = false;
    #[inline(always)]
    fn apply_v<V: F32x8>(&self, i: usize, acc: &mut [V]) {
        let ep = BnActV::<V>::new(self.channel(i));
        for v in acc {
            *v = ep.apply(*v);
        }
    }
    #[inline(always)]
    fn apply(&self, i: usize, x: f32) -> f32 {
        simd::bn_act1(x, self.channel(i))
    }
}

/// The `m×k` left operand, read with element `(i, p)` at
/// `a[i·rs + p·cs]`: `rs = k, cs = 1` for a row-major `a`, `rs = 1,
/// cs = m` for the transposed one of [`matmul_at_b_acc`].
#[derive(Clone, Copy)]
struct Lhs<'a> {
    a: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Lhs<'a> {
    /// The operand from row `i0` on.
    fn rows_from(self, i0: usize) -> Lhs<'a> {
        Lhs {
            a: &self.a[(i0 * self.rs).min(self.a.len())..],
            ..self
        }
    }

    /// Whether every element of the `m×k` operand is in bounds.
    fn covers(&self, m: usize, k: usize) -> bool {
        m == 0 || k == 0 || (m - 1) * self.rs + (k - 1) * self.cs < self.a.len()
    }
}

/// One `R × W·8` register tile at `(i0, j0)`: the accumulators live in
/// registers across the whole `k` loop and are stored once, after the
/// epilogue.
///
/// # Safety
///
/// `lhs` must cover rows `i0..i0 + R` over `k` columns, `b` must hold
/// `k` rows of pitch `n` with columns `j0..j0 + W·8` in every row, and
/// `c` rows `i0..i0 + R` (pitch `n`) must hold those columns too.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<V: F32x8, E: Epilogue, const R: usize, const W: usize>(
    lhs: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
    ep: &E,
) {
    let (ap, bp, cp) = (lhs.a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: every offset below is inside the ranges the caller vouches for.
    unsafe {
        let mut acc = [[V::splat(0.0); W]; R];
        if E::ACCUMULATE {
            for (r, row) in acc.iter_mut().enumerate() {
                for (w, v) in row.iter_mut().enumerate() {
                    *v = V::load_ptr(cp.add((i0 + r) * n + j0 + w * LANES));
                }
            }
        }
        for p in 0..k {
            let brow = bp.add(p * n + j0);
            let bv: [V; W] = std::array::from_fn(|w| V::load_ptr(brow.add(w * LANES)));
            for (r, row) in acc.iter_mut().enumerate() {
                // `a == ±0.0`, tested on the bits: an integer compare
                // needs no zero vector, which keeps all twelve
                // accumulators of a full tile in registers.
                let bits = (ap.add((i0 + r) * lhs.rs + p * lhs.cs) as *const u32).read();
                if bits << 1 == 0 {
                    continue;
                }
                let avv = V::splat(f32::from_bits(bits));
                for (v, &bw) in row.iter_mut().zip(&bv) {
                    *v = v.add(avv.mul(bw));
                }
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            ep.apply_v(i0 + r, row);
            for (w, v) in row.iter().enumerate() {
                v.store_ptr(cp.add((i0 + r) * n + j0 + w * LANES));
            }
        }
    }
}

/// Every row of the `W·8`-column block at `j0`: whole `MR`-row tiles,
/// then one shorter tile for the row remainder.
///
/// # Safety
///
/// As [`tile`], for rows `0..m`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn column_block<V: F32x8, E: Epilogue, const W: usize>(
    lhs: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    ep: &E,
) {
    let mut i0 = 0;
    // SAFETY: forwarded to the caller; `i0 + R <= m` for every tile.
    unsafe {
        while i0 + MR <= m {
            tile::<V, E, MR, W>(lhs, b, c, k, n, i0, j0, ep);
            i0 += MR;
        }
        match m - i0 {
            0 => {}
            1 => tile::<V, E, 1, W>(lhs, b, c, k, n, i0, j0, ep),
            2 => tile::<V, E, 2, W>(lhs, b, c, k, n, i0, j0, ep),
            3 => tile::<V, E, 3, W>(lhs, b, c, k, n, i0, j0, ep),
            4 => tile::<V, E, 4, W>(lhs, b, c, k, n, i0, j0, ep),
            _ => tile::<V, E, 5, W>(lhs, b, c, k, n, i0, j0, ep),
        }
    }
}

/// Serial body of every entry point, generic over the SIMD backend and
/// the epilogue: 16-column tiles, one 8-column block, then the columns
/// past the last whole vector one element at a time on the same chain.
#[inline(always)]
fn gemm_rows_g<V: F32x8, E: Epilogue>(
    lhs: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: &E,
) {
    assert!(lhs.covers(m, k), "lhs too short");
    assert!(b.len() >= k * n, "rhs too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "out too short: {} < {}", c.len(), m * n);
    let n16 = n / NR * NR;
    let n8 = simd::vector_cover(n);
    // SAFETY: the asserts above bound every tile: rows < m, columns
    // < n8 <= n, `p` < k.
    unsafe {
        for j0 in (0..n16).step_by(NR) {
            column_block::<V, E, 2>(lhs, b, c, m, k, n, j0, ep);
        }
        if n8 > n16 {
            column_block::<V, E, 1>(lhs, b, c, m, k, n, n16, ep);
        }
    }
    for i in 0..m {
        for j in n8..n {
            let mut acc = if E::ACCUMULATE { c[i * n + j] } else { 0.0 };
            for p in 0..k {
                let av = lhs.a[i * lhs.rs + p * lhs.cs];
                if av != 0.0 {
                    acc += av * b[p * n + j];
                }
            }
            c[i * n + j] = ep.apply(i, acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_rows_avx2<E: Epilogue>(
    lhs: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: &E,
) {
    gemm_rows_g::<Avx2V, E>(lhs, b, c, m, k, n, ep)
}

/// Dispatches [`gemm_rows_g`] over the given backend.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<E: Epilogue>(
    be: Backend,
    lhs: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: &E,
) {
    match be {
        Backend::Scalar => gemm_rows_g::<ScalarV, E>(lhs, b, c, m, k, n, ep),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { gemm_rows_avx2(lhs, b, c, m, k, n, ep) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("AVX2 is never active off x86_64"),
    }
}

/// Publishes the counters of one `m×k×n` multiply.
fn count(m: usize, k: usize, n: usize) {
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.matmul.calls").inc();
        telemetry::counter("tensor.matmul.flops").add(2 * (m * k * n) as u64);
        // 16-column tiles plus the 8-column block; the scalar column
        // tail and the `a == 0` skip are not counted.
        simd::record_lanes("matmul", m * k * simd::vector_cover(n));
    }
}

/// `c += a·b` under `span`, in fixed `STRIPE`-row tasks on the
/// [`parallel`](crate::parallel) pool (inline when called from inside
/// another parallel region).
fn gemm_acc(
    span: &'static str,
    lhs: Lhs<'_>,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(lhs.covers(m, k), "lhs too short");
    assert!(b.len() >= k * n, "rhs too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "out too short: {} < {}", c.len(), m * n);
    if m * n == 0 {
        return;
    }
    let be = simd::active();
    let _span = telemetry::span(span);
    count(m, k, n);
    par_chunks_mut(&mut c[..m * n], STRIPE * n, |stripe, c_rows| {
        let lhs = lhs.rows_from(stripe * STRIPE);
        gemm_rows(be, lhs, b, c_rows, c_rows.len() / n, k, n, &Accumulate);
    });
}

/// Computes `c += a * b` where `a` is `m×k`, `b` is `k×n` and `c` is `m×n`,
/// all dense row-major.
///
/// Output rows are distributed over the [`parallel`](crate::parallel)
/// pool in fixed row stripes; each element's chain is computed
/// identically regardless of the stripe split or thread count, so
/// results stay bit-identical.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "lhs too short: {} < {}", a.len(), m * k);
    let lhs = Lhs { a, rs: k, cs: 1 };
    gemm_acc("tensor.matmul", lhs, b, c, m, k, n);
}

/// Computes `c = a * b` (overwriting `c`) with the same conventions as
/// [`matmul_acc`].
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c[..m * n].fill(0.0);
    matmul_acc(a, b, c, m, k, n);
}

/// Computes `c += aᵀ * b` where `a` is `k×m` (so `aᵀ` is `m×k`), `b` is
/// `k×n`, `c` is `m×n`. Used by the convolution input-gradient pass.
/// The same kernel as [`matmul_acc`], reading `a` column-wise, so each
/// element gets the same ascending-`p` chain.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= k * m, "lhs too short: {} < {}", a.len(), k * m);
    let lhs = Lhs { a, rs: 1, cs: m };
    gemm_acc("tensor.matmul_at_b", lhs, b, c, m, k, n);
}

/// The fused bundle's point-wise store: `tile_out = bn_act(weight ·
/// tile_in)` for a `[c2, c]` weight and a `[c, l]` row tile, with the
/// per-channel BN+activation applied to the register tile before its
/// only store. `tile_out`'s prior contents are never read. Serial: the
/// bundle executor calls it from inside its own parallel band tasks.
///
/// Bit-identical to the unfused `conv2d` → BN-eval → activation chain:
/// each element's accumulation is [`matmul_acc`]'s chain from `+0.0`,
/// independent of the column count `l`, and the epilogue is
/// [`simd::bn_act_inplace`]'s per-element sequence.
pub(crate) fn pw_bnact_tile(
    weight: &[f32],
    tile_in: &[f32],
    tile_out: &mut [f32],
    c2: usize,
    c: usize,
    l: usize,
    ep: &BnAct,
) {
    let _span = telemetry::span("tensor.matmul");
    count(c2, c, l);
    let lhs = Lhs {
        a: weight,
        rs: c,
        cs: 1,
    };
    gemm_rows(simd::active(), lhs, tile_in, tile_out, c2, c, l, ep);
}

/// Computes `c += a * bᵀ` where `a` is `m×k`, `b` is `n×k`, `c` is `m×n`.
/// Used by the convolution weight-gradient pass.
///
/// Deliberately **not** lane-parallel: its inner loop is a dot-product
/// *reduction* over `k`, so vectorizing it would reorder f32 additions
/// and change results — the opposite trade from the register tile, whose
/// lanes are separate output columns and vectorize for free. It stays
/// on the original scalar chain.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_a_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "lhs too short");
    assert!(b.len() >= n * k, "rhs too short");
    assert!(c.len() >= m * n, "out too short");
    if m * n == 0 {
        return;
    }
    let _span = telemetry::span("tensor.matmul_a_bt");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.matmul.calls").inc();
        telemetry::counter("tensor.matmul.flops").add(2 * (m * k * n) as u64);
    }
    par_chunks_mut(&mut c[..m * n], STRIPE * n, |stripe, c_rows| {
        let base = stripe * STRIPE;
        for (ri, crow) in c_rows.chunks_mut(n).enumerate() {
            let i = base + ri;
            let arow = &a[i * k..i * k + k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * k..j * k + k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seq(len: usize, mul: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 7) as f32 - 3.0) * mul).collect()
    }

    #[test]
    fn matches_naive_small() {
        let (m, k, n) = (3, 4, 5);
        let a = seq(m * k, 0.5);
        let b = seq(k * n, 1.5);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn matches_naive_block_boundary() {
        // Dimensions straddling the row stripe and the column tiles.
        let (m, k, n) = (65, 70, 67);
        let a = seq(m * k, 0.01);
        let b = seq(k * n, 0.02);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        matmul_acc(&a, &b, &mut c, m, k, n);
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn register_tile_boundaries_are_neutral() {
        // Register tiles (MR rows × NR columns, an 8-column block, a
        // scalar column tail) and row stripes are pure performance
        // decisions: one whole call must give the bits of one call per
        // output element (m = n = 1, always the scalar tail) at every
        // shape around those boundaries, with zero weights planted so the
        // skip runs inside whole and partial tiles.
        let k = 9;
        for m in [1, MR - 1, MR, MR + 1, 2 * MR + 1, STRIPE + 1] {
            for n in [
                1,
                LANES - 1,
                LANES,
                LANES + 1,
                NR - 1,
                NR,
                NR + 1,
                NR + LANES + 3,
            ] {
                let mut a = seq(m * k, 0.05);
                a.iter_mut().step_by(4).for_each(|v| *v = 0.0);
                let b = seq(k * n, 0.07);
                let c0 = seq(m * n, 0.3);
                let mut whole = c0.clone();
                matmul_acc(&a, &b, &mut whole, m, k, n);
                let mut single = c0.clone();
                for i in 0..m {
                    for j in 0..n {
                        let col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
                        matmul_acc(&a[i * k..], &col, &mut single[i * n + j..], 1, k, 1);
                    }
                }
                let wb: Vec<u32> = whole.iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
                assert_eq!(wb, sb, "tiled/per-element bits diverged at m={m} n={n}");
            }
        }
    }

    /// The fused point-wise tile against a plain loop written here: the
    /// ascending-`p` chain from `+0.0` with the `a == 0` skip, then
    /// `min(max(g·(x − m)·inv_std + b, 0), hi)` — on every backend,
    /// across the row tile and column blocks, with `±0` weights and NaN /
    /// `±∞` inputs planted and ReLU6 and ReLU ceilings. A dirty output
    /// buffer checks that the tile's prior contents are never read.
    #[test]
    fn pw_bnact_tile_matches_plain_loop_oracle() {
        // The clamp maps NaN to +0, so plain bits compare exactly.
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for k in [1usize, 2, 3, 7, 160] {
            for m in 1..=2 * MR + 1 {
                for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 33, 40] {
                    let a: Vec<f32> = seq(m * k, 0.3)
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| match i % 5 {
                            1 => 0.0,
                            3 => -0.0,
                            _ => v,
                        })
                        .collect();
                    let b: Vec<f32> = seq(k * n, 0.9)
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| match i % 13 {
                            4 => f32::NAN,
                            6 => f32::INFINITY,
                            9 => f32::NEG_INFINITY,
                            _ => v,
                        })
                        .collect();
                    for ceiling in [Some(6.0), None] {
                        let var: Vec<f32> = (0..m).map(|i| 0.5 + i as f32 * 0.1).collect();
                        let ep = BnAct::new(
                            (0..m).map(|i| i as f32 * 0.05 - 0.2).collect(),
                            &var,
                            1e-5,
                            (0..m).map(|i| 1.5 - i as f32 * 0.2).collect(),
                            (0..m).map(|i| i as f32 * 0.1 - 0.3).collect(),
                            ceiling,
                        );
                        let mut want = vec![0.0f32; m * n];
                        for i in 0..m {
                            let (mu, inv_std, g, beta, hi) = ep.channel(i);
                            for j in 0..n {
                                let mut acc = 0.0f32;
                                for p in 0..k {
                                    if a[i * k + p] != 0.0 {
                                        acc += a[i * k + p] * b[p * n + j];
                                    }
                                }
                                let y = g * (acc - mu) * inv_std + beta;
                                let t = if y > 0.0 { y } else { 0.0 };
                                want[i * n + j] = if t < hi { t } else { hi };
                            }
                        }
                        for be in simd::available_backends() {
                            let mut got = vec![f32::NAN; m * n];
                            let lhs = Lhs {
                                a: &a,
                                rs: k,
                                cs: 1,
                            };
                            gemm_rows(be, lhs, &b, &mut got, m, k, n, &ep);
                            assert_eq!(
                                bits(&want),
                                bits(&got),
                                "m={m} k={k} n={n} {ceiling:?} {}",
                                be.name()
                            );
                        }
                        let mut got = vec![-1.0f32; m * n];
                        pw_bnact_tile(&a, &b, &mut got, m, k, n, &ep);
                        assert_eq!(bits(&want), bits(&got), "pw_bnact_tile m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_variants_match_naive() {
        let (m, k, n) = (4, 6, 5);
        let a = seq(m * k, 0.3); // m×k
        let b = seq(k * n, 0.7); // k×n
        let want = naive(&a, &b, m, k, n);

        // a stored transposed: k×m.
        let mut a_t = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        matmul_at_b_acc(&a_t, &b, &mut c1, m, k, n);
        for (x, y) in c1.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }

        // b stored transposed: n×k.
        let mut b_t = vec![0.0; n * k];
        for p in 0..k {
            for j in 0..n {
                b_t[j * k + p] = b[p * n + j];
            }
        }
        let mut c2 = vec![0.0; m * n];
        matmul_a_bt_acc(&a, &b_t, &mut c2, m, k, n);
        for (x, y) in c2.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
