//! Cache-resident fused execution of one SkyNet bundle:
//! `DW-Conv3 → BN → Act → PW-Conv → BN → Act` in a single pass over row
//! tiles.
//!
//! The unfused path materializes five full feature maps per bundle
//! (DW output, two BN outputs, two activation outputs) and streams each
//! through DRAM between layers. This executor instead walks the output
//! in **row bands**: for each `(item, band)` task the DW-Conv3 output
//! tile (all `C` channels × `R` rows) is produced straight into the
//! thread-local [`scratch`] arena with the BN+activation epilogue fused
//! into the store loop ([`crate::dwconv`]'s fused band kernel), then fed
//! directly into the point-wise matmul, whose register tiles get the
//! second BN+activation epilogue in register before their only store —
//! the output tile the final rows are copied (or pooled) from. The
//! full-size intermediates never exist.
//!
//! ## Bit-identity
//!
//! The fused output is **bit-identical** to the unfused layer-by-layer
//! path on every `SKYNET_SIMD` backend and thread count, because each
//! stage reuses the unfused kernels' exact per-element f32 operation
//! sequences and none of them depends on position or tile extent:
//!
//! * DW rows are row-local (output row `y` reads input rows
//!   `y·s − p ..= y·s − p + 2` only) and replay `dw_plane_fwd`'s
//!   border/interior split per row;
//! * the BN+activation epilogues replay `bn_apply_eval` +
//!   `relu/relu6`'s per-element sequence, which is independent of the
//!   vector/tail boundary ([`simd::bn_act_inplace`]);
//! * the point-wise stage is [`matmul_acc`](crate::matmul::matmul_acc)'s
//!   register-tiled kernel, which accumulates each output element over
//!   `k` in a fixed ascending chain from `+0.0`, independent of the
//!   column count of the call — so a band tile (`n = R·W`) produces the
//!   same bits as the whole plane (`n = H·W`) — and applies the
//!   BN+activation epilogue to the finished chain, per element, exactly
//!   as the unfused BN and activation layers do;
//! * the band decomposition is a fixed function of the shape, never of
//!   the thread count.
//!
//! `core::plan` drives this executor from the graph-level execution
//! plan; [`crate::fusion`] (`SKYNET_FUSION`) toggles it, keeping the
//! unfused path as the equivalence oracle.
//!
//! ## Pooled stores
//!
//! A bundle followed by SkyNet's 2×2 max-pool — and Bundle 3, whose
//! full map also feeds the space-to-depth bypass — need not store its
//! full-resolution map at all ([`BundleStore`]). With an even band
//! height every 2×2 window lies inside one band's output tile, so
//! [`fused_bundle_forward_store`] pools each tile straight into the
//! half-resolution map and permutes it into the bypass. The window
//! order and comparison replay [`maxpool2d`](crate::pool::maxpool2d)
//! exactly, and the permutation is [`reorg`](crate::reorg::reorg)'s,
//! so the pooled map and bypass are bit-identical to the staged ones.
//!
//! ## The INT8 twin
//!
//! [`qfused_bundle_forward`] is the quantized counterpart: one
//! `DW-Conv3_i8 → requant → PW_i8 → requant` pass per row band, with
//! the `i32` DW accumulator tile, its requantized `i8` activations,
//! and the PW `i32` tile all resident in the scratch arena, and the
//! shared [`requant_i8`] epilogue folded into
//! the output store loop (output rows of a band are contiguous per
//! channel, so requantizing *into the output map* is the store). The
//! unfused quantized path materializes an `i32` + `i8` full map after
//! DW and an `i32` full map after PW; the fused pass writes only the
//! final `i8` rows. Bit-identity here is even simpler than the f32
//! argument: every accumulator is an exact integer sum (any grouping
//! of wrapping adds agrees), DW rows are row-local, each PW output
//! element reduces over `k` in ascending order regardless of the band
//! column count, and requantization is per-element. Its pooled store
//! ([`qfused_bundle_forward_store`]) requantizes the PW tile into an
//! `i8` band tile and pools and permutes from there.

use crate::conv::ConvGeometry;
use crate::dwconv::dw3_bnact_band;
use crate::matmul::pw_bnact_tile;
use crate::pool::pool_out_shape;
use crate::qint::{dw_plane_rows, matmul_i8_rows, maxpool2_rows_i8, requant_i8};
use crate::reorg::reorg_out_shape;
use crate::{parallel, scratch, simd, telemetry};
use crate::{Result, Shape, Tensor, TensorError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-channel BatchNorm-eval + activation epilogue parameters, captured
/// at plan-build time from a `BatchNorm2d` + `Activation` pair.
///
/// `inv_std[c]` is computed as `1.0 / (var[c] + eps).sqrt()` — the exact
/// f32 expression the unfused BN eval path evaluates per forward — so
/// the epilogue `y = γ·(x − μ)·inv_std + β` reproduces its bits.
#[derive(Debug, Clone)]
pub struct BnAct {
    /// Per-channel running mean `μ`.
    pub mean: Vec<f32>,
    /// Per-channel `1/√(σ² + ε)`, precomputed from the running variance.
    pub inv_std: Vec<f32>,
    /// Per-channel scale `γ`.
    pub gamma: Vec<f32>,
    /// Per-channel shift `β`.
    pub beta: Vec<f32>,
    /// Activation ceiling: `6.0` for ReLU6, `f32::INFINITY` for ReLU
    /// (value-neutral upper clamp).
    pub ceiling: f32,
}

impl BnAct {
    /// Builds the epilogue from BN statistics and an activation ceiling
    /// (`None` = plain ReLU).
    pub fn new(
        mean: Vec<f32>,
        var: &[f32],
        eps: f32,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        ceiling: Option<f32>,
    ) -> Self {
        let inv_std = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        BnAct {
            mean,
            inv_std,
            gamma,
            beta,
            ceiling: ceiling.unwrap_or(f32::INFINITY),
        }
    }

    /// Number of channels this epilogue covers.
    pub fn channels(&self) -> usize {
        self.mean.len()
    }

    fn check(&self, c: usize, which: &'static str) -> Result<()> {
        if self.mean.len() != c
            || self.inv_std.len() != c
            || self.gamma.len() != c
            || self.beta.len() != c
        {
            return Err(TensorError::ShapeMismatch {
                op: "fused_bundle_forward",
                expected: format!("{which} epilogue over {c} channels"),
                got: format!("{} channels", self.mean.len()),
            });
        }
        Ok(())
    }

    /// The `(mean, inv_std, gamma, beta, ceiling)` tuple for channel `c`.
    #[inline]
    pub fn channel(&self, c: usize) -> (f32, f32, f32, f32, f32) {
        (
            self.mean[c],
            self.inv_std[c],
            self.gamma[c],
            self.beta[c],
            self.ceiling,
        )
    }
}

/// Raw output pointer shared by the disjoint per-task band writes.
struct SendPtr<T>(*mut T);
// SAFETY: each `(item, band)` task writes a disjoint set of output rows
// (the decomposition partitions `item × band`), so sharing the base
// pointer across the pool is race-free.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The `len` elements at `offset`. A method, so closures capture the
    /// whole `SendPtr` (which is `Sync`), not the raw pointer field.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and written by no other task.
    #[allow(clippy::mut_from_ref)]
    unsafe fn rows(&self, offset: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

/// What a fused bundle stores from its final PW+BN+Act tile.
///
/// SkyNet pools Bundles 1–3 (2×2, Table 3) and, in variants B/C, forks
/// Bundle 3's full map into the space-to-depth bypass (Fig. 5). When
/// the pool — and the fork — fold into the bundle's store loop, the
/// full-resolution map is never written: each band's tile, still in
/// the scratch arena, is pooled (and reorged) straight into the
/// consumers' maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleStore {
    /// The full-resolution output map.
    Full,
    /// Only the 2×2 stride-2 max-pooled map.
    Pool,
    /// The pooled map plus the block-2 space-to-depth bypass of the
    /// full map.
    PoolFork,
}

impl BundleStore {
    /// Whether the store max-pools the tile.
    pub fn pools(self) -> bool {
        self != BundleStore::Full
    }

    /// Whether the store also emits the reorg bypass.
    pub fn forks(self) -> bool {
        self == BundleStore::PoolFork
    }
}

/// 2×2 stride-2 max-pool of `src` (full rows of width `w`) into `dst`,
/// in [`maxpool2d`](crate::pool::maxpool2d)'s window order
/// (0,0),(0,1),(1,0),(1,1) with `if v > best` from −∞ — so a NaN never
/// wins, a window of NaN/−∞ reads −∞, and an equal later value (e.g.
/// `+0.0` after `-0.0`) does not displace the first.
fn maxpool2_rows_f32(dst: &mut [f32], src: &[f32], w: usize) {
    if w < 2 {
        return;
    }
    for (orow, rows) in dst.chunks_exact_mut(w / 2).zip(src.chunks_exact(2 * w)) {
        let (r0, r1) = rows.split_at(w);
        for ((d, a), b) in orow
            .iter_mut()
            .zip(r0.chunks_exact(2))
            .zip(r1.chunks_exact(2))
        {
            let mut best = f32::NEG_INFINITY;
            for v in [a[0], a[1], b[0], b[1]] {
                if v > best {
                    best = v;
                }
            }
            *d = best;
        }
    }
}

/// One output channel of a block-2 space-to-depth
/// ([`reorg`](crate::reorg::reorg)): the `(dy, dx)` sample of every 2×2
/// block of `src` (full rows of width `w`), row-major into `dst`.
fn reorg2_rows<T: Copy>(dst: &mut [T], src: &[T], w: usize, dy: usize, dx: usize) {
    if w < 2 {
        return;
    }
    for (orow, rows) in dst.chunks_exact_mut(w / 2).zip(src.chunks_exact(2 * w)) {
        let row = &rows[dy * w..(dy + 1) * w];
        for (d, pair) in orow.iter_mut().zip(row.chunks_exact(2)) {
            *d = pair[dx];
        }
    }
}

/// Stores one band of a pooled bundle from its output tile (`c2`
/// channels of `rows × w`, `rows` even, starting at full-map row `y0`
/// of item `item`): the pooled rows of every channel, from
/// `pool(dst, channel rows, w)`, into `out`
/// (`[n, c2, h/2, w/2]`, `out_plane = h/2 · w/2`) and, when `bypass` is
/// given, the four space-to-depth channels of each into it
/// (`[n, 4·c2, h/2, w/2]`, channel `4·oc + 2·dy + dx` as in `reorg`).
///
/// # Safety
///
/// Both maps must have the stated shapes, and pooled rows
/// `y0/2 .. (y0 + rows)/2` of `item` must be written by no other task.
#[allow(clippy::too_many_arguments)]
unsafe fn store_pooled_band<T: Copy>(
    tile: &[T],
    c2: usize,
    w: usize,
    pool: impl Fn(&mut [T], &[T], usize),
    (item, y0, rows): (usize, usize, usize),
    out_plane: usize,
    out: &SendPtr<T>,
    bypass: Option<&SendPtr<T>>,
) {
    let l = rows * w;
    let (at, len) = ((y0 / 2) * (w / 2), (rows / 2) * (w / 2));
    for oc in 0..c2 {
        let src = &tile[oc * l..(oc + 1) * l];
        pool(out.rows((item * c2 + oc) * out_plane + at, len), src, w);
        if let Some(by) = bypass {
            for q in 0..4 {
                let dst = by.rows((item * 4 * c2 + 4 * oc + q) * out_plane + at, len);
                reorg2_rows(dst, src, w, q / 2, q % 2);
            }
        }
    }
}

/// Rounds a band height up to even when the store pools, so every
/// 2×2 window lies inside one band. Still a function of the shape only.
fn pool_aligned(r: usize, store: BundleStore) -> usize {
    if store.pools() {
        r + r % 2
    } else {
        r
    }
}

/// Row-band height for a fused bundle: a **fixed function of the shape**
/// (never the thread count), chosen so the DW and PW tiles together stay
/// cache-resident while still yielding enough `(item, band)` tasks to
/// feed the pool.
fn band_rows(c: usize, c2: usize, os: Shape, store: BundleStore) -> usize {
    // Both tiles live in L2: (c + c2) · R · W floats ≲ 384 KiB.
    const TILE_F32_BUDGET: usize = 96 * 1024;
    let per_row = (c + c2) * os.w.max(1);
    let r_cache = (TILE_F32_BUDGET / per_row).max(1);
    // At least ~8 bands per item so single-image inference parallelizes.
    let r_par = os.h.div_ceil(8).max(1);
    pool_aligned(r_cache.min(r_par).min(os.h.max(1)), store)
}

/// Executes one fused bundle: `DW-Conv3(w_dw) → BN₁ → Act → PW(w_pw) →
/// BN₂ → Act`, bit-identical to the unfused layer sequence (see the
/// module docs) while keeping every intermediate tile in the scratch
/// arena.
///
/// `dw_weight` is `[c, 1, 3, 3]`, `pw_weight` is `[c2, c, 1, 1]`
/// (bias-free, as in the SkyNet bundle), `bn1`/`bn2` cover `c`/`c2`
/// channels.
///
/// # Errors
///
/// Returns a [`TensorError`] when the geometry is not a 3×3 stride-1/2
/// depth-wise convolution or any shape disagrees.
pub fn fused_bundle_forward(
    input: &Tensor,
    dw_weight: &Tensor,
    dw_geo: ConvGeometry,
    bn1: &BnAct,
    pw_weight: &Tensor,
    bn2: &BnAct,
) -> Result<Tensor> {
    let (out, _) = fused_bundle_forward_store(
        input,
        dw_weight,
        dw_geo,
        bn1,
        pw_weight,
        bn2,
        BundleStore::Full,
    )?;
    Ok(out)
}

/// [`fused_bundle_forward`] with a chosen [`BundleStore`]: returns the
/// stored map and, for [`BundleStore::PoolFork`], the bypass.
///
/// The pooled map is bit-identical to
/// `maxpool2d(fused_bundle_forward(..), 2)` and the bypass to
/// `reorg(fused_bundle_forward(..), 2)`; bands are then an even number
/// of rows, so each 2×2 window is read from one tile.
///
/// # Errors
///
/// The errors of [`fused_bundle_forward`], then — in the unfused
/// layer order, reorg before pool — the exact [`TensorError`]
/// [`reorg`](crate::reorg::reorg) and [`maxpool2d`](crate::pool::maxpool2d)
/// return when the bundle output's extents are odd.
pub fn fused_bundle_forward_store(
    input: &Tensor,
    dw_weight: &Tensor,
    dw_geo: ConvGeometry,
    bn1: &BnAct,
    pw_weight: &Tensor,
    bn2: &BnAct,
    store: BundleStore,
) -> Result<(Tensor, Option<Tensor>)> {
    let is = input.shape();
    let c = is.c;
    let (k, s, p) = (dw_geo.kernel, dw_geo.stride, dw_geo.pad);
    if k != 3 || (s != 1 && s != 2) {
        return Err(TensorError::InvalidDimension {
            op: "fused_bundle_forward",
            detail: format!("unsupported DW geometry k={k} s={s} (expected k=3, s=1|2)"),
        });
    }
    let dws = dw_weight.shape();
    if dws.n != c || dws.c != 1 || dws.h != 3 || dws.w != 3 {
        return Err(TensorError::ShapeMismatch {
            op: "fused_bundle_forward",
            expected: format!("DW weight [{c}, 1, 3, 3]"),
            got: dws.to_string(),
        });
    }
    let pws = pw_weight.shape();
    let c2 = pws.n;
    if pws.c != c || pws.h != 1 || pws.w != 1 {
        return Err(TensorError::ShapeMismatch {
            op: "fused_bundle_forward",
            expected: format!("PW weight [c2, {c}, 1, 1]"),
            got: pws.to_string(),
        });
    }
    bn1.check(c, "BN1")?;
    bn2.check(c2, "BN2")?;
    let os_dw = dw_geo.out_shape(is, c);
    let full = Shape::new(is.n, c2, os_dw.h, os_dw.w);
    let mut bypass = if store.forks() {
        Some(Tensor::zeros(reorg_out_shape(full, 2)?))
    } else {
        None
    };
    let os = if store.pools() {
        pool_out_shape(full, 2)?
    } else {
        full
    };
    let mut out = Tensor::zeros(os);

    let r = band_rows(c, c2, os_dw, store);
    let nbands = os_dw.h.div_ceil(r).max(1);
    let tasks = is.n * nbands;

    let _span = telemetry::span("tensor.fused_fwd");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.fused.fwd_calls").inc();
        let dw_flops = 2 * os_dw.numel() * 9;
        let pw_flops = 2 * full.numel() * c;
        telemetry::counter("tensor.fused.fwd_flops").add((dw_flops + pw_flops) as u64);
        telemetry::counter("fusion.bundles_executed").inc();
        // The five per-bundle intermediates the unfused path writes to
        // (and re-reads from) memory: DW out, BN1 out, Act1 out (c
        // planes each), PW out, BN2 out (c2 planes each) — plus, when
        // the pool folds in, the full-resolution output map itself.
        let maps = 3 * c + 2 * c2 + if store.pools() { c2 } else { 0 };
        let saved = maps * os_dw.plane() * is.n * std::mem::size_of::<f32>();
        telemetry::counter("fusion.dram_bytes_saved").add(saved as u64);
        if store.pools() {
            telemetry::counter("fusion.pools_folded").inc();
        }
        telemetry::record_gauge("fusion.band_rows", r as f64);
        simd::record_lanes(
            "fused_fwd",
            is.n * c * os_dw.h * simd::vector_cover(os_dw.w),
        );
    }

    let be = simd::active();
    let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
    let by_ptr = bypass
        .as_mut()
        .map(|b| SendPtr(b.as_mut_slice().as_mut_ptr()));
    let x = input.as_slice();
    let dw_w = dw_weight.as_slice();
    let pw_w = pw_weight.as_slice();
    let in_plane = is.plane();
    let out_plane = os.plane();

    parallel::run_indexed(tasks, |t| {
        let item = t / nbands;
        let band = t % nbands;
        let y0 = band * r;
        let y1 = (y0 + r).min(os_dw.h);
        let l = (y1 - y0) * os_dw.w;
        // Fixed-capacity checkouts (`r`, not `y1-y0`) so every band hits
        // the same arena size class.
        let mut dw_tile = scratch::checkout("tensor.fused_fwd", c * r * os_dw.w);
        let mut pw_tile = scratch::checkout("tensor.fused_fwd", c2 * r * os_dw.w);
        for ch in 0..c {
            let chan_in = &x[(item * c + ch) * in_plane..(item * c + ch + 1) * in_plane];
            dw3_bnact_band(
                be,
                &mut dw_tile[ch * l..(ch + 1) * l],
                chan_in,
                &dw_w[ch * 9..(ch + 1) * 9],
                0.0,
                is,
                os_dw,
                s,
                p,
                (y0, y1),
                bn1.channel(ch),
            );
        }
        let tile = &mut pw_tile[..c2 * l];
        pw_bnact_tile(pw_w, &dw_tile[..c * l], tile, c2, c, l, bn2);
        if store.pools() {
            // SAFETY: `(item, band)` tasks partition the rows of both
            // maps (bands are even, so pooled rows split the same way);
            // shapes were checked above.
            unsafe {
                store_pooled_band(
                    tile,
                    c2,
                    os_dw.w,
                    maxpool2_rows_f32,
                    (item, y0, y1 - y0),
                    out_plane,
                    &out_ptr,
                    by_ptr.as_ref(),
                );
            }
            return;
        }
        for oc in 0..c2 {
            // SAFETY: `(item, band)` tasks partition the output rows, so
            // this range is written by exactly one task; the range is in
            // bounds by the shape arithmetic above.
            let dst = unsafe { out_ptr.rows((item * c2 + oc) * out_plane + y0 * os.w, l) };
            dst.copy_from_slice(&tile[oc * l..(oc + 1) * l]);
        }
    });
    Ok((out, bypass))
}

// ---------------------------------------------------------------------------
// The INT8 fused bundle
// ---------------------------------------------------------------------------

/// Per-output-channel requantization epilogue of one quantized stage,
/// borrowed from the owning layer at call time: channel `c`'s raw `i32`
/// accumulators are mapped through
/// `clamp(round(clamp(acc·mult[c] + bias[c], act) / out_scale), ±127)`
/// — exactly [`requant_i8`]'s sequence.
#[derive(Debug, Clone, Copy)]
pub struct QEpilogue<'a> {
    /// Per-channel `in_scale · w_scale` dequantization multiplier.
    pub mult: &'a [f32],
    /// Per-channel (BN-folded) f32 bias.
    pub bias: &'a [f32],
    /// Optional fused activation clamp `(lo, hi)`.
    pub clamp: Option<(f32, f32)>,
    /// The produced activations' quantization scale.
    pub out_scale: f32,
}

/// Saturation counts of one fused bundle execution, per stage — the
/// caller publishes them as `quant.<op>.saturated` counters exactly as
/// the unfused stages do. Totals are sums over bands, so they are
/// independent of the band decomposition and thread schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QFusedSats {
    /// `i8` clamp count of the DW requantization.
    pub dw: u64,
    /// `i8` clamp count of the PW requantization.
    pub pw: u64,
}

/// Row-band height for a fused INT8 bundle: the same L2-residency rule
/// as [`band_rows`], counted in bytes — per output row the band holds
/// `c` `i32` + `c` `i8` DW lanes and `c2` `i32` PW lanes. The
/// parallelism cap asks for about 8 tasks per call, not per item: a
/// batch of `n ≥ 8` items is parallel already, and cutting each of its
/// planes into 8 bands would only leave the vector kernels rows too
/// short to fill their blocks.
fn qband_rows(n: usize, c: usize, c2: usize, h: usize, w: usize, store: BundleStore) -> usize {
    const TILE_BYTE_BUDGET: usize = 384 * 1024;
    let per_row = (5 * c + 4 * c2) * w.max(1);
    let r_cache = (TILE_BYTE_BUDGET / per_row).max(1);
    let r_par = h.div_ceil(8usize.div_ceil(n.max(1))).max(1);
    pool_aligned(r_cache.min(r_par).min(h.max(1)), store)
}

/// Executes one quantized bundle — `DW-Conv3_i8 → requant_i8 → PW_i8 →
/// requant_i8` — in a single cache-resident pass per row band,
/// bit-identical to the unfused quantized stage pair (see the module
/// docs).
///
/// `x` is the `n×c×h×w` input activations (`shape`); `dw_weight` holds
/// `c` 9-tap filters; `pw_weight` is `c2×c` row-major; `out` receives
/// the `n×c2×h×w` output activations (the quantized DW geometry is
/// always stride-1 pad-1, so spatial extents are preserved). The
/// epilogues cover `c` and `c2` channels respectively.
///
/// Returns the per-stage saturation counts.
///
/// # Errors
///
/// Returns a [`TensorError`] when any slice or epilogue disagrees with
/// the shape arithmetic.
#[allow(clippy::too_many_arguments)]
pub fn qfused_bundle_forward(
    x: &[i8],
    shape: Shape,
    dw_weight: &[i8],
    dw_ep: &QEpilogue<'_>,
    pw_weight: &[i8],
    c2: usize,
    pw_ep: &QEpilogue<'_>,
    out: &mut [i8],
) -> Result<QFusedSats> {
    qfused_bundle_forward_store(
        x,
        shape,
        dw_weight,
        dw_ep,
        pw_weight,
        c2,
        pw_ep,
        BundleStore::Full,
        out,
        &mut [],
    )
}

/// [`qfused_bundle_forward`] with a chosen [`BundleStore`]. A pooling
/// store requantizes each band's PW tile into an `i8` tile in the
/// scratch arena and writes from it only the 2×2 max-pooled rows into
/// `out` (`n×c2×h/2×w/2`) and, for [`BundleStore::PoolFork`], the
/// block-2 space-to-depth rows into `bypass` (`n×4c2×h/2×w/2`; unused
/// otherwise) — bit-identical to `maxpool2d_i8`/`reorg_i8` over the
/// full map. Saturation counts are those of the full map.
///
/// # Errors
///
/// The errors of [`qfused_bundle_forward`], plus
/// [`TensorError::InvalidDimension`] when a pooling store meets odd
/// spatial extents.
#[allow(clippy::too_many_arguments)]
pub fn qfused_bundle_forward_store(
    x: &[i8],
    shape: Shape,
    dw_weight: &[i8],
    dw_ep: &QEpilogue<'_>,
    pw_weight: &[i8],
    c2: usize,
    pw_ep: &QEpilogue<'_>,
    store: BundleStore,
    out: &mut [i8],
    bypass: &mut [i8],
) -> Result<QFusedSats> {
    let (n, c, h, w) = (shape.n, shape.c, shape.h, shape.w);
    let plane = h * w;
    let check = |ok: bool, expected: String, got: String| {
        if ok {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch {
                op: "qfused_bundle_forward",
                expected,
                got,
            })
        }
    };
    let full = Shape::new(n, c2, h, w);
    if store.forks() {
        reorg_out_shape(full, 2)?;
    }
    let os = if store.pools() {
        pool_out_shape(full, 2)?
    } else {
        full
    };
    check(
        x.len() >= n * c * plane,
        format!("input of {} i8s", n * c * plane),
        format!("{}", x.len()),
    )?;
    check(
        dw_weight.len() >= c * 9,
        format!("DW weight of {} taps", c * 9),
        format!("{}", dw_weight.len()),
    )?;
    check(
        pw_weight.len() >= c2 * c,
        format!("PW weight of {} i8s", c2 * c),
        format!("{}", pw_weight.len()),
    )?;
    check(
        out.len() >= os.numel(),
        format!("output of {} i8s", os.numel()),
        format!("{}", out.len()),
    )?;
    check(
        !store.forks() || bypass.len() >= full.numel(),
        format!("bypass of {} i8s", full.numel()),
        format!("{}", bypass.len()),
    )?;
    check(
        dw_ep.mult.len() == c && dw_ep.bias.len() == c,
        format!("DW epilogue over {c} channels"),
        format!("{}/{} channels", dw_ep.mult.len(), dw_ep.bias.len()),
    )?;
    check(
        pw_ep.mult.len() == c2 && pw_ep.bias.len() == c2,
        format!("PW epilogue over {c2} channels"),
        format!("{}/{} channels", pw_ep.mult.len(), pw_ep.bias.len()),
    )?;
    if n * c2 * plane == 0 {
        return Ok(QFusedSats { dw: 0, pw: 0 });
    }

    let r = qband_rows(n, c, c2, h, w, store);
    let nbands = h.div_ceil(r).max(1);
    let tasks = n * nbands;

    let _span = telemetry::span("tensor.qfused_fwd");
    if telemetry::metrics_enabled() {
        telemetry::counter("quant.fused.fwd_calls").inc();
        telemetry::counter("quant.fused.bundles_executed").inc();
        // The unfused quantized stage pair materializes an i32 + i8 DW
        // full map and an i32 PW full map; the fused pass writes none
        // of them — nor, when the pool folds in, the i8 output map.
        let saved = (5 * c + 4 * c2 + if store.pools() { c2 } else { 0 }) * plane * n;
        telemetry::counter("quant.fused.dram_bytes_saved").add(saved as u64);
        if store.pools() {
            telemetry::counter("quant.fused.pools_folded").inc();
        }
        telemetry::record_gauge("quant.fused.band_rows", r as f64);
    }

    let be = simd::active();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let by_ptr = store.forks().then_some(SendPtr(bypass.as_mut_ptr()));
    let out_plane = os.plane();
    let dw_sat = AtomicU64::new(0);
    let pw_sat = AtomicU64::new(0);

    parallel::run_indexed(tasks, |t| {
        let item = t / nbands;
        let band = t % nbands;
        let y0 = band * r;
        let y1 = (y0 + r).min(h);
        let l = (y1 - y0) * w;
        // Fixed-capacity checkouts (`r`, not `y1-y0`) so every band hits
        // the same arena size class.
        let mut dw_acc = scratch::checkout_i32("tensor.qfused_fwd", c * r * w);
        let mut dw_q = scratch::checkout_i8("tensor.qfused_fwd", c * r * w);
        let mut pw_acc = scratch::checkout_i32("tensor.qfused_fwd", c2 * r * w);
        let (mut sat_dw, mut sat_pw) = (0u64, 0u64);
        for ch in 0..c {
            let chan_in = &x[(item * c + ch) * plane..(item * c + ch + 1) * plane];
            // dw_plane_rows overwrites, so the dirty checkout is fine.
            dw_plane_rows(
                be,
                chan_in,
                &dw_weight[ch * 9..ch * 9 + 9],
                &mut dw_acc[ch * l..(ch + 1) * l],
                h,
                w,
                y0,
                y1,
            );
            sat_dw += requant_i8(
                &dw_acc[ch * l..(ch + 1) * l],
                dw_ep.mult[ch],
                dw_ep.bias[ch],
                dw_ep.clamp,
                dw_ep.out_scale,
                &mut dw_q[ch * l..(ch + 1) * l],
            );
        }
        pw_acc[..c2 * l].fill(0);
        matmul_i8_rows(
            be,
            pw_weight,
            &dw_q[..c * l],
            &mut pw_acc[..c2 * l],
            c2,
            c,
            l,
        );
        let requant_pw = |oc: usize, dst: &mut [i8]| {
            requant_i8(
                &pw_acc[oc * l..(oc + 1) * l],
                pw_ep.mult[oc],
                pw_ep.bias[oc],
                pw_ep.clamp,
                pw_ep.out_scale,
                dst,
            )
        };
        if store.pools() {
            let mut q_tile = scratch::checkout_i8("tensor.qfused_fwd", c2 * r * w);
            for oc in 0..c2 {
                sat_pw += requant_pw(oc, &mut q_tile[oc * l..(oc + 1) * l]);
            }
            // SAFETY: `(item, band)` tasks partition the rows of both
            // maps (bands are even, so pooled rows split the same way);
            // lengths were checked above.
            unsafe {
                store_pooled_band(
                    &q_tile[..c2 * l],
                    c2,
                    w,
                    |dst, src, w| maxpool2_rows_i8(be, dst, src, w),
                    (item, y0, y1 - y0),
                    out_plane,
                    &out_ptr,
                    by_ptr.as_ref(),
                );
            }
        } else {
            for oc in 0..c2 {
                // SAFETY: `(item, band)` tasks partition the output rows,
                // so this range is written by exactly one task; in bounds
                // by the shape arithmetic above. Rows `y0..y1` of plane
                // `oc` are contiguous, so requantizing into this slice
                // *is* the store loop — no staging copy.
                let dst = unsafe { out_ptr.rows((item * c2 + oc) * plane + y0 * w, l) };
                sat_pw += requant_pw(oc, dst);
            }
        }
        // u64 sums are commutative, so the totals are schedule-independent.
        dw_sat.fetch_add(sat_dw, Ordering::Relaxed);
        pw_sat.fetch_add(sat_pw, Ordering::Relaxed);
    });
    Ok(QFusedSats {
        dw: dw_sat.into_inner(),
        pw: pw_sat.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwconv::dwconv2d;
    use crate::rng::SkyRng;
    use crate::{conv::conv2d, ops};

    fn rand_tensor(rng: &mut SkyRng, s: Shape) -> Tensor {
        let mut t = Tensor::zeros(s);
        for v in t.as_mut_slice() {
            *v = rng.range(-1.0, 1.0);
        }
        t
    }

    /// The unfused oracle: the exact layer sequence a bundle runs.
    fn unfused(
        x: &Tensor,
        dw_w: &Tensor,
        geo: ConvGeometry,
        bn1: &BnAct,
        pw_w: &Tensor,
        bn2: &BnAct,
    ) -> Tensor {
        let apply_bn_act = |t: &Tensor, bn: &BnAct| {
            let s = t.shape();
            let mut y = Tensor::zeros(s);
            for n in 0..s.n {
                for ch in 0..s.c {
                    let o = (n * s.c + ch) * s.plane();
                    crate::simd::bn_apply_eval(
                        &t.as_slice()[o..o + s.plane()],
                        &mut y.as_mut_slice()[o..o + s.plane()],
                        bn.mean[ch],
                        bn.inv_std[ch],
                        bn.gamma[ch],
                        bn.beta[ch],
                    );
                }
            }
            if bn.ceiling.is_finite() {
                ops::relu6(&y)
            } else {
                ops::relu(&y)
            }
        };
        let t = dwconv2d(x, dw_w, None, geo).unwrap();
        let t = apply_bn_act(&t, bn1);
        let t = conv2d(&t, pw_w, None, ConvGeometry::pointwise()).unwrap();
        apply_bn_act(&t, bn2)
    }

    fn rand_bnact(rng: &mut SkyRng, c: usize, ceiling: Option<f32>) -> BnAct {
        let mean: Vec<f32> = (0..c).map(|_| rng.range(-0.5, 0.5)).collect();
        let var: Vec<f32> = (0..c).map(|_| rng.range(0.1, 1.1)).collect();
        let gamma: Vec<f32> = (0..c).map(|_| rng.range(0.5, 1.5)).collect();
        let beta: Vec<f32> = (0..c).map(|_| rng.range(-0.5, 0.5)).collect();
        BnAct::new(mean, &var, 1e-5, gamma, beta, ceiling)
    }

    #[test]
    fn fused_bundle_matches_unfused_bitwise() {
        let mut rng = SkyRng::new(7);
        for &(n, c, c2, h, w, ceil) in &[
            (1usize, 3usize, 8usize, 11usize, 13usize, Some(6.0)),
            (2, 4, 6, 8, 8, None),
            (1, 8, 16, 20, 40, Some(6.0)),
            (3, 2, 3, 3, 3, Some(6.0)),
            (1, 1, 1, 1, 1, None),
        ] {
            let x = rand_tensor(&mut rng, Shape::new(n, c, h, w));
            let dw_w = rand_tensor(&mut rng, Shape::new(c, 1, 3, 3));
            let pw_w = rand_tensor(&mut rng, Shape::new(c2, c, 1, 1));
            let bn1 = rand_bnact(&mut rng, c, ceil);
            let bn2 = rand_bnact(&mut rng, c2, ceil);
            let geo = ConvGeometry::same3x3();
            let fused = fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).unwrap();
            let oracle = unfused(&x, &dw_w, geo, &bn1, &pw_w, &bn2);
            assert_eq!(fused.shape(), oracle.shape());
            let fb: Vec<u32> = fused.as_slice().iter().map(|v| v.to_bits()).collect();
            let ob: Vec<u32> = oracle.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, ob, "fused != unfused for n={n} c={c} c2={c2} {h}x{w}");
        }
    }

    #[test]
    fn fused_bundle_stride2_matches_unfused_bitwise() {
        let mut rng = SkyRng::new(9);
        let (n, c, c2, h, w) = (2usize, 5usize, 7usize, 14usize, 18usize);
        let x = rand_tensor(&mut rng, Shape::new(n, c, h, w));
        let dw_w = rand_tensor(&mut rng, Shape::new(c, 1, 3, 3));
        let pw_w = rand_tensor(&mut rng, Shape::new(c2, c, 1, 1));
        let bn1 = rand_bnact(&mut rng, c, Some(6.0));
        let bn2 = rand_bnact(&mut rng, c2, Some(6.0));
        let geo = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let fused = fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).unwrap();
        let oracle = unfused(&x, &dw_w, geo, &bn1, &pw_w, &bn2);
        assert_eq!(
            fused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            oracle
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn qfused_bundle_matches_unfused_stage_pair_bitwise() {
        use crate::qint::{dwconv3_i8, matmul_i8, requant_i8};
        let seq = |len: usize, stride: usize| -> Vec<i8> {
            (0..len)
                .map(|i| ((i * stride + 13) % 255) as u8 as i8)
                .collect()
        };
        for &(n, c, c2, h, w) in &[
            (1usize, 3usize, 8usize, 11usize, 13usize),
            (2, 4, 6, 8, 8),
            (1, 8, 16, 20, 40),
            (3, 2, 3, 3, 3),
            (1, 1, 1, 1, 1),
        ] {
            let plane = h * w;
            let x = seq(n * c * plane, 7);
            let dw_w = seq(c * 9, 11);
            let pw_w = seq(c2 * c, 5);
            let dw_mult: Vec<f32> = (0..c).map(|i| 1e-3 + i as f32 * 1e-4).collect();
            let dw_bias: Vec<f32> = (0..c).map(|i| -0.05 + i as f32 * 0.01).collect();
            let pw_mult: Vec<f32> = (0..c2).map(|i| 2e-3 + i as f32 * 1e-4).collect();
            let pw_bias: Vec<f32> = (0..c2).map(|i| 0.03 - i as f32 * 0.01).collect();
            let clamp = Some((0.0f32, 6.0f32));
            let dw_ep = QEpilogue {
                mult: &dw_mult,
                bias: &dw_bias,
                clamp,
                out_scale: 0.05,
            };
            let pw_ep = QEpilogue {
                mult: &pw_mult,
                bias: &pw_bias,
                clamp,
                out_scale: 0.04,
            };
            // The unfused oracle: full-map DW, requant, PW, requant.
            let mut acc = vec![0i32; n * c * plane];
            dwconv3_i8(&x, &dw_w, &mut acc, n, c, h, w);
            let mut q = vec![0i8; n * c * plane];
            let mut sat_dw = 0u64;
            for pi in 0..n * c {
                let (ch, o) = (pi % c, pi * plane);
                sat_dw += requant_i8(
                    &acc[o..o + plane],
                    dw_mult[ch],
                    dw_bias[ch],
                    clamp,
                    dw_ep.out_scale,
                    &mut q[o..o + plane],
                );
            }
            let mut pacc = vec![0i32; n * c2 * plane];
            for item in 0..n {
                matmul_i8(
                    &pw_w,
                    &q[item * c * plane..(item + 1) * c * plane],
                    &mut pacc[item * c2 * plane..(item + 1) * c2 * plane],
                    c2,
                    c,
                    plane,
                );
            }
            let mut want = vec![0i8; n * c2 * plane];
            let mut sat_pw = 0u64;
            for pi in 0..n * c2 {
                let (oc, o) = (pi % c2, pi * plane);
                sat_pw += requant_i8(
                    &pacc[o..o + plane],
                    pw_mult[oc],
                    pw_bias[oc],
                    clamp,
                    pw_ep.out_scale,
                    &mut want[o..o + plane],
                );
            }
            let mut got = vec![0i8; n * c2 * plane];
            let sats = qfused_bundle_forward(
                &x,
                Shape::new(n, c, h, w),
                &dw_w,
                &dw_ep,
                &pw_w,
                c2,
                &pw_ep,
                &mut got,
            )
            .unwrap();
            assert_eq!(got, want, "n={n} c={c} c2={c2} {h}x{w}");
            assert_eq!((sats.dw, sats.pw), (sat_dw, sat_pw));
        }
    }

    /// The f32 pooled-store kernel against `maxpool2d` on windows built
    /// from NaN, ±∞, ±0 and equal values in every position: the first of
    /// equal values wins, NaN never wins, a window of NaN/−∞ reads −∞.
    #[test]
    fn pooled_store_kernel_matches_maxpool2d_on_special_windows() {
        use crate::pool::maxpool2d;
        let specials = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, -0.0, 0.0, 1.0];
        // Every 4-tuple of specials as one window: 6⁴ windows in a row
        // pair of width 2·6⁴.
        let wins = specials.len().pow(4);
        let w = 2 * wins;
        let mut src = vec![0f32; 2 * w];
        for i in 0..wins {
            let pick = |d: u32| specials[i / specials.len().pow(d) % specials.len()];
            src[2 * i] = pick(0);
            src[2 * i + 1] = pick(1);
            src[w + 2 * i] = pick(2);
            src[w + 2 * i + 1] = pick(3);
        }
        let mut got = vec![0f32; wins];
        maxpool2_rows_f32(&mut got, &src, w);
        let want = maxpool2d(&Tensor::from_vec(Shape::new(1, 1, 2, w), src).unwrap(), 2).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(want.output.as_slice()));
    }

    /// The i8 pooled-store kernel against `maxpool2d_i8` on every
    /// backend, for widths covering the 32-output AVX2 step and every
    /// tail, with the code extremes and ties planted.
    #[test]
    fn pooled_store_i8_kernel_matches_maxpool2d_i8() {
        use crate::qint::maxpool2d_i8;
        for w in (2..=160).step_by(2) {
            let mut src: Vec<i8> = (0..4 * w)
                .map(|i| ((i * 73 + w * 5) % 256) as u8 as i8)
                .collect();
            src[0] = i8::MIN;
            src[w + 1] = i8::MAX;
            src[2..6].fill(i8::MIN);
            let want = maxpool2d_i8(&src, 1, 1, 4, w, 2);
            for be in simd::available_backends() {
                let mut got = vec![0i8; w];
                maxpool2_rows_i8(be, &mut got, &src, w);
                assert_eq!(got, want, "{} w={w}", be.name());
            }
        }
    }

    #[test]
    fn qfused_bundle_rejects_short_slices() {
        let shape = Shape::new(1, 2, 4, 4);
        let x = vec![0i8; 2 * 16];
        let dw_w = vec![0i8; 18];
        let pw_w = vec![0i8; 6];
        let ep1 = QEpilogue {
            mult: &[0.1, 0.1],
            bias: &[0.0, 0.0],
            clamp: None,
            out_scale: 0.1,
        };
        let ep2 = QEpilogue {
            mult: &[0.1, 0.1, 0.1],
            bias: &[0.0, 0.0, 0.0],
            clamp: None,
            out_scale: 0.1,
        };
        let mut out = vec![0i8; 3 * 16];
        let mut short_out = vec![0i8; 5];
        assert!(
            qfused_bundle_forward(&x, shape, &dw_w, &ep1, &pw_w, 3, &ep2, &mut short_out).is_err()
        );
        // Epilogue channel mismatch.
        assert!(qfused_bundle_forward(&x, shape, &dw_w, &ep2, &pw_w, 3, &ep2, &mut out).is_err());
        assert!(qfused_bundle_forward(&x, shape, &dw_w, &ep1, &pw_w, 3, &ep2, &mut out).is_ok());
    }

    #[test]
    fn rejects_bad_geometry() {
        let x = Tensor::zeros(Shape::new(1, 2, 4, 4));
        let dw_w = Tensor::zeros(Shape::new(2, 1, 3, 3));
        let pw_w = Tensor::zeros(Shape::new(3, 2, 1, 1));
        let bn1 = BnAct::new(
            vec![0.0; 2],
            &[1.0; 2],
            1e-5,
            vec![1.0; 2],
            vec![0.0; 2],
            None,
        );
        let bn2 = BnAct::new(
            vec![0.0; 3],
            &[1.0; 3],
            1e-5,
            vec![1.0; 3],
            vec![0.0; 3],
            None,
        );
        let geo = ConvGeometry {
            kernel: 5,
            stride: 1,
            pad: 2,
        };
        assert!(fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).is_err());
    }
}
