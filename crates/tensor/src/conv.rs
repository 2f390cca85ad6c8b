//! Standard (dense) 2-D convolution, forward and backward.
//!
//! The implementation lowers each batch item to a column matrix
//! ([`im2col`]) and multiplies it against the `[out_c, in_c·k·k]` weight
//! matrix with the blocked kernel from [`matmul`](crate::matmul). The 1×1
//! stride-1 case — SkyNet's point-wise convolution — skips the lowering
//! entirely and multiplies against the raw feature map, which is exactly
//! the data movement the paper's PW-Conv IP performs on the FPGA.

use crate::matmul::{matmul_a_bt_acc, matmul_acc, matmul_at_b_acc};
use crate::parallel::{par_chunks_mut, par_chunks_mut2};
use crate::{scratch, telemetry};
use crate::{Result, Shape, Tensor, TensorError};

/// Output rows (out-channels) per parallel task when a convolution is
/// split inside a single batch item. Fixed — never derived from the
/// thread count — so the task decomposition, and therefore the result
/// bits, are identical for every `SKYNET_THREADS`.
const OC_BLOCK: usize = 16;

/// Spatial geometry of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Square kernel edge.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on every edge.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates a geometry.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        ConvGeometry {
            kernel,
            stride,
            pad,
        }
    }

    /// Geometry of a 1×1 point-wise convolution.
    pub fn pointwise() -> Self {
        ConvGeometry::new(1, 1, 0)
    }

    /// Geometry of a 3×3 same-padding convolution.
    pub fn same3x3() -> Self {
        ConvGeometry::new(3, 1, 1)
    }

    /// Output spatial extent for an input extent.
    ///
    /// Returns 0 for degenerate geometries — a zero-sized kernel, or a
    /// kernel larger than the padded input — rather than pretending a
    /// 1-element output exists.
    pub fn out_extent(&self, len: usize) -> usize {
        let padded = len + 2 * self.pad;
        if self.kernel == 0 || self.stride == 0 || padded < self.kernel {
            return 0;
        }
        (padded - self.kernel) / self.stride + 1
    }

    /// Output shape for a given input shape and output channel count.
    pub fn out_shape(&self, input: Shape, out_c: usize) -> Shape {
        Shape::new(
            input.n,
            out_c,
            self.out_extent(input.h),
            self.out_extent(input.w),
        )
    }
}

impl Default for ConvGeometry {
    fn default() -> Self {
        ConvGeometry::same3x3()
    }
}

/// Lowers one batch item to a `[in_c·k·k, out_h·out_w]` column matrix.
///
/// `input` must be a single batch item's channel data (`c*h*w` values).
pub fn im2col(input: &[f32], c: usize, h: usize, w: usize, geo: ConvGeometry, out: &mut [f32]) {
    let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
    let oh = geo.out_extent(h);
    let ow = geo.out_extent(w);
    let l = oh * ow;
    debug_assert!(out.len() >= c * k * k * l);
    let mut row = 0usize;
    for ci in 0..c {
        let chan = &input[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let dst = &mut out[row * l..(row + 1) * l];
                row += 1;
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= h as isize {
                        dst[idx..idx + ow].fill(0.0);
                        idx += ow;
                        continue;
                    }
                    let base = iy as usize * w;
                    for ox in 0..ow {
                        let ix = (ox * s + kx) as isize - p as isize;
                        dst[idx] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            chan[base + ix as usize]
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// Scatter-adds a column matrix back into an input-gradient buffer: the
/// adjoint of [`im2col`].
pub fn col2im_acc(col: &[f32], c: usize, h: usize, w: usize, geo: ConvGeometry, out: &mut [f32]) {
    let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
    let oh = geo.out_extent(h);
    let ow = geo.out_extent(w);
    let l = oh * ow;
    let mut row = 0usize;
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let src = &col[row * l..(row + 1) * l];
                row += 1;
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= h as isize {
                        idx += ow;
                        continue;
                    }
                    let base = ci * h * w + iy as usize * w;
                    for ox in 0..ow {
                        let ix = (ox * s + kx) as isize - p as isize;
                        if ix >= 0 && ix < w as isize {
                            out[base + ix as usize] += src[idx];
                        }
                        idx += 1;
                    }
                }
            }
        }
    }
}

fn check_weight(input: Shape, weight: Shape, geo: ConvGeometry) -> Result<()> {
    if weight.c != input.c || weight.h != geo.kernel || weight.w != geo.kernel {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            expected: format!(
                "weight [out_c, {}, {}, {}]",
                input.c, geo.kernel, geo.kernel
            ),
            got: weight.to_string(),
        });
    }
    check_geometry(input, geo, "conv2d")
}

/// Rejects geometries whose output would be empty (kernel or stride of
/// zero, or a kernel exceeding the padded input).
pub(crate) fn check_geometry(input: Shape, geo: ConvGeometry, op: &'static str) -> Result<()> {
    if geo.out_extent(input.h) == 0 || geo.out_extent(input.w) == 0 {
        return Err(TensorError::InvalidDimension {
            op,
            detail: format!(
                "degenerate geometry: kernel {}, stride {}, pad {} over {}×{} input yields an empty output",
                geo.kernel, geo.stride, geo.pad, input.h, input.w
            ),
        });
    }
    Ok(())
}

/// Dense 2-D convolution.
///
/// `weight` has shape `[out_c, in_c, k, k]` (stored in the tensor's NCHW
/// fields), `bias` — when given — has `out_c` entries.
///
/// # Errors
///
/// Returns a [`TensorError`] when the weight shape is inconsistent with the
/// input and geometry, or when the bias length differs from `out_c`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    geo: ConvGeometry,
) -> Result<Tensor> {
    let ishape = input.shape();
    let wshape = weight.shape();
    check_weight(ishape, wshape, geo)?;
    let out_c = wshape.n;
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                expected: format!("{out_c} entries"),
                got: format!("{} entries", b.len()),
            });
        }
    }
    let oshape = geo.out_shape(ishape, out_c);
    let l = oshape.plane();
    let kk = ishape.c * geo.kernel * geo.kernel;
    let mut out = Tensor::zeros(oshape);
    let pointwise = geo.kernel == 1 && geo.stride == 1 && geo.pad == 0;
    let _span = telemetry::span(if pointwise {
        "tensor.pw_fwd"
    } else {
        "tensor.conv_fwd"
    });
    if telemetry::metrics_enabled() {
        let flops = 2 * (oshape.n * out_c * kk * l) as u64;
        if pointwise {
            telemetry::counter("tensor.pw.fwd_calls").inc();
            telemetry::counter("tensor.pw.fwd_flops").add(flops);
        } else {
            telemetry::counter("tensor.conv.fwd_calls").inc();
            telemetry::counter("tensor.conv.fwd_flops").add(flops);
        }
    }

    // Multi-item batches parallelize over batch items; a single item
    // parallelizes over fixed-size out-channel blocks. Both
    // decompositions compute each output element with identical
    // floating-point operations, so results are bit-identical across
    // thread counts and across the two layouts.
    if ishape.n > 1 {
        // im2col fully overwrites its output, so a plain (non-zeroed)
        // arena checkout is safe.
        let mut col_all =
            (!pointwise).then(|| scratch::checkout("tensor.conv_fwd", ishape.n * kk * l));
        if let Some(col_all) = col_all.as_deref_mut() {
            par_chunks_mut(col_all, kk * l, |n, col| {
                let in_item =
                    &input.as_slice()[n * ishape.item_numel()..(n + 1) * ishape.item_numel()];
                im2col(in_item, ishape.c, ishape.h, ishape.w, geo, col);
            });
        }
        par_chunks_mut(out.as_mut_slice(), oshape.item_numel(), |n, out_item| {
            let rhs = if let Some(col_all) = col_all.as_deref() {
                &col_all[n * kk * l..(n + 1) * kk * l]
            } else {
                &input.as_slice()[n * ishape.item_numel()..(n + 1) * ishape.item_numel()]
            };
            matmul_acc(weight.as_slice(), rhs, out_item, out_c, kk, l);
            add_bias(out_item, bias, l);
        });
    } else {
        let in_item = input.as_slice();
        let col;
        let rhs: &[f32] = if pointwise {
            in_item
        } else {
            let mut buf = scratch::checkout("tensor.conv_fwd", kk * l);
            im2col(in_item, ishape.c, ishape.h, ishape.w, geo, &mut buf);
            col = buf;
            &col
        };
        par_chunks_mut(out.as_mut_slice(), OC_BLOCK * l, |block, out_rows| {
            let oc0 = block * OC_BLOCK;
            let rows = out_rows.len() / l;
            matmul_acc(&weight.as_slice()[oc0 * kk..], rhs, out_rows, rows, kk, l);
            add_bias(out_rows, bias.map(|b| &b[oc0..oc0 + rows]), l);
        });
    }
    Ok(out)
}

/// Adds one bias value per `l`-element output row (8-lane splat-add;
/// lane-independent, so bit-identical to the scalar loop it replaced).
fn add_bias(out_rows: &mut [f32], bias: Option<&[f32]>, l: usize) {
    if let Some(b) = bias {
        crate::simd::record_lanes(
            "bias",
            b.len().min(out_rows.len() / l.max(1)) * crate::simd::vector_cover(l),
        );
        for (row, &bv) in out_rows.chunks_mut(l).zip(b) {
            crate::simd::add_scalar_inplace(row, bv);
        }
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct ConvGrads {
    /// Gradient w.r.t. the input feature map.
    pub input: Tensor,
    /// Gradient w.r.t. the weight tensor.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias (always computed; ignore when bias-free).
    pub bias: Vec<f32>,
}

/// Backward pass of [`conv2d`].
///
/// # Errors
///
/// Returns a [`TensorError`] when `grad_out`'s shape is inconsistent with
/// the forward geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geo: ConvGeometry,
) -> Result<ConvGrads> {
    let ishape = input.shape();
    let wshape = weight.shape();
    check_weight(ishape, wshape, geo)?;
    let out_c = wshape.n;
    let oshape = geo.out_shape(ishape, out_c);
    if grad_out.shape() != oshape {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            expected: oshape.to_string(),
            got: grad_out.shape().to_string(),
        });
    }
    let l = oshape.plane();
    let kk = ishape.c * geo.kernel * geo.kernel;
    let mut gi = Tensor::zeros(ishape);
    let mut gw = Tensor::zeros(wshape);
    let mut gb = vec![0.0f32; out_c];
    let pointwise = geo.kernel == 1 && geo.stride == 1 && geo.pad == 0;
    let _span = telemetry::span(if pointwise {
        "tensor.pw_bwd"
    } else {
        "tensor.conv_bwd"
    });
    if telemetry::metrics_enabled() {
        // Input-grad + weight-grad matmuls: ~2× the forward MACs.
        let flops = 4 * (ishape.n * out_c * kk * l) as u64;
        if pointwise {
            telemetry::counter("tensor.pw.bwd_calls").inc();
            telemetry::counter("tensor.pw.bwd_flops").add(flops);
        } else {
            telemetry::counter("tensor.conv.bwd_calls").inc();
            telemetry::counter("tensor.conv.bwd_flops").add(flops);
        }
    }

    // Batch items are independent: each task computes its item's input
    // gradient in place plus a private `[grad_w | grad_b]` partial.
    // The partials are then folded in item order on the calling thread,
    // which keeps the reduction deterministic for any thread count.
    let wlen = wshape.numel();
    let stripe = wlen + out_c;
    let mut partials = scratch::checkout_zeroed("tensor.conv_bwd", ishape.n * stripe);
    par_chunks_mut2(
        gi.as_mut_slice(),
        ishape.item_numel(),
        &mut partials,
        stripe,
        |n, gi_item, partial| {
            let (pgw, pgb) = partial.split_at_mut(wlen);
            let in_item = &input.as_slice()[n * ishape.item_numel()..(n + 1) * ishape.item_numel()];
            let go_item =
                &grad_out.as_slice()[n * oshape.item_numel()..(n + 1) * oshape.item_numel()];
            // Bias gradient: sum over spatial positions.
            for (oc, pb) in pgb.iter_mut().enumerate() {
                *pb = go_item[oc * l..(oc + 1) * l].iter().sum::<f32>();
            }
            if pointwise {
                // grad_w += go (out_c×L) · inᵀ (L×in_c)
                matmul_a_bt_acc(go_item, in_item, pgw, out_c, l, kk);
                // grad_in += wᵀ (in_c×out_c) · go (out_c×L)
                matmul_at_b_acc(weight.as_slice(), go_item, gi_item, kk, out_c, l);
            } else {
                // `col` is fully written by im2col; `gcol` is accumulated
                // into by matmul_at_b_acc, so it must come back zeroed.
                let mut col = scratch::checkout("tensor.conv_bwd", kk * l);
                im2col(in_item, ishape.c, ishape.h, ishape.w, geo, &mut col);
                matmul_a_bt_acc(go_item, &col, pgw, out_c, l, kk);
                let mut gcol = scratch::checkout_zeroed("tensor.conv_bwd", kk * l);
                matmul_at_b_acc(weight.as_slice(), go_item, &mut gcol, kk, out_c, l);
                col2im_acc(&gcol, ishape.c, ishape.h, ishape.w, geo, gi_item);
            }
        },
    );
    for partial in partials.chunks(stripe) {
        let (pgw, pgb) = partial.split_at(wlen);
        for (g, &p) in gw.as_mut_slice().iter_mut().zip(pgw) {
            *g += p;
        }
        for (g, &p) in gb.iter_mut().zip(pgb) {
            *g += p;
        }
    }
    Ok(ConvGrads {
        input: gi,
        weight: gw,
        bias: gb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&[f32]>,
        geo: ConvGeometry,
    ) -> Tensor {
        let is = input.shape();
        let ws = weight.shape();
        let os = geo.out_shape(is, ws.n);
        let mut out = Tensor::zeros(os);
        for n in 0..is.n {
            for oc in 0..ws.n {
                for oy in 0..os.h {
                    for ox in 0..os.w {
                        let mut acc = bias.map(|b| b[oc]).unwrap_or(0.0);
                        for ic in 0..is.c {
                            for ky in 0..geo.kernel {
                                for kx in 0..geo.kernel {
                                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                                    let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                                    if iy >= 0
                                        && iy < is.h as isize
                                        && ix >= 0
                                        && ix < is.w as isize
                                    {
                                        acc += input.at(n, ic, iy as usize, ix as usize)
                                            * weight.at(oc, ic, ky, kx);
                                    }
                                }
                            }
                        }
                        *out.at_mut(n, oc, oy, ox) = acc;
                    }
                }
            }
        }
        out
    }

    fn filled(shape: Shape, f: impl Fn(usize) -> f32) -> Tensor {
        Tensor::from_vec(shape, (0..shape.numel()).map(f).collect()).unwrap()
    }

    #[test]
    fn forward_matches_naive_3x3() {
        let geo = ConvGeometry::same3x3();
        let x = filled(Shape::new(2, 3, 5, 6), |i| ((i % 11) as f32 - 5.0) * 0.1);
        let w = filled(Shape::new(4, 3, 3, 3), |i| ((i % 7) as f32 - 3.0) * 0.2);
        let b: Vec<f32> = vec![0.1, -0.2, 0.3, 0.0];
        let got = conv2d(&x, &w, Some(&b), geo).unwrap();
        let want = naive_conv(&x, &w, Some(&b), geo);
        for (a, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
    }

    #[test]
    fn forward_matches_naive_pointwise() {
        let geo = ConvGeometry::pointwise();
        let x = filled(Shape::new(1, 5, 4, 4), |i| (i as f32).sin());
        let w = filled(Shape::new(3, 5, 1, 1), |i| (i as f32).cos());
        let got = conv2d(&x, &w, None, geo).unwrap();
        let want = naive_conv(&x, &w, None, geo);
        for (a, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    #[test]
    fn forward_matches_naive_strided() {
        let geo = ConvGeometry::new(3, 2, 1);
        let x = filled(Shape::new(1, 2, 7, 9), |i| ((i % 13) as f32 - 6.0) * 0.05);
        let w = filled(Shape::new(2, 2, 3, 3), |i| ((i % 5) as f32 - 2.0) * 0.3);
        let got = conv2d(&x, &w, None, geo).unwrap();
        let want = naive_conv(&x, &w, None, geo);
        assert_eq!(got.shape(), Shape::new(1, 2, 4, 5));
        for (a, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    #[test]
    fn rejects_bad_weight_shape() {
        let x = Tensor::zeros(Shape::new(1, 3, 4, 4));
        let w = Tensor::zeros(Shape::new(2, 4, 3, 3)); // in_c mismatch
        assert!(conv2d(&x, &w, None, ConvGeometry::same3x3()).is_err());
    }

    /// Regression: `out_extent` used to report 1 output position when the
    /// kernel exceeded the padded input (`saturating_sub` then `+ 1`).
    #[test]
    fn degenerate_geometry_is_zero_extent_and_rejected() {
        // 7×7 kernel over an unpadded 4-wide input: no valid placement.
        let geo = ConvGeometry::new(7, 1, 0);
        assert_eq!(geo.out_extent(4), 0);
        assert_eq!(geo.out_extent(6), 0);
        assert_eq!(geo.out_extent(7), 1);
        // Zero kernel / stride never place.
        assert_eq!(ConvGeometry::new(0, 1, 0).out_extent(5), 0);
        assert_eq!(ConvGeometry::new(3, 0, 1).out_extent(5), 0);

        let x = Tensor::zeros(Shape::new(1, 2, 4, 4));
        let w = Tensor::zeros(Shape::new(3, 2, 7, 7));
        let err = conv2d(&x, &w, None, geo).unwrap_err();
        assert!(
            matches!(err, TensorError::InvalidDimension { .. }),
            "want InvalidDimension, got {err:?}"
        );
        assert!(conv2d_backward(&x, &w, &Tensor::zeros(Shape::new(1, 3, 1, 1)), geo).is_err());
    }

    /// Finite-difference check of the full backward pass.
    #[test]
    fn backward_matches_finite_difference() {
        let geo = ConvGeometry::same3x3();
        let x = filled(Shape::new(1, 2, 4, 4), |i| ((i % 9) as f32 - 4.0) * 0.1);
        let w = filled(Shape::new(2, 2, 3, 3), |i| ((i % 6) as f32 - 2.5) * 0.1);
        let b = vec![0.05, -0.05];

        // Loss = sum of outputs, so grad_out = ones.
        let out = conv2d(&x, &w, Some(&b), geo).unwrap();
        let go = Tensor::ones(out.shape());
        let grads = conv2d_backward(&x, &w, &go, geo).unwrap();

        let eps = 1e-2f32;
        // Check a handful of weight coordinates.
        for &idx in &[0usize, 5, 13, 27, 35] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let lp = conv2d(&x, &wp, Some(&b), geo).unwrap().sum();
            let lm = conv2d(&x, &wm, Some(&b), geo).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.weight.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "w[{idx}]: {num} vs {ana}");
        }
        // Check a handful of input coordinates.
        for &idx in &[0usize, 7, 15, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = conv2d(&xp, &w, Some(&b), geo).unwrap().sum();
            let lm = conv2d(&xm, &w, Some(&b), geo).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.input.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "x[{idx}]: {num} vs {ana}");
        }
        // Bias gradient is just the number of spatial positions.
        for &g in &grads.bias {
            assert!((g - 16.0).abs() < 1e-3);
        }
    }
}
