//! Max-pooling with argmax bookkeeping.
//!
//! SkyNet uses three 2×2 stride-2 max-pool layers (Table 3). The forward
//! pass records the flat index of each window's winner so the backward pass
//! can route gradients without recomputing the comparison.

use crate::parallel::{par_chunks_mut, par_chunks_mut2};
use crate::telemetry;
use crate::{Result, Shape, Tensor, TensorError};

/// Result of [`maxpool2d`]: the pooled map plus the winner indices needed
/// by [`maxpool2d_backward`].
#[derive(Debug, Clone)]
pub struct PoolOutput {
    /// Pooled feature map.
    pub output: Tensor,
    /// For every output element, the flat index (into the input buffer) of
    /// the element that won the max.
    pub argmax: Vec<u32>,
}

/// Output shape of a `k×k` stride-`k` max-pool over `input` — the shape
/// check [`maxpool2d`] runs, shared with the fused bundle's pooled store
/// so both report the same error for the same input.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] when `k == 0` or the spatial
/// extents are not divisible by `k`.
pub fn pool_out_shape(input: Shape, k: usize) -> Result<Shape> {
    if k == 0 {
        return Err(TensorError::InvalidDimension {
            op: "maxpool2d",
            detail: "window size must be positive".into(),
        });
    }
    if !input.h.is_multiple_of(k) || !input.w.is_multiple_of(k) {
        return Err(TensorError::InvalidDimension {
            op: "maxpool2d",
            detail: format!(
                "spatial extents {}×{} not divisible by {k}",
                input.h, input.w
            ),
        });
    }
    Ok(input.with_hw(input.h / k, input.w / k))
}

/// 2-D max pooling with a square `k×k` window and stride `k`
/// (non-overlapping, as in the paper).
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] when `k == 0` or the spatial
/// extents are not divisible by `k`.
pub fn maxpool2d(input: &Tensor, k: usize) -> Result<PoolOutput> {
    let is = input.shape();
    let os = pool_out_shape(is, k)?;
    let mut out = Tensor::zeros(os);
    let mut argmax = vec![0u32; os.numel()];
    let src = input.as_slice();
    let _span = telemetry::span("tensor.pool_fwd");
    telemetry::record_call("tensor.pool.fwd_calls", 1);
    if os.plane() == 0 {
        return Ok(PoolOutput {
            output: out,
            argmax,
        });
    }
    // Each (item, channel) plane pools independently; argmax indices stay
    // global (into the full input buffer), as in the serial kernel.
    par_chunks_mut2(
        out.as_mut_slice(),
        os.plane(),
        &mut argmax,
        os.plane(),
        |plane, dst, am| {
            let base = plane * is.plane();
            let mut oi = 0usize;
            for oy in 0..os.h {
                for ox in 0..os.w {
                    let mut best = f32::NEG_INFINITY;
                    // A window with no element above −∞ (all NaN or all
                    // −∞) keeps its first element as the winner, so the
                    // index stays inside this plane.
                    let mut best_idx = base + oy * k * is.w + ox * k;
                    for ky in 0..k {
                        let row = base + (oy * k + ky) * is.w + ox * k;
                        for kx in 0..k {
                            let v = src[row + kx];
                            if v > best {
                                best = v;
                                best_idx = row + kx;
                            }
                        }
                    }
                    dst[oi] = best;
                    am[oi] = best_idx as u32;
                    oi += 1;
                }
            }
        },
    );
    Ok(PoolOutput {
        output: out,
        argmax,
    })
}

/// Backward pass of [`maxpool2d`]: scatters each output gradient to the
/// input position that won the forward max.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grad_out`'s element count
/// differs from the recorded argmax length.
pub fn maxpool2d_backward(input_shape: Shape, argmax: &[u32], grad_out: &Tensor) -> Result<Tensor> {
    if grad_out.shape().numel() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            op: "maxpool2d_backward",
            expected: format!("{} grad elements", argmax.len()),
            got: grad_out.shape().to_string(),
        });
    }
    let mut gi = Tensor::zeros(input_shape);
    let planes = input_shape.n * input_shape.c;
    let go = grad_out.as_slice();
    let _span = telemetry::span("tensor.pool_bwd");
    telemetry::record_call("tensor.pool.bwd_calls", 1);
    if planes > 0 && argmax.len().is_multiple_of(planes) && input_shape.plane() > 0 {
        // Argmax indices produced by `maxpool2d` always point inside
        // their own (item, channel) plane, so the scatter decomposes
        // into independent per-plane tasks.
        let out_plane = argmax.len() / planes;
        par_chunks_mut(gi.as_mut_slice(), input_shape.plane(), |plane, gi_plane| {
            let ibase = plane * input_shape.plane();
            let obase = plane * out_plane;
            for oi in obase..obase + out_plane {
                gi_plane[argmax[oi] as usize - ibase] += go[oi];
            }
        });
    } else {
        let dst = gi.as_mut_slice();
        for (&idx, &g) in argmax.iter().zip(go) {
            dst[idx as usize] += g;
        }
    }
    Ok(gi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_2x2_picks_max() {
        let x = Tensor::from_vec(
            Shape::new(1, 1, 2, 4),
            vec![1.0, 5.0, 3.0, 2.0, 4.0, 0.0, -1.0, 9.0],
        )
        .unwrap();
        let p = maxpool2d(&x, 2).unwrap();
        assert_eq!(p.output.shape(), Shape::new(1, 1, 1, 2));
        assert_eq!(p.output.as_slice(), &[5.0, 9.0]);
        assert_eq!(p.argmax, vec![1, 7]);
    }

    #[test]
    fn pool_handles_negative_values() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![-4.0, -1.0, -3.0, -2.0]).unwrap();
        let p = maxpool2d(&x, 2).unwrap();
        assert_eq!(p.output.as_slice(), &[-1.0]);
    }

    #[test]
    fn rejects_indivisible_extent() {
        let x = Tensor::zeros(Shape::new(1, 1, 3, 4));
        assert!(maxpool2d(&x, 2).is_err());
        assert!(maxpool2d(&x, 0).is_err());
    }

    #[test]
    fn backward_routes_to_winner() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 4.0, 2.0, 3.0]).unwrap();
        let p = maxpool2d(&x, 2).unwrap();
        let go = Tensor::from_vec(Shape::new(1, 1, 1, 1), vec![2.5]).unwrap();
        let gi = maxpool2d_backward(x.shape(), &p.argmax, &go).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn nan_window_in_a_later_plane_routes_inside_its_plane() {
        let nan = f32::NAN;
        let x = Tensor::from_vec(
            Shape::new(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan],
        )
        .unwrap();
        let p = maxpool2d(&x, 2).unwrap();
        assert_eq!(p.output.as_slice(), &[4.0, f32::NEG_INFINITY]);
        assert_eq!(p.argmax, vec![3, 4]);
        let go = Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![1.0, 2.0]).unwrap();
        let gi = maxpool2d_backward(x.shape(), &p.argmax, &go).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pool_multichannel_batched() {
        let s = Shape::new(2, 3, 4, 4);
        let x = Tensor::from_vec(s, (0..s.numel()).map(|i| i as f32).collect()).unwrap();
        let p = maxpool2d(&x, 2).unwrap();
        assert_eq!(p.output.shape(), Shape::new(2, 3, 2, 2));
        // In a monotonically increasing map the bottom-right of each window
        // wins.
        assert_eq!(p.output.at(0, 0, 0, 0), x.at(0, 0, 1, 1));
        assert_eq!(p.output.at(1, 2, 1, 1), x.at(1, 2, 3, 3));
    }
}
