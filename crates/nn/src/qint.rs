//! Quantized inference stages: the INT8 execution form of the SkyNet
//! Bundle elements.
//!
//! A float Bundle runs `DW-Conv3 → BN → Act → PW-Conv1 → BN → Act`.
//! At inference the BN is an affine per-channel transform
//! ([`BatchNorm2d::folded_scale_shift`](crate::BatchNorm2d::folded_scale_shift)),
//! so the executable INT8 path collapses each half-Bundle into one
//! quantized stage:
//!
//! * [`QDwConv3`] — BN-folded 3×3 depth-wise weights quantized to `i8`
//!   with **per-channel** symmetric scales, integer stencil via
//!   [`qint::dwconv3_i8`], then the
//!   requantization epilogue [`qint::requant_i8`] (folded bias, fused
//!   activation clamp, next stage's scale);
//! * [`QPointwise`] — BN-folded 1×1 point-wise weights quantized the
//!   same way, executed as an integer matrix product per batch item
//!   ([`qint::matmul_i8_acc`]),
//!   with either a requantizing epilogue (mid-network) or a
//!   dequantizing one (the detection head, which exits to f32).
//!
//! Activations flow between stages as [`QFeature`]s: an `i8` buffer
//! plus its [`QScale`]. Scales are per-tensor almost everywhere; the
//! **per-channel** variant exists for exactly one structural reason —
//! the bypass concat joins two differently-scaled branches, and the
//! stage that consumes it is a depth-wise convolution, which never
//! mixes channels, so a per-channel input scale stays exact. A
//! point-wise stage *does* mix channels and therefore requires a
//! per-tensor input scale (enforced at run time).
//!
//! Scale provenance (who decides `out_scale`) lives one level up, in
//! `skynet-core`'s `Calibrator`; this module only executes a decided
//! plan. See `QUANTIZATION.md` at the repo root for the full contract.

use crate::Act;
use skynet_tensor::fused::{qfused_bundle_forward_store, BundleStore, QEpilogue, QFusedSats};
use skynet_tensor::qint::{self, QMAX};
use skynet_tensor::{telemetry, Result, Shape, Tensor, TensorError};

/// Quantization scale(s) attached to an `i8` activation buffer
/// (symmetric scheme: `value ≈ q · scale`, zero-point 0).
#[derive(Debug, Clone, PartialEq)]
pub enum QScale {
    /// One scale for the whole tensor — the common case.
    PerTensor(f32),
    /// One scale per channel — produced by concatenating branches with
    /// different scales; consumable only by channel-preserving stages
    /// (depth-wise conv, pooling, reorg).
    PerChannel(Vec<f32>),
}

impl QScale {
    /// The scale applied to channel `c`.
    ///
    /// # Panics
    ///
    /// Panics when a per-channel scale vector is shorter than `c + 1`.
    pub fn channel(&self, c: usize) -> f32 {
        match self {
            QScale::PerTensor(s) => *s,
            QScale::PerChannel(v) => v[c],
        }
    }

    /// The per-tensor scale, or `None` for per-channel scales.
    pub fn as_per_tensor(&self) -> Option<f32> {
        match self {
            QScale::PerTensor(s) => Some(*s),
            QScale::PerChannel(_) => None,
        }
    }
}

/// A quantized activation tensor: `i8` data in NCHW layout plus its
/// scale. `value[i] ≈ data[i] as f32 * scale(channel(i))`.
#[derive(Debug, Clone)]
pub struct QFeature {
    /// Quantized values, NCHW, dense.
    pub data: Vec<i8>,
    /// Logical shape.
    pub shape: Shape,
    /// Scale(s) mapping `i8` codes back to real values.
    pub scale: QScale,
}

impl QFeature {
    /// Quantizes an f32 tensor into the symmetric `i8` domain with the
    /// given per-tensor scale (the network-entry step). Returns the
    /// feature and the saturation count.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not strictly positive and finite.
    pub fn quantize(x: &Tensor, scale: f32) -> (Self, u64) {
        let _span = telemetry::span("tensor.qquantize");
        let mut data = vec![0i8; x.shape().numel()];
        let saturated = qint::quantize_i8(x.as_slice(), scale, &mut data);
        (
            QFeature {
                data,
                shape: x.shape(),
                scale: QScale::PerTensor(scale),
            },
            saturated,
        )
    }

    /// Dequantizes back to f32 — diagnostic path (the production exit
    /// is [`QPointwise::forward_dequant`], straight from `i32`).
    pub fn dequantize(&self) -> Tensor {
        let s = self.shape;
        let mut out = vec![0f32; s.numel()];
        let plane = s.plane();
        for pi in 0..s.n * s.c {
            let sc = self.scale.channel(pi % s.c);
            for (o, &q) in out[pi * plane..(pi + 1) * plane]
                .iter_mut()
                .zip(&self.data[pi * plane..(pi + 1) * plane])
            {
                *o = f32::from(q) * sc;
            }
        }
        Tensor::from_vec(s, out).expect("shape/len consistent by construction")
    }

    /// 2×2-style max pooling in the quantized domain (positive scale ⇒
    /// integer max picks the f32 winner). Scale rides along unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the spatial
    /// extents are not divisible by `k`.
    pub fn maxpool(&self, k: usize) -> Result<QFeature> {
        let s = self.shape;
        check_extents("qint.maxpool", s, k)?;
        let _span = telemetry::span("tensor.qpool");
        Ok(QFeature {
            data: qint::maxpool2d_i8(&self.data, s.n, s.c, s.h, s.w, k),
            shape: s.with_hw(s.h / k, s.w / k),
            scale: self.scale.clone(),
        })
    }

    /// Space-to-depth reorg in the quantized domain (a pure
    /// permutation). A per-tensor scale rides along; a per-channel
    /// scale would need reindexing and is rejected (the SkyNet bypass
    /// always reorgs a per-tensor branch).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the extents are
    /// not divisible by `s` or the scale is per-channel.
    pub fn reorg(&self, stride: usize) -> Result<QFeature> {
        let s = self.shape;
        if self.scale.as_per_tensor().is_none() {
            return Err(TensorError::InvalidDimension {
                op: "qint.reorg",
                detail: "per-channel scales cannot be reorged".into(),
            });
        }
        check_extents("qint.reorg", s, stride)?;
        let _span = telemetry::span("tensor.qreorg");
        Ok(QFeature {
            data: qint::reorg_i8(&self.data, s.n, s.c, s.h, s.w, stride),
            shape: Shape::new(s.n, s.c * stride * stride, s.h / stride, s.w / stride),
            scale: self.scale.clone(),
        })
    }

    /// Channel concatenation `[self ‖ other]`. The branches keep their
    /// own scales, so the result carries a per-channel scale vector —
    /// legal input for depth-wise stages only (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when batch or spatial
    /// extents differ.
    pub fn concat_channels(&self, other: &QFeature) -> Result<QFeature> {
        let (a, b) = (self.shape, other.shape);
        if a.n != b.n || a.h != b.h || a.w != b.w {
            return Err(TensorError::ShapeMismatch {
                op: "qint.concat",
                expected: a.to_string(),
                got: b.to_string(),
            });
        }
        let _span = telemetry::span("tensor.qconcat");
        let plane = a.plane();
        let oc = a.c + b.c;
        let mut data = vec![0i8; a.n * oc * plane];
        for n in 0..a.n {
            let dst = &mut data[n * oc * plane..(n + 1) * oc * plane];
            dst[..a.c * plane].copy_from_slice(&self.data[n * a.c * plane..(n + 1) * a.c * plane]);
            dst[a.c * plane..].copy_from_slice(&other.data[n * b.c * plane..(n + 1) * b.c * plane]);
        }
        let mut scales = Vec::with_capacity(oc);
        for c in 0..a.c {
            scales.push(self.scale.channel(c));
        }
        for c in 0..b.c {
            scales.push(other.scale.channel(c));
        }
        Ok(QFeature {
            data,
            shape: Shape::new(a.n, oc, a.h, a.w),
            scale: QScale::PerChannel(scales),
        })
    }
}

/// The extent check of the staged pool and reorg: `k` must be positive
/// and divide both spatial extents.
fn check_extents(op: &'static str, s: Shape, k: usize) -> Result<()> {
    if k == 0 || !s.h.is_multiple_of(k) || !s.w.is_multiple_of(k) {
        return Err(TensorError::InvalidDimension {
            op,
            detail: format!("spatial extents {}×{} not divisible by {k}", s.h, s.w),
        });
    }
    Ok(())
}

/// Fails exactly as the staged fork ([`QFeature::reorg`], which runs
/// first) and 2×2 pool ([`QFeature::maxpool`]) would on a bundle output
/// of `shape`'s extents — integer bundles preserve the extents of their
/// input — so a pooling `store` can reject such an input before any
/// work, with the staged error.
///
/// # Errors
///
/// The staged reorg's or pool's [`TensorError::InvalidDimension`].
pub fn check_store(shape: Shape, store: BundleStore) -> Result<()> {
    if store.forks() {
        check_extents("qint.reorg", shape, 2)?;
    }
    if store.pools() {
        check_extents("qint.maxpool", shape, 2)?;
    }
    Ok(())
}

/// Per-channel symmetric weight quantization: each `per`-element group
/// gets `scale = maxabs/127` (1.0 for all-zero groups) and rounds to
/// `[-127, 127]`. Returns `(i8 blob, scales)`.
fn quantize_weights_per_channel(w: &[f32], groups: usize, per: usize) -> (Vec<i8>, Vec<f32>) {
    let mut q = vec![0i8; groups * per];
    let mut scales = vec![1.0f32; groups];
    for g in 0..groups {
        let grp = &w[g * per..(g + 1) * per];
        let maxabs = grp.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if maxabs > 0.0 {
            maxabs / QMAX as f32
        } else {
            1.0
        };
        scales[g] = scale;
        for (d, &v) in q[g * per..(g + 1) * per].iter_mut().zip(grp) {
            *d = (v / scale).round().clamp(-(QMAX as f32), QMAX as f32) as i8;
        }
    }
    (q, scales)
}

/// The activation's requant clamp window: ReLU ⇒ `[0, ∞)`,
/// ReLU6 ⇒ `[0, 6]`, none ⇒ no clamp.
fn act_clamp(act: Option<Act>) -> Option<(f32, f32)> {
    act.map(|a| (0.0, a.output_ceiling().unwrap_or(f32::INFINITY)))
}

/// Records a stage's saturation count under `quant.<op>.saturated`.
fn record_saturation(op: &'static str, count: u64) {
    if count > 0 && telemetry::metrics_enabled() {
        telemetry::counter(&format!("quant.{op}.saturated")).add(count);
    }
}

/// A quantized 3×3 depth-wise stage: BN-folded weights in `i8` with
/// per-channel scales, integer stencil, requantizing epilogue with a
/// fused activation.
#[derive(Debug, Clone)]
pub struct QDwConv3 {
    channels: usize,
    weight: Vec<i8>,
    w_scale: Vec<f32>,
    bias: Vec<f32>,
    act: Option<Act>,
    out_scale: f32,
}

impl QDwConv3 {
    /// Builds the stage from a float depth-wise weight tensor
    /// (`c×1×3×3`), the following BN's folded `(scale, shift)`, the
    /// fused activation, and the calibrated output scale.
    ///
    /// # Panics
    ///
    /// Panics when the BN vectors don't have one entry per channel or
    /// `out_scale` is not strictly positive and finite.
    pub fn fold(
        weight: &Tensor,
        bn_scale: &[f32],
        bn_shift: &[f32],
        act: Option<Act>,
        out_scale: f32,
    ) -> Self {
        let s = weight.shape();
        let channels = s.n;
        assert_eq!(s.c * s.h * s.w, 9, "QDwConv3 needs 3x3 filters");
        assert_eq!(bn_scale.len(), channels, "one BN scale per channel");
        assert_eq!(bn_shift.len(), channels, "one BN shift per channel");
        assert!(
            out_scale.is_finite() && out_scale > 0.0,
            "out_scale must be positive"
        );
        // Fold BN into the weights: w'[c] = w[c] · bn_scale[c]; the shift
        // becomes the stage bias.
        let mut folded = weight.as_slice().to_vec();
        for (c, &bs) in bn_scale.iter().enumerate() {
            for v in &mut folded[c * 9..(c + 1) * 9] {
                *v *= bs;
            }
        }
        let (weight, w_scale) = quantize_weights_per_channel(&folded, channels, 9);
        QDwConv3 {
            channels,
            weight,
            w_scale,
            bias: bn_shift.to_vec(),
            act,
            out_scale,
        }
    }

    /// The calibrated output scale (the next stage's input scale).
    pub fn out_scale(&self) -> f32 {
        self.out_scale
    }

    /// Runs the stage: integer stencil, then per-plane requantization
    /// with `mult = in_scale(c) · w_scale(c)`. Accepts per-channel
    /// input scales (a depth-wise conv never mixes channels).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a channel mismatch.
    pub fn forward(&self, x: &QFeature) -> Result<QFeature> {
        Ok(self.forward_counted(x)?.0)
    }

    /// Rejects an input whose channel count differs from the stage's —
    /// the one input error of the staged and the fused bundle alike.
    fn check_input(&self, s: Shape) -> Result<()> {
        if s.c != self.channels {
            return Err(TensorError::ShapeMismatch {
                op: "QDwConv3",
                expected: format!("{} channels", self.channels),
                got: s.to_string(),
            });
        }
        Ok(())
    }

    /// [`QDwConv3::forward`] that also returns the stage's saturation
    /// count, so callers (the quantized engine) can publish per-bundle
    /// counters on top of the aggregate `quant.dwconv3.saturated`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QDwConv3::forward`].
    pub fn forward_counted(&self, x: &QFeature) -> Result<(QFeature, u64)> {
        let s = x.shape;
        self.check_input(s)?;
        let plane = s.plane();
        let mut acc = vec![0i32; s.numel()];
        qint::dwconv3_i8(&x.data, &self.weight, &mut acc, s.n, s.c, s.h, s.w);
        let _span = telemetry::span("tensor.qrequant");
        let mut data = vec![0i8; s.numel()];
        let clamp = act_clamp(self.act);
        let mut saturated = 0u64;
        for pi in 0..s.n * s.c {
            let c = pi % s.c;
            let mult = x.scale.channel(c) * self.w_scale[c];
            saturated += qint::requant_i8(
                &acc[pi * plane..(pi + 1) * plane],
                mult,
                self.bias[c],
                clamp,
                self.out_scale,
                &mut data[pi * plane..(pi + 1) * plane],
            );
        }
        record_saturation("dwconv3", saturated);
        Ok((
            QFeature {
                data,
                shape: s,
                scale: QScale::PerTensor(self.out_scale),
            },
            saturated,
        ))
    }
}

/// A quantized 1×1 point-wise stage: BN-folded weights in `i8` with
/// per-output-channel scales, integer matrix product, and either a
/// requantizing (mid-network) or dequantizing (head) epilogue.
#[derive(Debug, Clone)]
pub struct QPointwise {
    in_c: usize,
    out_c: usize,
    weight: Vec<i8>,
    w_scale: Vec<f32>,
    bias: Vec<f32>,
    act: Option<Act>,
    out_scale: Option<f32>,
}

impl QPointwise {
    /// Builds the stage from a float point-wise weight tensor
    /// (`out_c×in_c×1×1`), the convolution's own bias (the head carries
    /// one), an optional following BN's folded `(scale, shift)`, the
    /// fused activation, and the calibrated output scale (`None` for
    /// the dequantizing head stage).
    ///
    /// # Panics
    ///
    /// Panics when vector lengths don't match the channel counts or a
    /// given `out_scale` is not strictly positive and finite.
    pub fn fold(
        weight: &Tensor,
        conv_bias: Option<&[f32]>,
        bn: Option<(&[f32], &[f32])>,
        act: Option<Act>,
        out_scale: Option<f32>,
    ) -> Self {
        let s = weight.shape();
        let (out_c, in_c) = (s.n, s.c);
        assert_eq!(s.h * s.w, 1, "QPointwise needs 1x1 filters");
        if let Some(os) = out_scale {
            assert!(os.is_finite() && os > 0.0, "out_scale must be positive");
        }
        // Effective transform: y = bs·(Wx + b) + bh  =  (bs·W)x + (bs·b + bh).
        let mut folded = weight.as_slice().to_vec();
        let mut bias = vec![0.0f32; out_c];
        if let Some(b) = conv_bias {
            assert_eq!(b.len(), out_c, "one bias per output channel");
            bias.copy_from_slice(b);
        }
        if let Some((bs, bh)) = bn {
            assert_eq!(bs.len(), out_c, "one BN scale per output channel");
            assert_eq!(bh.len(), out_c, "one BN shift per output channel");
            for oc in 0..out_c {
                for v in &mut folded[oc * in_c..(oc + 1) * in_c] {
                    *v *= bs[oc];
                }
                bias[oc] = bias[oc] * bs[oc] + bh[oc];
            }
        }
        let (weight, w_scale) = quantize_weights_per_channel(&folded, out_c, in_c);
        QPointwise {
            in_c,
            out_c,
            weight,
            w_scale,
            bias,
            act,
            out_scale,
        }
    }

    /// The calibrated output scale, if this stage requantizes.
    pub fn out_scale(&self) -> Option<f32> {
        self.out_scale
    }

    fn accumulate(&self, x: &QFeature) -> Result<(Vec<i32>, f32, Shape)> {
        let s = x.shape;
        if s.c != self.in_c {
            return Err(TensorError::ShapeMismatch {
                op: "QPointwise",
                expected: format!("{} channels", self.in_c),
                got: s.to_string(),
            });
        }
        let Some(in_scale) = x.scale.as_per_tensor() else {
            // A point-wise conv mixes input channels inside one i32
            // accumulator; mixed scales would make the sum meaningless.
            return Err(TensorError::InvalidDimension {
                op: "QPointwise",
                detail: "per-channel input scales require a channel-preserving stage".into(),
            });
        };
        let plane = s.plane();
        let os = Shape::new(s.n, self.out_c, s.h, s.w);
        let mut acc = vec![0i32; os.numel()];
        for n in 0..s.n {
            qint::matmul_i8(
                &self.weight,
                &x.data[n * self.in_c * plane..(n + 1) * self.in_c * plane],
                &mut acc[n * self.out_c * plane..(n + 1) * self.out_c * plane],
                self.out_c,
                self.in_c,
                plane,
            );
        }
        Ok((acc, in_scale, os))
    }

    /// Runs the stage with the requantizing epilogue. Requires a
    /// per-tensor input scale and a configured `out_scale`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a channel mismatch and
    /// [`TensorError::InvalidDimension`] on a per-channel input scale
    /// or a head-configured stage (no `out_scale`).
    pub fn forward(&self, x: &QFeature) -> Result<QFeature> {
        Ok(self.forward_counted(x)?.0)
    }

    /// [`QPointwise::forward`] that also returns the stage's saturation
    /// count (see [`QDwConv3::forward_counted`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`QPointwise::forward`].
    pub fn forward_counted(&self, x: &QFeature) -> Result<(QFeature, u64)> {
        let Some(out_scale) = self.out_scale else {
            return Err(TensorError::InvalidDimension {
                op: "QPointwise",
                detail: "stage has no out_scale; use forward_dequant".into(),
            });
        };
        let (acc, in_scale, os) = self.accumulate(x)?;
        let _span = telemetry::span("tensor.qrequant");
        let plane = os.plane();
        let clamp = act_clamp(self.act);
        let mut data = vec![0i8; os.numel()];
        let mut saturated = 0u64;
        for pi in 0..os.n * os.c {
            let oc = pi % os.c;
            saturated += qint::requant_i8(
                &acc[pi * plane..(pi + 1) * plane],
                in_scale * self.w_scale[oc],
                self.bias[oc],
                clamp,
                out_scale,
                &mut data[pi * plane..(pi + 1) * plane],
            );
        }
        record_saturation("pointwise", saturated);
        Ok((
            QFeature {
                data,
                shape: os,
                scale: QScale::PerTensor(out_scale),
            },
            saturated,
        ))
    }

    /// Runs the stage with the dequantizing epilogue: the network-exit
    /// path (the detection head), producing f32 directly from the
    /// `i32` accumulators. Ignores `out_scale` and the activation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QPointwise::forward`], minus the
    /// `out_scale` requirement.
    pub fn forward_dequant(&self, x: &QFeature) -> Result<Tensor> {
        let (acc, in_scale, os) = self.accumulate(x)?;
        let _span = telemetry::span("tensor.qdequant");
        let plane = os.plane();
        let mut out = vec![0f32; os.numel()];
        for pi in 0..os.n * os.c {
            let oc = pi % os.c;
            qint::dequant_f32(
                &acc[pi * plane..(pi + 1) * plane],
                in_scale * self.w_scale[oc],
                self.bias[oc],
                &mut out[pi * plane..(pi + 1) * plane],
            );
        }
        Tensor::from_vec(os, out)
    }
}

/// Runs a `QDwConv3 → QPointwise` stage pair through the cache-resident
/// fused executor
/// ([`qfused_bundle_forward_store`]):
/// the DW `i32` tile, its requantized activations, and the PW `i32`
/// tile stay in the scratch arena, and the requant epilogues run inside
/// the band store loops. Bit-identical to
/// `pw.forward(&dw.forward(x)?)` — the equivalence suites assert it —
/// and it publishes the same `quant.{dwconv3,pointwise}.saturated`
/// counters. Returns the output feature, the bypass (for
/// [`BundleStore::PoolFork`]) and the per-stage saturation counts (for
/// the engine's per-bundle counters).
///
/// A pooling `store` folds the following 2×2 [`QFeature::maxpool`] —
/// and for a fork the [`QFeature::reorg`] of the full map, taken before
/// the pool — into the band store: the output is bit-identical to
/// `pw.forward(&dw.forward(x)?)?.maxpool(2)`, the bypass to `.reorg(2)`
/// of the unpooled map, and neither the full map nor the `tensor.qpool`
/// / `tensor.qreorg` spans appear.
///
/// Accepts a per-channel input scale exactly like the unfused DW stage
/// (the per-channel multiplier is folded into the DW epilogue; the PW
/// stage consumes the DW output's per-tensor scale).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on channel mismatches between
/// `x`, `dw`, and `pw`, and [`TensorError::InvalidDimension`] when `pw`
/// is head-configured (no `out_scale` — the head never fuses) or a
/// pooling store meets odd spatial extents.
pub fn qfused_forward(
    dw: &QDwConv3,
    pw: &QPointwise,
    x: &QFeature,
    store: BundleStore,
) -> Result<(QFeature, Option<QFeature>, QFusedSats)> {
    let s = x.shape;
    dw.check_input(s)?;
    if pw.in_c != dw.channels {
        return Err(TensorError::ShapeMismatch {
            op: "qfused_forward",
            expected: format!("PW over {} channels", dw.channels),
            got: format!("{} channels", pw.in_c),
        });
    }
    let Some(pw_out_scale) = pw.out_scale else {
        return Err(TensorError::InvalidDimension {
            op: "qfused_forward",
            detail: "head stage has no out_scale and never fuses".into(),
        });
    };
    let dw_mult: Vec<f32> = (0..dw.channels)
        .map(|c| x.scale.channel(c) * dw.w_scale[c])
        .collect();
    // The PW input scale is the DW stage's per-tensor out_scale.
    let pw_mult: Vec<f32> = pw.w_scale.iter().map(|&ws| dw.out_scale * ws).collect();
    let dw_ep = QEpilogue {
        mult: &dw_mult,
        bias: &dw.bias,
        clamp: act_clamp(dw.act),
        out_scale: dw.out_scale,
    };
    let pw_ep = QEpilogue {
        mult: &pw_mult,
        bias: &pw.bias,
        clamp: act_clamp(pw.act),
        out_scale: pw_out_scale,
    };
    let full = Shape::new(s.n, pw.out_c, s.h, s.w);
    let os = if store.pools() {
        full.with_hw(s.h / 2, s.w / 2)
    } else {
        full
    };
    let mut data = vec![0i8; os.numel()];
    let mut bypass = vec![0i8; if store.forks() { full.numel() } else { 0 }];
    let sats = qfused_bundle_forward_store(
        &x.data,
        s,
        &dw.weight,
        &dw_ep,
        &pw.weight,
        pw.out_c,
        &pw_ep,
        store,
        &mut data,
        &mut bypass,
    )?;
    record_saturation("dwconv3", sats.dw);
    record_saturation("pointwise", sats.pw);
    let feature = |data, shape| QFeature {
        data,
        shape,
        scale: QScale::PerTensor(pw_out_scale),
    };
    let bypass = store
        .forks()
        .then(|| feature(bypass, Shape::new(s.n, 4 * pw.out_c, s.h / 2, s.w / 2)));
    Ok((feature(data, os), bypass, sats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_tensor::rng::SkyRng;

    fn random_tensor(shape: Shape, seed: u64, scale: f32) -> Tensor {
        let mut rng = SkyRng::new(seed);
        Tensor::from_vec(
            shape,
            (0..shape.numel()).map(|_| rng.normal(0.0, scale)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded_by_half_step() {
        let x = random_tensor(Shape::new(1, 2, 4, 4), 1, 0.5);
        let maxabs = x.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = maxabs / 127.0;
        let (q, sat) = QFeature::quantize(&x, scale);
        assert_eq!(sat, 0);
        let back = q.dequantize();
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn qdwconv_tracks_float_reference() {
        let (c, h, w) = (3, 6, 40);
        let weight = random_tensor(Shape::new(c, 1, 3, 3), 2, 0.4);
        let bn_scale = vec![1.1, 0.9, 1.0];
        let bn_shift = vec![0.05, -0.1, 0.0];
        let x = random_tensor(Shape::new(2, c, h, w), 3, 0.8);

        // Float reference: dwconv → affine → relu6.
        let fx = {
            use skynet_tensor::conv::ConvGeometry;
            use skynet_tensor::dwconv::dwconv2d;
            let y = dwconv2d(&x, &weight, None, ConvGeometry::same3x3()).unwrap();
            let s = y.shape();
            let mut out = y.as_slice().to_vec();
            for pi in 0..s.n * s.c {
                let ch = pi % s.c;
                for v in &mut out[pi * s.plane()..(pi + 1) * s.plane()] {
                    *v = (*v * bn_scale[ch] + bn_shift[ch]).clamp(0.0, 6.0);
                }
            }
            Tensor::from_vec(s, out).unwrap()
        };

        let in_maxabs = x.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let out_maxabs = fx.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let in_scale = in_maxabs / 127.0;
        let out_scale = (out_maxabs / 127.0).max(1e-6);
        let stage = QDwConv3::fold(&weight, &bn_scale, &bn_shift, Some(Act::Relu6), out_scale);
        let (qx, _) = QFeature::quantize(&x, in_scale);
        let qy = stage.forward(&qx).unwrap();
        let approx = qy.dequantize();

        let mut max_err = 0.0f32;
        for (a, b) in fx.as_slice().iter().zip(approx.as_slice()) {
            max_err = max_err.max((a - b).abs());
        }
        // 8-bit path: worst case a few quantization steps of error.
        assert!(max_err < out_scale * 4.0 + in_scale * 12.0, "err {max_err}");
    }

    #[test]
    fn qpointwise_tracks_float_reference_and_head_dequantizes() {
        let (ci, co, h, w) = (4, 3, 5, 37);
        let weight = random_tensor(Shape::new(co, ci, 1, 1), 5, 0.3);
        let bias = vec![0.2, -0.4, 0.0];
        let x = random_tensor(Shape::new(1, ci, h, w), 6, 1.0);

        // Float reference: pointwise conv with bias, no activation.
        let fx = {
            use skynet_tensor::conv::{conv2d, ConvGeometry};
            conv2d(&x, &weight, Some(&bias), ConvGeometry::pointwise()).unwrap()
        };

        let in_maxabs = x.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let stage = QPointwise::fold(&weight, Some(&bias), None, None, None);
        let (qx, _) = QFeature::quantize(&x, in_maxabs / 127.0);
        let y = stage.forward_dequant(&qx).unwrap();
        assert_eq!(y.shape(), fx.shape());
        let mut max_err = 0.0f32;
        for (a, b) in fx.as_slice().iter().zip(y.as_slice()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 0.1, "head dequant err {max_err}");

        // The requantizing epilogue refuses to run without an out_scale.
        assert!(stage.forward(&qx).is_err());
    }

    #[test]
    fn pointwise_rejects_per_channel_input() {
        let weight = random_tensor(Shape::new(2, 2, 1, 1), 7, 0.3);
        let stage = QPointwise::fold(&weight, None, None, None, Some(0.1));
        let x = QFeature {
            data: vec![0; 2 * 4],
            shape: Shape::new(1, 2, 2, 2),
            scale: QScale::PerChannel(vec![0.1, 0.2]),
        };
        assert!(stage.forward(&x).is_err());
    }

    #[test]
    fn concat_carries_per_channel_scales_and_dwconv_consumes_them() {
        let a = QFeature {
            data: vec![10; 8],
            shape: Shape::new(1, 2, 2, 2),
            scale: QScale::PerTensor(0.1),
        };
        let b = QFeature {
            data: vec![20; 4],
            shape: Shape::new(1, 1, 2, 2),
            scale: QScale::PerTensor(0.5),
        };
        let cat = a.concat_channels(&b).unwrap();
        assert_eq!(cat.shape, Shape::new(1, 3, 2, 2));
        assert_eq!(cat.scale, QScale::PerChannel(vec![0.1, 0.1, 0.5]));
        // A depth-wise stage accepts the mixed scales.
        let weight = Tensor::ones(Shape::new(3, 1, 3, 3));
        let stage = QDwConv3::fold(&weight, &[1.0; 3], &[0.0; 3], None, 0.25);
        assert!(stage.forward(&cat).is_ok());
    }

    #[test]
    fn qfused_forward_matches_stage_pair_bitwise() {
        let (c, c2, h, w) = (4usize, 6usize, 10usize, 14usize);
        let dw_weight = random_tensor(Shape::new(c, 1, 3, 3), 11, 0.4);
        let pw_weight = random_tensor(Shape::new(c2, c, 1, 1), 12, 0.3);
        let bn_scale = vec![1.1, 0.9, 1.0, 1.05];
        let bn_shift = vec![0.05, -0.1, 0.0, 0.02];
        let pw_bn_scale = vec![1.0; c2];
        let pw_bn_shift = vec![0.01; c2];
        let dw = QDwConv3::fold(&dw_weight, &bn_scale, &bn_shift, Some(Act::Relu6), 0.04);
        let pw = QPointwise::fold(
            &pw_weight,
            None,
            Some((&pw_bn_scale, &pw_bn_shift)),
            Some(Act::Relu6),
            Some(0.05),
        );
        let x = random_tensor(Shape::new(2, c, h, w), 13, 0.8);
        let (qx, _) = QFeature::quantize(&x, 0.01);

        let want = pw.forward(&dw.forward(&qx).unwrap()).unwrap();
        let (got, by, _sats) = qfused_forward(&dw, &pw, &qx, BundleStore::Full).unwrap();
        assert!(by.is_none());
        assert_eq!(got.data, want.data, "fused must be bit-identical");
        assert_eq!(got.shape, want.shape);
        assert_eq!(got.scale, want.scale);

        // A per-channel input scale (the concat case) fuses too.
        let qcat = QFeature {
            data: qx.data.clone(),
            shape: qx.shape,
            scale: QScale::PerChannel(vec![0.01, 0.02, 0.015, 0.01]),
        };
        let want = pw.forward(&dw.forward(&qcat).unwrap()).unwrap();
        let (got, _, _) = qfused_forward(&dw, &pw, &qcat, BundleStore::Full).unwrap();
        assert_eq!(got.data, want.data, "per-channel input must fuse exactly");

        // The folded pool and fork match the staged maxpool / reorg.
        let full = pw.forward(&dw.forward(&qx).unwrap()).unwrap();
        let (got, by, _) = qfused_forward(&dw, &pw, &qx, BundleStore::PoolFork).unwrap();
        let (want, want_by) = (full.maxpool(2).unwrap(), full.reorg(2).unwrap());
        assert_eq!((got.data, got.shape), (want.data, want.shape));
        let by = by.expect("a forking store returns the bypass");
        assert_eq!(
            (by.data, by.shape, by.scale),
            (want_by.data, want_by.shape, want_by.scale)
        );

        // The head (no out_scale) never fuses.
        let head = QPointwise::fold(&pw_weight, None, None, None, None);
        assert!(qfused_forward(&dw, &head, &qx, BundleStore::Full).is_err());
    }

    #[test]
    fn maxpool_and_reorg_preserve_scale_semantics() {
        let x = QFeature {
            data: (0..16).map(|v| v as i8).collect(),
            shape: Shape::new(1, 1, 4, 4),
            scale: QScale::PerTensor(0.5),
        };
        let pooled = x.maxpool(2).unwrap();
        assert_eq!(pooled.shape, Shape::new(1, 1, 2, 2));
        assert_eq!(pooled.data, vec![5, 7, 13, 15]);
        let r = x.reorg(2).unwrap();
        assert_eq!(r.shape, Shape::new(1, 4, 2, 2));
        assert_eq!(r.scale, QScale::PerTensor(0.5));
    }
}
