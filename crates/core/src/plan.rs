//! Graph-level execution plan with operator fusion.
//!
//! [`SkyNet`]'s layer objects execute one at a time, materializing every
//! intermediate feature map. This module builds a small static **graph
//! IR** ([`Graph`]) from the bundle structure once, rewrites it with
//! four fusion passes, and compiles the result into an executable
//! [`ExecPlan`] whose steps drive the fused kernels in
//! [`skynet_tensor::fused`]:
//!
//! 1. **BN-fold** ([`Graph::fold_bn`]) — each `Conv → BatchNorm` pair
//!    becomes one conv whose store applies the BN-eval affine as a
//!    per-channel **epilogue**. The epilogue captures
//!    `(μ, 1/√(σ²+ε), γ, β)` at plan-build time and replays the eval
//!    path's exact f32 sequence `y = γ·(x − μ)·inv_std + β`, so —
//!    unlike the classic fold-into-weights rewrite
//!    ([`Conv2d::fold_bn`], which re-rounds every weight product and is
//!    kept for deployment-style transforms like INT8 — this is its
//!    float analogue with the rounding question designed away) — the
//!    output bits are unchanged.
//! 2. **Fused activation** ([`Graph::fuse_act`]) — the ReLU/ReLU6 clamp
//!    moves into the producing kernel's store loop
//!    (`max(x, 0)`/`min(·, 6)` with the elementwise kernels'
//!    `maxps`/`minps` lane semantics, position-independent per element).
//! 3. **Bundle fusion** ([`Graph::fuse_bundles`]) — the
//!    `DW-Conv3+BN+Act → PW+BN+Act` pair executes over cache-resident
//!    row tiles in the scratch arena, never materializing the
//!    intermediate ([`skynet_tensor::fused::fused_bundle_forward`]).
//! 4. **Pool fold** ([`Graph::fuse_pool`]) — a fused bundle followed by
//!    the 2×2 max-pool (and, for Bundle 3 of variants B/C, by the reorg
//!    fork before it) stores only the pooled rows (and the bypass) from
//!    each band's tile, so the full-resolution map is never written
//!    ([`skynet_tensor::fused::fused_bundle_forward_store`]). A pool or
//!    fork the pass cannot fold (window or block ≠ 2) fails the build.
//!
//! Every pass preserves **bit-identity** with the unfused layer path
//! across SIMD backends and thread counts; the unfused path stays on as
//! the runtime oracle behind `SKYNET_FUSION`
//! ([`skynet_tensor::fusion`]). Plans are cached per network and
//! invalidated whenever weights can change (optimizer visits, training
//! forwards) — see `SkyNet::forward`.

use crate::skynet::{SkyNet, Variant};
use skynet_nn::{Activation, BatchNorm2d, Conv2d, DwConv2d, Sequential};
use skynet_tensor::conv::{conv2d, ConvGeometry};
use skynet_tensor::fused::{fused_bundle_forward_store, BnAct, BundleStore};
use skynet_tensor::ops::concat_channels;
use skynet_tensor::{telemetry, Result, Tensor};

/// One node of the inference graph IR. `bundle` is the 0-based bundle
/// position (5 = Bundle 6); `stage` distinguishes the DW-side (`0`)
/// from the PW-side (`1`) BN/activation within a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Depth-wise 3×3 convolution of a bundle.
    DwConv3 {
        /// Bundle position.
        bundle: usize,
    },
    /// Point-wise convolution of a bundle.
    PwConv {
        /// Bundle position.
        bundle: usize,
    },
    /// BatchNorm after the DW (`stage` 0) or PW (`stage` 1) conv.
    Bn {
        /// Bundle position.
        bundle: usize,
        /// 0 = after DW, 1 = after PW.
        stage: usize,
    },
    /// ReLU/ReLU6 activation.
    Act {
        /// Bundle position.
        bundle: usize,
        /// 0 = after DW, 1 = after PW.
        stage: usize,
    },
    /// DW conv with the BN affine folded into its store epilogue
    /// (after [`Graph::fold_bn`]).
    DwConvBn {
        /// Bundle position.
        bundle: usize,
    },
    /// PW conv with the BN affine folded into its store epilogue.
    PwConvBn {
        /// Bundle position.
        bundle: usize,
    },
    /// DW conv with BN **and** activation fused into the store loop
    /// (after [`Graph::fuse_act`]).
    DwConvBnAct {
        /// Bundle position.
        bundle: usize,
    },
    /// PW conv with BN and activation fused into the store loop.
    PwConvBnAct {
        /// Bundle position.
        bundle: usize,
    },
    /// A whole bundle over cache-resident row tiles (after
    /// [`Graph::fuse_bundles`]).
    FusedBundle {
        /// Bundle position.
        bundle: usize,
    },
    /// A fused bundle whose store also emits the reorg fork — the
    /// intermediate [`Graph::fuse_pool`] forms on its way to
    /// [`Op::PooledBundle`]; it never survives the pass in SkyNet.
    ForkedBundle {
        /// Bundle position.
        bundle: usize,
    },
    /// A fused bundle whose store loop writes only the 2×2 max-pooled
    /// map, plus the reorg bypass when `fork` (after
    /// [`Graph::fuse_pool`]).
    PooledBundle {
        /// Bundle position.
        bundle: usize,
        /// Also emits the space-to-depth bypass for [`Op::Concat`].
        fork: bool,
    },
    /// Max-pool after bundles 1–3.
    Pool {
        /// Pool position (0–2).
        idx: usize,
        /// Window (and stride); 2 in SkyNet.
        k: usize,
    },
    /// Fork point: reorg (space-to-depth) the current map and stash it
    /// as the bypass operand for [`Op::Concat`].
    ReorgFork {
        /// Block size; 2 in SkyNet.
        block: usize,
    },
    /// Join point: concatenate the stashed bypass onto the current map.
    Concat,
    /// The 1×1 detection head (with bias, no BN/activation).
    Head,
}

/// The linear inference graph over the bundle structure. Control flow
/// (the single fork/join of the bypass) is encoded by
/// [`Op::ReorgFork`]/[`Op::Concat`], which is exactly as much graph as
/// the SkyNet topology has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    ops: Vec<Op>,
}

impl Graph {
    /// Builds the unfused graph mirroring `SkyNet::forward`'s exact op
    /// order (reorg fork after Bundle 3's body, before pool 3).
    pub fn from_skynet(net: &SkyNet) -> Graph {
        let mut ops = Vec::new();
        let bundle_ops = |ops: &mut Vec<Op>, b: usize| {
            ops.push(Op::DwConv3 { bundle: b });
            ops.push(Op::Bn {
                bundle: b,
                stage: 0,
            });
            ops.push(Op::Act {
                bundle: b,
                stage: 0,
            });
            ops.push(Op::PwConv { bundle: b });
            ops.push(Op::Bn {
                bundle: b,
                stage: 1,
            });
            ops.push(Op::Act {
                bundle: b,
                stage: 1,
            });
        };
        for i in 0..3 {
            bundle_ops(&mut ops, i);
            if i == 2 && net.cfg.variant != Variant::A {
                ops.push(Op::ReorgFork {
                    block: net.reorg.block(),
                });
            }
            ops.push(Op::Pool {
                idx: i,
                k: net.pools[i].window(),
            });
        }
        bundle_ops(&mut ops, 3);
        bundle_ops(&mut ops, 4);
        if net.bundle6.is_some() {
            ops.push(Op::Concat);
            bundle_ops(&mut ops, 5);
        }
        ops.push(Op::Head);
        Graph { ops }
    }

    /// The op list (read-only; tests assert pass results against it).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Pass 1 — BN-fold: `DwConv3/PwConv → Bn` pairs collapse into one
    /// conv-with-epilogue node.
    pub fn fold_bn(&mut self) {
        self.rewrite_pairs(|a, b| match (a, b) {
            (
                Op::DwConv3 { bundle },
                Op::Bn {
                    bundle: b2,
                    stage: 0,
                },
            ) if bundle == b2 => Some(Op::DwConvBn { bundle }),
            (
                Op::PwConv { bundle },
                Op::Bn {
                    bundle: b2,
                    stage: 1,
                },
            ) if bundle == b2 => Some(Op::PwConvBn { bundle }),
            _ => None,
        });
    }

    /// Pass 2 — fused activation: `ConvBn → Act` pairs move the clamp
    /// into the conv's store loop.
    pub fn fuse_act(&mut self) {
        self.rewrite_pairs(|a, b| match (a, b) {
            (
                Op::DwConvBn { bundle },
                Op::Act {
                    bundle: b2,
                    stage: 0,
                },
            ) if bundle == b2 => Some(Op::DwConvBnAct { bundle }),
            (
                Op::PwConvBn { bundle },
                Op::Act {
                    bundle: b2,
                    stage: 1,
                },
            ) if bundle == b2 => Some(Op::PwConvBnAct { bundle }),
            _ => None,
        });
    }

    /// Pass 3 — bundle fusion: adjacent `DwConvBnAct → PwConvBnAct` of
    /// the same bundle become one cache-blocked fused bundle.
    pub fn fuse_bundles(&mut self) {
        self.rewrite_pairs(|a, b| match (a, b) {
            (Op::DwConvBnAct { bundle }, Op::PwConvBnAct { bundle: b2 }) if bundle == b2 => {
                Some(Op::FusedBundle { bundle })
            }
            _ => None,
        });
    }

    /// Pass 4 — pool fold: `FusedBundle → Pool` becomes one pooled
    /// bundle, and `FusedBundle → ReorgFork → Pool` one pooled bundle
    /// that also emits the fork (via [`Op::ForkedBundle`], which the
    /// same sweep merges with the pool). Only the 2×2 window and block
    /// fold; any other pool or fork survives and fails the plan build.
    pub fn fuse_pool(&mut self) {
        self.rewrite_pairs(|a, b| match (a, b) {
            (Op::FusedBundle { bundle }, Op::Pool { k: 2, .. }) => Some(Op::PooledBundle {
                bundle,
                fork: false,
            }),
            (Op::FusedBundle { bundle }, Op::ReorgFork { block: 2 }) => {
                Some(Op::ForkedBundle { bundle })
            }
            (Op::ForkedBundle { bundle }, Op::Pool { k: 2, .. }) => {
                Some(Op::PooledBundle { bundle, fork: true })
            }
            _ => None,
        });
    }

    /// Runs all four passes in their documented order.
    pub fn optimize(&mut self) {
        self.fold_bn();
        self.fuse_act();
        self.fuse_bundles();
        self.fuse_pool();
    }

    /// One left-to-right sweep replacing adjacent pairs; linear passes
    /// over a linear graph, so one sweep reaches the fixed point.
    fn rewrite_pairs(&mut self, rule: impl Fn(Op, Op) -> Option<Op>) {
        let mut out: Vec<Op> = Vec::with_capacity(self.ops.len());
        for &op in &self.ops {
            if let Some(&prev) = out.last() {
                if let Some(merged) = rule(prev, op) {
                    *out.last_mut().expect("non-empty") = merged;
                    continue;
                }
            }
            out.push(op);
        }
        self.ops = out;
    }
}

/// Why a plan could not be built. Structural mismatches fall back to the
/// unfused path (counted as `fusion.fallback`), never fail the forward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Per-bundle span names for the fused kernels (`fused.<bundle>`): the
/// fused op **replaces** `skynet.bundleN` in the profiler's table, so
/// `telemetry::aggregate` never sees the same work under two names.
const FUSED_SPANS: [&str; 6] = [
    "fused.bundle1",
    "fused.bundle2",
    "fused.bundle3",
    "fused.bundle4",
    "fused.bundle5",
    "fused.bundle6",
];

/// Captured weights + epilogues of one fused bundle (boxed inside
/// [`Step`] to keep the step list's per-element size small).
struct FusedStep {
    span: &'static str,
    dw_w: Tensor,
    dw_geo: ConvGeometry,
    bn1: BnAct,
    pw_w: Tensor,
    bn2: BnAct,
    /// What the store loop writes: the full map, or the pooled map
    /// (and the bypass) folded in by [`Graph::fuse_pool`].
    store: BundleStore,
}

/// One executable step of a compiled plan.
enum Step {
    /// A fused bundle: weights + captured epilogues.
    Fused(Box<FusedStep>),
    Concat,
    Head {
        w: Tensor,
        bias: Option<Vec<f32>>,
        geo: ConvGeometry,
    },
}

/// A compiled, immutable inference plan for one [`SkyNet`]: the
/// optimized [`Graph`] plus captured weights/epilogues. Built lazily on
/// the first fused eval forward and cached until the owner's weights can
/// change (see `SkyNet::forward` / `SkyNet::visit_params`).
pub struct ExecPlan {
    graph: Graph,
    steps: Vec<Step>,
}

impl std::fmt::Debug for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExecPlan[{} steps]", self.steps.len())
    }
}

/// Downcasts one bundle chain into its six typed layers.
fn bundle_parts(
    seq: &Sequential,
    idx: usize,
) -> std::result::Result<
    (
        &DwConv2d,
        &BatchNorm2d,
        &Activation,
        &Conv2d,
        &BatchNorm2d,
        &Activation,
    ),
    PlanError,
> {
    let mismatch = |what: &str| {
        PlanError(format!(
            "bundle {}: expected DW→BN→Act→PW→BN→Act, {what}",
            idx + 1
        ))
    };
    let layers = seq.layers();
    if layers.len() != 6 {
        return Err(mismatch(&format!("found {} layers", layers.len())));
    }
    let cast = |i: usize| layers[i].as_any();
    Ok((
        cast(0)
            .and_then(|a| a.downcast_ref::<DwConv2d>())
            .ok_or_else(|| mismatch("layer 1 is not DwConv2d"))?,
        cast(1)
            .and_then(|a| a.downcast_ref::<BatchNorm2d>())
            .ok_or_else(|| mismatch("layer 2 is not BatchNorm2d"))?,
        cast(2)
            .and_then(|a| a.downcast_ref::<Activation>())
            .ok_or_else(|| mismatch("layer 3 is not Activation"))?,
        cast(3)
            .and_then(|a| a.downcast_ref::<Conv2d>())
            .ok_or_else(|| mismatch("layer 4 is not Conv2d"))?,
        cast(4)
            .and_then(|a| a.downcast_ref::<BatchNorm2d>())
            .ok_or_else(|| mismatch("layer 5 is not BatchNorm2d"))?,
        cast(5)
            .and_then(|a| a.downcast_ref::<Activation>())
            .ok_or_else(|| mismatch("layer 6 is not Activation"))?,
    ))
}

/// Captures one bundle's weights and epilogues as a fused step.
fn compile_bundle(
    seq: &Sequential,
    idx: usize,
    store: BundleStore,
) -> std::result::Result<Step, PlanError> {
    let (dw, bn1, act1, pw, bn2, act2) = bundle_parts(seq, idx)?;
    let geo = dw.geometry();
    if geo.kernel != 3 || (geo.stride != 1 && geo.stride != 2) {
        return Err(PlanError(format!(
            "bundle {}: DW geometry k={} s={} not fusable",
            idx + 1,
            geo.kernel,
            geo.stride
        )));
    }
    let pgeo = pw.geometry();
    if pgeo.kernel != 1 || pgeo.stride != 1 || pgeo.pad != 0 || pw.bias_values().is_some() {
        return Err(PlanError(format!(
            "bundle {}: PW stage is not a bias-free point-wise conv",
            idx + 1
        )));
    }
    let ep = |bn: &BatchNorm2d, ceiling: Option<f32>| {
        BnAct::new(
            bn.running_mean().to_vec(),
            bn.running_var(),
            bn.eps(),
            bn.gamma().to_vec(),
            bn.beta().to_vec(),
            ceiling,
        )
    };
    Ok(Step::Fused(Box::new(FusedStep {
        span: FUSED_SPANS[idx],
        dw_w: dw.weight().clone(),
        dw_geo: geo,
        bn1: ep(bn1, act1.kind().output_ceiling()),
        pw_w: pw.weight().clone(),
        bn2: ep(bn2, act2.kind().output_ceiling()),
        store,
    })))
}

impl ExecPlan {
    /// Builds and optimizes the plan for a network: IR construction, the
    /// four fusion passes, then weight/epilogue capture.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the network's structure does not
    /// match the fusable bundle shape (the caller falls back to the
    /// unfused path).
    pub fn build(net: &SkyNet) -> std::result::Result<ExecPlan, PlanError> {
        let mut graph = Graph::from_skynet(net);
        graph.optimize();
        let mut steps = Vec::with_capacity(graph.ops().len());
        for &op in graph.ops() {
            let bundle_seq = |bundle: usize| {
                if bundle < net.bundles.len() {
                    Ok(&net.bundles[bundle])
                } else {
                    net.bundle6
                        .as_ref()
                        .ok_or_else(|| PlanError("bundle 6 missing".into()))
                }
            };
            steps.push(match op {
                Op::FusedBundle { bundle } => {
                    compile_bundle(bundle_seq(bundle)?, bundle, BundleStore::Full)?
                }
                Op::PooledBundle { bundle, fork } => {
                    let store = if fork {
                        BundleStore::PoolFork
                    } else {
                        BundleStore::Pool
                    };
                    compile_bundle(bundle_seq(bundle)?, bundle, store)?
                }
                Op::Concat => Step::Concat,
                Op::Head => Step::Head {
                    w: net.head.weight().clone(),
                    bias: net.head.bias_values().map(<[f32]>::to_vec),
                    geo: net.head.geometry(),
                },
                other => {
                    return Err(PlanError(format!(
                        "op {other:?} survived fusion — not executable"
                    )))
                }
            });
        }
        telemetry::counter("fusion.plan_builds").inc();
        Ok(ExecPlan { graph, steps })
    }

    /// The optimized graph (for tests and diagnostics).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Executes the plan. Bit-identical to the unfused
    /// `SkyNet::forward` in eval mode on every SIMD backend and thread
    /// count (see [`skynet_tensor::fused`] for the argument).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (none occur for inputs the
    /// unfused path accepts).
    pub fn run(&self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        let mut bypass = None;
        for step in &self.steps {
            cur = match step {
                Step::Fused(f) => {
                    let _s = telemetry::span(f.span);
                    let (out, by) = fused_bundle_forward_store(
                        &cur, &f.dw_w, f.dw_geo, &f.bn1, &f.pw_w, &f.bn2, f.store,
                    )?;
                    if by.is_some() {
                        bypass = by;
                    }
                    out
                }
                Step::Concat => {
                    let _s = telemetry::span("skynet.concat");
                    let by = bypass.take().expect("ReorgFork precedes Concat");
                    concat_channels(&cur, &by)?
                }
                Step::Head { w, bias, geo } => {
                    let _s = telemetry::span("skynet.head");
                    conv2d(&cur, w, bias.as_deref(), *geo)?
                }
            };
        }
        Ok(cur)
    }
}

/// One step of the quantized (INT8) execution plan.
///
/// The integer engine has a much coarser op vocabulary than the float
/// graph: its stages are *already* BN-folded and activation-fused at
/// [`crate::quant::QuantizedSkyNet::build`] time, so the only fusion
/// decision left is whether a bundle's DW→PW pair runs as two full-map
/// kernels or as one cache-resident fused tile
/// ([`skynet_tensor::fused::qfused_bundle_forward`]). That decision is
/// the `fused` flag on [`QOp::Bundle`], set by
/// [`QExecPlan::lower_fused`], which also folds the pool (and fork) that
/// follows a fused bundle into its `store` — the INT8 twin of
/// [`Graph::fuse_pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QOp {
    /// Quantize the f32 input into the `i8` activation domain.
    Quantize,
    /// One DW→PW stage pair of the integer engine.
    Bundle {
        /// Bundle position (0-based; 5 = Bundle 6).
        bundle: usize,
        /// Lowered to the fused INT8 row-tile kernel. The engine still
        /// checks the runtime [`skynet_tensor::fusion`] toggle at each
        /// forward and counts `quant.fused.fallback` when a
        /// fused-lowered bundle has to run unfused.
        fused: bool,
        /// What the bundle stores: the full map, or — once lowering has
        /// folded the following pool (and fork) in — the pooled map
        /// (and the bypass). A bundle that runs unfused pools and forks
        /// with the staged `maxpool`/`reorg` instead.
        store: BundleStore,
    },
    /// 2×2 max-pool after bundles 1–3.
    Pool {
        /// Pool position (0–2).
        idx: usize,
    },
    /// Fork point: reorg the current map and stash it as the bypass
    /// operand for [`QOp::Concat`] (variants B/C only).
    ReorgFork,
    /// Join point: concatenate the stashed bypass onto the current map.
    Concat,
    /// The dequantizing 1×1 head (`i8×i8→i32` accumulate, f32 exit).
    Head,
}

/// The compiled step list of the INT8 engine: the same topology
/// [`Graph::from_skynet`] encodes for the float path, at bundle
/// granularity. Built once in `QuantizedSkyNet::build` and walked on
/// every integer forward — the fuse/don't-fuse decision is made at
/// plan time, not per call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QExecPlan {
    ops: Vec<QOp>,
}

impl QExecPlan {
    /// Builds the unlowered (all-unfused) plan for a variant, mirroring
    /// the integer engine's op order exactly: quantize, bundles 1–3
    /// each followed by a pool (with the reorg fork after Bundle 3's
    /// body, before pool 3), bundles 4–5, the concat + Bundle 6 join
    /// for B/C, then the head.
    pub fn for_variant(variant: Variant) -> QExecPlan {
        let has_b6 = variant != Variant::A;
        let mut ops = vec![QOp::Quantize];
        for i in 0..3 {
            ops.push(QOp::Bundle {
                bundle: i,
                fused: false,
                store: BundleStore::Full,
            });
            if i == 2 && has_b6 {
                ops.push(QOp::ReorgFork);
            }
            ops.push(QOp::Pool { idx: i });
        }
        for b in 3..5 {
            ops.push(QOp::Bundle {
                bundle: b,
                fused: false,
                store: BundleStore::Full,
            });
        }
        if has_b6 {
            ops.push(QOp::Concat);
            ops.push(QOp::Bundle {
                bundle: 5,
                fused: false,
                store: BundleStore::Full,
            });
        }
        ops.push(QOp::Head);
        QExecPlan { ops }
    }

    /// The lowering pass: marks every bundle the predicate accepts as
    /// fused and folds a `Pool` — or `ReorgFork → Pool` — right after a
    /// fused bundle into its store, dropping those steps. The engine
    /// passes "does the PW stage requantize back to `i8`?" — a
    /// head-style stage with no output scale exits to f32 and can never
    /// feed the fused epilogue.
    pub fn lower_fused(&mut self, fusable: impl Fn(usize) -> bool) {
        let mut ops = Vec::with_capacity(self.ops.len());
        let mut i = 0;
        while i < self.ops.len() {
            let mut op = self.ops[i];
            i += 1;
            if let QOp::Bundle {
                bundle,
                fused,
                store,
            } = &mut op
            {
                *fused = fusable(*bundle);
                if *fused && *store == BundleStore::Full {
                    match self.ops[i..] {
                        [QOp::Pool { .. }, ..] => {
                            *store = BundleStore::Pool;
                            i += 1;
                        }
                        [QOp::ReorgFork, QOp::Pool { .. }, ..] => {
                            *store = BundleStore::PoolFork;
                            i += 2;
                        }
                        _ => {}
                    }
                }
            }
            ops.push(op);
        }
        self.ops = ops;
    }

    /// The step list (read-only; tests assert the lowering against it).
    pub fn ops(&self) -> &[QOp] {
        &self.ops
    }

    /// Number of bundles lowered to the fused kernel.
    pub fn fused_bundles(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, QOp::Bundle { fused: true, .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skynet::SkyNetConfig;
    use skynet_nn::Act;
    use skynet_tensor::rng::SkyRng;

    fn net(variant: Variant) -> SkyNet {
        let mut rng = SkyRng::new(3);
        let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(16);
        SkyNet::new(cfg, &mut rng)
    }

    #[test]
    fn unfused_graph_shape() {
        let g = Graph::from_skynet(&net(Variant::C));
        // 6 bundles × 6 ops + 3 pools + fork + join + head = 42.
        assert_eq!(g.ops().len(), 42);
        assert_eq!(g.ops()[0], Op::DwConv3 { bundle: 0 });
        // The fork sits after Bundle 3's chain, before pool 3.
        let fork = g
            .ops()
            .iter()
            .position(|o| *o == Op::ReorgFork { block: 2 })
            .unwrap();
        assert_eq!(g.ops()[fork + 1], Op::Pool { idx: 2, k: 2 });
        assert_eq!(
            g.ops()[fork - 1],
            Op::Act {
                bundle: 2,
                stage: 1
            }
        );
        // Variant A: no fork/join/bundle 6.
        let ga = Graph::from_skynet(&net(Variant::A));
        assert_eq!(ga.ops().len(), 5 * 6 + 3 + 1);
        assert!(!ga.ops().iter().any(|o| matches!(o, Op::ReorgFork { .. })));
    }

    #[test]
    fn passes_rewrite_in_order() {
        let mut g = Graph::from_skynet(&net(Variant::C));
        g.fold_bn();
        assert!(g.ops().contains(&Op::DwConvBn { bundle: 0 }));
        assert!(!g.ops().iter().any(|o| matches!(o, Op::Bn { .. })));
        // Activations survive pass 1 untouched.
        assert!(g.ops().contains(&Op::Act {
            bundle: 0,
            stage: 0
        }));
        g.fuse_act();
        assert!(g.ops().contains(&Op::DwConvBnAct { bundle: 0 }));
        assert!(!g.ops().iter().any(|o| matches!(o, Op::Act { .. })));
        g.fuse_bundles();
        // 6 fused bundles + 3 pools + fork + join + head = 12 ops.
        assert_eq!(g.ops().len(), 12);
        for b in 0..6 {
            assert!(g.ops().contains(&Op::FusedBundle { bundle: b }));
        }
        g.fuse_pool();
        // 3 pooled bundles (Bundle 3 also forks) + 3 fused bundles +
        // join + head = 8 ops; no pool or fork step is left.
        assert_eq!(
            g.ops(),
            &[
                Op::PooledBundle {
                    bundle: 0,
                    fork: false
                },
                Op::PooledBundle {
                    bundle: 1,
                    fork: false
                },
                Op::PooledBundle {
                    bundle: 2,
                    fork: true
                },
                Op::FusedBundle { bundle: 3 },
                Op::FusedBundle { bundle: 4 },
                Op::Concat,
                Op::FusedBundle { bundle: 5 },
                Op::Head,
            ]
        );
    }

    #[test]
    fn pool_fold_leaves_variant_a_bundle3_without_a_fork() {
        let mut g = Graph::from_skynet(&net(Variant::A));
        g.optimize();
        // 3 pooled + 2 fused bundles + head.
        assert_eq!(g.ops().len(), 6);
        assert_eq!(
            g.ops()[2],
            Op::PooledBundle {
                bundle: 2,
                fork: false
            }
        );
        assert!(!g.ops().iter().any(|o| matches!(
            o,
            Op::PooledBundle { fork: true, .. } | Op::ForkedBundle { .. }
        )));
    }

    #[test]
    fn unfoldable_pool_or_fork_fails_the_plan_build() {
        let mut n = net(Variant::C);
        n.pools[1] = skynet_nn::MaxPool2d::new(4);
        let mut g = Graph::from_skynet(&n);
        g.optimize();
        assert!(g.ops().contains(&Op::Pool { idx: 1, k: 4 }));
        assert!(ExecPlan::build(&n).is_err());
        let mut n = net(Variant::C);
        n.reorg = skynet_nn::Reorg::new(4);
        let mut g = Graph::from_skynet(&n);
        g.optimize();
        // The fork stays, so the pool after it stays too.
        assert!(g.ops().contains(&Op::ReorgFork { block: 4 }));
        assert!(g.ops().contains(&Op::Pool { idx: 2, k: 2 }));
        assert!(ExecPlan::build(&n).is_err());
    }

    #[test]
    fn plan_builds_for_all_variants() {
        for v in [Variant::A, Variant::B, Variant::C] {
            let plan = ExecPlan::build(&net(v)).unwrap();
            let fused = plan
                .graph()
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::FusedBundle { .. } | Op::PooledBundle { .. }))
                .count();
            assert_eq!(fused, if v == Variant::A { 5 } else { 6 });
        }
    }

    #[test]
    fn qplan_mirrors_engine_op_order() {
        let bundle = |bundle, store| QOp::Bundle {
            bundle,
            fused: true,
            store,
        };
        let p = QExecPlan::for_variant(Variant::C);
        // quantize + 6 bundles + 3 pools + fork + join + head = 13.
        assert_eq!(p.ops().len(), 13);
        assert_eq!(p.ops()[0], QOp::Quantize);
        assert_eq!(*p.ops().last().unwrap(), QOp::Head);
        // The fork sits after Bundle 3, before pool 3 — same topology
        // as the float graph.
        let fork = p.ops().iter().position(|o| *o == QOp::ReorgFork).unwrap();
        assert_eq!(
            p.ops()[fork - 1],
            QOp::Bundle {
                bundle: 2,
                fused: false,
                store: BundleStore::Full,
            }
        );
        assert_eq!(p.ops()[fork + 1], QOp::Pool { idx: 2 });
        let join = p.ops().iter().position(|o| *o == QOp::Concat).unwrap();
        assert_eq!(
            p.ops()[join + 1],
            QOp::Bundle {
                bundle: 5,
                fused: false,
                store: BundleStore::Full,
            }
        );
        // Lowered, the pools and the fork fold into Bundles 1–3:
        // quantize + 6 bundles + join + head = 9 steps.
        let mut lowered = p.clone();
        lowered.lower_fused(|_| true);
        assert_eq!(
            lowered.ops(),
            &[
                QOp::Quantize,
                bundle(0, BundleStore::Pool),
                bundle(1, BundleStore::Pool),
                bundle(2, BundleStore::PoolFork),
                bundle(3, BundleStore::Full),
                bundle(4, BundleStore::Full),
                QOp::Concat,
                bundle(5, BundleStore::Full),
                QOp::Head,
            ]
        );
        // Variant A: 1 + 5 + 3 + 1 = 10 steps, no fork/join; lowered,
        // 1 + 5 + 1 = 7 with Bundle 3 pooling but not forking.
        let mut pa = QExecPlan::for_variant(Variant::A);
        assert_eq!(pa.ops().len(), 10);
        assert!(!pa.ops().contains(&QOp::ReorgFork));
        assert!(!pa.ops().contains(&QOp::Concat));
        pa.lower_fused(|_| true);
        assert_eq!(pa.ops().len(), 7);
        assert_eq!(pa.ops()[3], bundle(2, BundleStore::Pool));
    }

    #[test]
    fn qplan_lowering_keeps_the_pool_of_an_unfused_bundle() {
        let mut p = QExecPlan::for_variant(Variant::C);
        p.lower_fused(|b| b != 1);
        let at = p
            .ops()
            .iter()
            .position(|o| matches!(o, QOp::Bundle { bundle: 1, .. }))
            .unwrap();
        assert_eq!(
            p.ops()[at],
            QOp::Bundle {
                bundle: 1,
                fused: false,
                store: BundleStore::Full,
            }
        );
        assert_eq!(p.ops()[at + 1], QOp::Pool { idx: 1 });
    }

    #[test]
    fn qplan_lowering_marks_exactly_the_accepted_bundles() {
        let mut p = QExecPlan::for_variant(Variant::C);
        assert_eq!(p.fused_bundles(), 0);
        p.lower_fused(|b| b != 3);
        assert_eq!(p.fused_bundles(), 5);
        for op in p.ops() {
            if let QOp::Bundle { bundle, fused, .. } = op {
                assert_eq!(*fused, *bundle != 3, "bundle {bundle}");
            }
        }
        p.lower_fused(|_| true);
        assert_eq!(p.fused_bundles(), 6);
    }
}
