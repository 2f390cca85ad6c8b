//! The traced run: per-layer metrics from the spans, counters,
//! histograms and allocation tap the program already has
//! (`skynet_tensor::telemetry`, `skynet_tensor::alloc`), plus the
//! bench's own timing of its calls into each module.
//!
//! The bench opens spans of its own (`skybench.*`) only to mark where
//! its operations start and end; it adds none inside the program.

use crate::report::Metric;
use skynet_tensor::alloc::{self, AllocStats};
use skynet_tensor::telemetry::{self, Snapshot, SpanRecord};
use std::collections::BTreeMap;

/// Every per-layer metric in output order, with its unit. A workload
/// that does not run a layer reports 0 for it (see `skybench/README.md`
/// for which workload measures which metric).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.backbone_ms", "ms"),
    ("core.head_decode_us", "us"),
    ("core.int8_forward_ms", "ms"),
    ("core.calibrate_s", "s"),
    ("core.int8_build_s", "s"),
    ("core.int8_agree_iou", "ratio"),
    ("tensor.matmul.self_ms", "ms"),
    ("tensor.fused_fwd.self_ms", "ms"),
    ("tensor.pool_fwd.self_ms", "ms"),
    ("tensor.dwconv_fwd.self_ms", "ms"),
    ("skynet.reorg.self_ms", "ms"),
    ("skynet.concat.self_ms", "ms"),
    ("tensor.qmatmul.self_ms", "ms"),
    ("tensor.qdwconv3.self_ms", "ms"),
    ("tensor.qfused_fwd.self_ms", "ms"),
    ("skynet.int8.forward.self_ms", "ms"),
    ("tensor.matmul_a_bt.self_ms", "ms"),
    ("tensor.matmul_at_b.self_ms", "ms"),
    ("tensor.dwconv_bwd.self_ms", "ms"),
    ("tensor.pool_bwd.self_ms", "ms"),
    ("skynet.backward.self_ms", "ms"),
    ("core.train_batch_ms", "ms"),
    ("nn.sgd_step_ms", "ms"),
    ("fusion.fused_frac", "ratio"),
    ("alloc.calls_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("scratch.miss_bytes", "bytes"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.infer_ms.p50", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.rejected_frac", "ratio"),
    ("loadgen.late_ms.p99", "ms"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Program spans whose self time per operation is reported as
/// `<span>.self_ms`.
const SELF_TIME_SPANS: &[&str] = &[
    "tensor.matmul",
    "tensor.fused_fwd",
    "tensor.pool_fwd",
    "tensor.dwconv_fwd",
    "skynet.reorg",
    "skynet.concat",
    "tensor.qmatmul",
    "tensor.qdwconv3",
    "tensor.qfused_fwd",
    "skynet.int8.forward",
    "tensor.matmul_a_bt",
    "tensor.matmul_at_b",
    "tensor.dwconv_bwd",
    "tensor.pool_bwd",
    "skynet.backward",
];

/// Bundles one SkyNet-C forward runs. A float forward that cannot build
/// its fused plan counts one `fusion.fallback` for all of them.
const BUNDLES_PER_FORWARD: u64 = 6;

/// Marks one bench operation on the trace timeline.
pub const OP_SPAN: &str = "skybench.op";
/// Spans are drained from the program's bounded per-thread buffers
/// after this many traced operations.
pub const DRAIN_EVERY: usize = 64;
/// Pins the bench's clock to the trace timeline (see [`Traced::anchor_ns`]).
pub const ANCHOR_SPAN: &str = "skybench.anchor";

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records `name`, which must be one of [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|&(n, _)| n == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every declared metric, 0 where this workload recorded nothing.
    pub fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.0.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }
}

/// An open tracing window: telemetry, tracing and the allocation tap are
/// on from [`TraceWindow::open`] until [`TraceWindow::close`].
pub struct TraceWindow {
    spans: Vec<SpanRecord>,
    alloc0: AllocStats,
}

impl TraceWindow {
    pub fn open() -> Self {
        telemetry::Builder::new().metrics(true).trace(true).apply();
        alloc::enable(true);
        drop(telemetry::drain_spans());
        telemetry::reset_metrics();
        TraceWindow {
            spans: Vec::new(),
            alloc0: alloc::stats(),
        }
    }

    /// Moves the spans recorded so far out of the program's bounded
    /// per-thread buffers. Call only while no span is open on the
    /// calling thread, so no parent is split from its children.
    pub fn drain(&mut self) {
        self.spans.extend(telemetry::drain_spans());
    }

    pub fn close(mut self) -> Traced {
        self.drain();
        let alloc = alloc::stats().since(&self.alloc0);
        let snap = telemetry::snapshot();
        telemetry::Builder::new()
            .metrics(false)
            .trace(false)
            .apply();
        alloc::enable(false);
        Traced {
            spans: self.spans,
            alloc,
            snap,
        }
    }
}

/// What a closed tracing window recorded.
pub struct Traced {
    pub spans: Vec<SpanRecord>,
    pub alloc: AllocStats,
    pub snap: Snapshot,
}

impl Traced {
    pub fn counter(&self, name: &str) -> u64 {
        self.snap.counter(name).unwrap_or(0)
    }

    /// Quantile `q` of a program histogram, 0 when it recorded nothing.
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        self.snap
            .histograms
            .iter()
            .find(|h| h.name == name)
            .and_then(|h| h.quantile(q))
            .unwrap_or(0.0)
    }

    /// Mean of a program histogram, 0 when it recorded nothing.
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.snap
            .histograms
            .iter()
            .find(|h| h.name == name && h.count > 0)
            .map_or(0.0, |h| h.sum / h.count as f64)
    }

    /// Mean duration in ms of the program span `name`, 0 if absent.
    pub fn span_mean_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        crate::report::mean(&durs)
    }

    /// Trace-timeline start of the first [`ANCHOR_SPAN`].
    pub fn anchor_ns(&self) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == ANCHOR_SPAN)
            .map(|s| s.start_ns)
    }

    /// Intervals of the bench operations marked with [`OP_SPAN`].
    pub fn op_intervals(&self) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.name == OP_SPAN)
            .map(|s| (s.start_ns, s.end_ns()))
            .collect()
    }

    /// Fills the metrics every workload shares: span self times,
    /// allocations and scratch misses per operation, the fused share of
    /// bundles, and how much of the operations' wall time program spans
    /// cover.
    pub fn fill_common(&self, ops: u64, op_intervals: Vec<(u64, u64)>, v: &mut LayerValues) {
        let per_op = ops.max(1) as f64;
        let stats = telemetry::aggregate(&self.spans);
        for (&(metric, _), span) in LAYER_METRICS
            .iter()
            .filter(|(n, _)| n.ends_with(".self_ms"))
            .zip(SELF_TIME_SPANS)
        {
            let self_ns = stats
                .iter()
                .find(|s| s.name == *span)
                .map_or(0, |s| s.self_ns);
            v.set(metric, self_ns as f64 / per_op / 1e6);
        }
        v.set("alloc.calls_per_op", self.alloc.alloc_calls as f64 / per_op);
        v.set("alloc.bytes_per_op", self.alloc.alloc_bytes as f64 / per_op);
        v.set(
            "scratch.miss_bytes",
            self.counter("scratch.miss_bytes") as f64,
        );
        let fused =
            self.counter("fusion.bundles_executed") + self.counter("quant.fused.bundles_executed");
        let attempted = fused
            + BUNDLES_PER_FORWARD * self.counter("fusion.fallback")
            + self.counter("quant.fused.fallback");
        if attempted > 0 {
            v.set("fusion.fused_frac", fused as f64 / attempted as f64);
        }
        let program: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| !s.name.starts_with("skybench."))
            .map(|s| (s.start_ns, s.end_ns()))
            .collect();
        let ops_union = merge(op_intervals);
        let total: u64 = ops_union.iter().map(|&(a, b)| b - a).sum();
        if total > 0 {
            let covered = overlap(&merge(program), &ops_union);
            v.set("trace.coverage_frac", covered as f64 / total as f64);
        }
    }
}

/// Sorted, disjoint union of half-open intervals.
fn merge(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total length of the intersection of two merged interval lists.
fn overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut sum) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            sum += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_union_and_overlap() {
        let spans = merge(vec![(5, 8), (0, 2), (1, 3), (7, 10)]);
        assert_eq!(spans, vec![(0, 3), (5, 10)]);
        let ops = merge(vec![(2, 6), (9, 20)]);
        // [2,3) + [5,6) + [9,10)
        assert_eq!(overlap(&spans, &ops), 3);
    }

    #[test]
    fn self_time_metrics_line_up_with_their_spans() {
        let metrics: Vec<&str> = LAYER_METRICS
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| n.ends_with(".self_ms"))
            .collect();
        assert_eq!(metrics.len(), SELF_TIME_SPANS.len());
        for (m, s) in metrics.iter().zip(SELF_TIME_SPANS) {
            assert_eq!(m.strip_suffix(".self_ms"), Some(*s));
        }
    }

    #[test]
    fn unrecorded_metrics_read_zero() {
        let mut v = LayerValues::default();
        v.set("serve.submit_us", 2.5);
        let m = v.into_metrics();
        assert_eq!(m.len(), LAYER_METRICS.len());
        assert!(m.iter().all(|x| x.value
            == if x.name == "serve.submit_us" {
                2.5
            } else {
                0.0
            }));
    }
}
