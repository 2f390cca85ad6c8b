//! Determinism contract of the telemetry layer.
//!
//! The metrics a workload emits about *deterministic quantities* (call
//! counts, FLOP totals, histograms of computed values) must be
//! bit-identical whether the kernels run on the worker pool or fully
//! inline (`parallel::serial`, equivalent to `SKYNET_THREADS=1`).
//! Scheduling metrics (`pool.*`) and wall-clock histograms are
//! explicitly outside that guarantee and are filtered out with
//! [`telemetry::Snapshot::retain`] before comparison.
//!
//! The telemetry registry and enable flags are process-global, so every
//! test here serialises on one mutex.

use skynet_tensor::conv::{conv2d, conv2d_backward, ConvGeometry};
use skynet_tensor::dwconv::{dwconv2d, dwconv2d_backward};
use skynet_tensor::pool::{maxpool2d, maxpool2d_backward};
use skynet_tensor::rng::SkyRng;
use skynet_tensor::{parallel, telemetry, Shape, Tensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn rand_tensor(shape: Shape, rng: &mut SkyRng) -> Tensor {
    let data = (0..shape.numel()).map(|_| rng.range(-1.0, 1.0)).collect();
    Tensor::from_vec(shape, data).expect("rand tensor")
}

/// Fixed-seed workload exercising every instrumented kernel, plus a
/// histogram fed with computed (deterministic) output values.
fn workload() {
    let mut rng = SkyRng::new(7);
    let x = rand_tensor(Shape::new(2, 8, 16, 16), &mut rng);

    // Dense 3x3 conv, forward + backward.
    let geo = ConvGeometry::new(3, 1, 1);
    let w = rand_tensor(Shape::new(12, 8, 3, 3), &mut rng);
    let y = conv2d(&x, &w, None, geo).expect("conv fwd");
    conv2d_backward(&x, &w, &y, geo).expect("conv bwd");

    // Pointwise 1x1 conv.
    let wp = rand_tensor(Shape::new(16, 8, 1, 1), &mut rng);
    conv2d(&x, &wp, None, ConvGeometry::new(1, 1, 0)).expect("pw fwd");

    // Depthwise conv, forward + backward.
    let wd = rand_tensor(Shape::new(8, 1, 3, 3), &mut rng);
    let dgeo = ConvGeometry::new(3, 1, 1);
    let yd = dwconv2d(&x, &wd, None, dgeo).expect("dw fwd");
    dwconv2d_backward(&x, &wd, &yd, dgeo).expect("dw bwd");

    // Max-pool, forward + backward.
    let p = maxpool2d(&x, 2).expect("pool fwd");
    maxpool2d_backward(x.shape(), &p.argmax, &p.output).expect("pool bwd");

    // Histogram over computed values: deterministic outputs must yield
    // bit-identical bucket counts and sums regardless of thread count.
    if telemetry::metrics_enabled() {
        let h = telemetry::histogram("test.conv.values", &[-0.5, 0.0, 0.5, 1.0]);
        for &v in y.as_slice().iter().take(512) {
            h.record(f64::from(v));
        }
    }
}

fn deterministic_families(s: telemetry::Snapshot) -> telemetry::Snapshot {
    s.retain(|name| name.starts_with("tensor.") || name.starts_with("test."))
}

#[test]
fn metrics_identical_serial_vs_pooled() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::Builder::new().metrics(true).trace(false).apply();

    telemetry::reset_metrics();
    workload(); // default pool
    let pooled = deterministic_families(telemetry::snapshot());

    telemetry::reset_metrics();
    parallel::serial(workload); // forced inline, as SKYNET_THREADS=1
    let serial = deterministic_families(telemetry::snapshot());

    assert!(
        !pooled.counters.is_empty(),
        "workload registered no tensor.* counters"
    );
    assert!(
        pooled
            .histograms
            .iter()
            .any(|h| h.name == "test.conv.values"),
        "value histogram missing"
    );
    assert_eq!(pooled, serial, "deterministic metric families diverged");

    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

#[test]
fn spans_preserve_completion_order_within_thread() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::Builder::new().metrics(false).trace(true).apply();
    telemetry::drain_spans();

    workload();
    let spans = telemetry::drain_spans();
    assert!(!spans.is_empty(), "trace produced no spans");

    // Group by thread; within a thread the seq field must record strictly
    // increasing completion order, and completion times must be monotone
    // when replayed in that order.
    let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let mut per: Vec<_> = spans.iter().filter(|s| s.thread == t).collect();
        per.sort_by_key(|s| s.seq);
        for pair in per.windows(2) {
            assert!(
                pair[0].seq < pair[1].seq,
                "duplicate seq {} on thread {t}",
                pair[0].seq
            );
            assert!(
                pair[0].end_ns() <= pair[1].end_ns(),
                "span {} (seq {}) completed after {} (seq {}) but was recorded first",
                pair[0].name,
                pair[0].seq,
                pair[1].name,
                pair[1].seq
            );
        }
    }

    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
    telemetry::reset_metrics();
    telemetry::drain_spans();

    workload();

    let snap = deterministic_families(telemetry::snapshot());
    // Counter handles may exist from earlier runs, but nothing new is
    // recorded and no spans are buffered.
    assert!(snap.counters.iter().all(|&(_, v)| v == 0));
    assert!(snap.histograms.iter().all(|h| h.count == 0));
    assert!(telemetry::drain_spans().is_empty());
}

/// Pins [`telemetry::aggregate`]'s self-time attribution on the span
/// shapes the fused executor and the INT8 engine produce:
/// `fused.bundleN` wrapping `tensor.fused_fwd` wrapping `tensor.matmul`,
/// and `skynet.int8.forward` wrapping its per-stage spans (quantize,
/// fused bundles, pool, reorg, concat, the head's matmul and dequant).
/// Each nanosecond must be charged to exactly one op (the innermost
/// enclosing span) — a parent must **not** also be billed for its
/// children, and self times must partition the traced wall time
/// exactly.
#[test]
fn aggregate_does_not_double_count_fused_nesting() {
    let rec = |name: &'static str, thread: u32, seq: u64, start_ns: u64, dur_ns: u64| {
        telemetry::SpanRecord {
            name,
            thread,
            seq,
            start_ns,
            dur_ns,
        }
    };
    // Thread 0: two sequential fused bundles, each with the executor
    // span and a nested matmul; thread 1 replays bundle 1 concurrently
    // (same names, same wall window) to pin per-thread reconstruction.
    let spans = vec![
        rec("tensor.matmul", 0, 1, 20, 30),
        rec("tensor.fused_fwd", 0, 2, 10, 80),
        rec("fused.bundle1", 0, 3, 0, 100),
        rec("tensor.matmul", 0, 4, 130, 10),
        rec("tensor.fused_fwd", 0, 5, 120, 40),
        rec("fused.bundle2", 0, 6, 100, 70),
        rec("tensor.matmul", 1, 1, 20, 30),
        rec("tensor.fused_fwd", 1, 2, 10, 80),
        rec("fused.bundle1", 1, 3, 0, 100),
    ];
    let stats = telemetry::aggregate(&spans);
    let self_ns = |name: &str| {
        stats
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing op {name}"))
            .self_ns
    };
    // Parents are charged only for time outside their children.
    assert_eq!(self_ns("fused.bundle1"), 2 * (100 - 80));
    assert_eq!(self_ns("fused.bundle2"), 70 - 40);
    assert_eq!(self_ns("tensor.fused_fwd"), 2 * (80 - 30) + (40 - 10));
    assert_eq!(self_ns("tensor.matmul"), 2 * 30 + 10);
    // Self times partition the traced intervals: thread 0 covers
    // [0, 170), thread 1 covers [0, 100) — nothing counted twice.
    let total_self: u64 = stats.iter().map(|s| s.self_ns).sum();
    assert_eq!(total_self, 170 + 100);
    // Inclusive totals still report the full per-op durations.
    let bundle1 = stats.iter().find(|s| s.name == "fused.bundle1").unwrap();
    assert_eq!(bundle1.calls, 2);
    assert_eq!(bundle1.total_ns, 200);

    // Thread 2: one INT8 forward over [0, 100). Every stage span is a
    // direct child of `skynet.int8.forward`; the head's matmul and
    // dequant are siblings, and an unfused bundle's `tensor.qrequant`
    // follows its `tensor.qdwconv3` without nesting in it.
    let int8 = vec![
        rec("tensor.qquantize", 2, 1, 2, 8),
        rec("tensor.qfused_fwd", 2, 2, 10, 30),
        rec("tensor.qpool", 2, 3, 41, 4),
        rec("tensor.qreorg", 2, 4, 46, 3),
        rec("tensor.qdwconv3", 2, 5, 50, 10),
        rec("tensor.qrequant", 2, 6, 60, 5),
        rec("tensor.qconcat", 2, 7, 66, 3),
        rec("tensor.qmatmul", 2, 8, 70, 6),
        rec("tensor.qdequant", 2, 9, 80, 9),
        rec("skynet.int8.forward", 2, 10, 0, 100),
    ];
    let stats = telemetry::aggregate(&int8);
    let self_ns = |name: &str| {
        stats
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing op {name}"))
            .self_ns
    };
    let stages: u64 = 8 + 30 + 4 + 3 + 10 + 5 + 6 + 3 + 9;
    assert_eq!(self_ns("skynet.int8.forward"), 100 - stages);
    for (name, dur) in [
        ("tensor.qquantize", 8),
        ("tensor.qfused_fwd", 30),
        ("tensor.qpool", 4),
        ("tensor.qreorg", 3),
        ("tensor.qconcat", 3),
        ("tensor.qrequant", 5),
        ("tensor.qdequant", 9),
    ] {
        assert_eq!(self_ns(name), dur, "{name}");
    }
    let total_self: u64 = stats.iter().map(|s| s.self_ns).sum();
    assert_eq!(total_self, 100, "stage spans counted once");
}
