//! Table 7 by **execution** — the analytic fake-quant schemes next to
//! the real INT8 engine.
//!
//! `table7` reproduces the paper's accuracy/precision trade-off
//! analytically: weights snap to an n-bit grid but every multiply stays
//! f32. This sweep adds the executable point: the same trained model is
//! calibrated post-training (`skynet_core::quant::Calibrator`), folded
//! into `i8` weights, and evaluated through the `i8×i8→i32` kernels end
//! to end. The INT8 IoU must land within a documented bound of the
//! closest analytic scheme (FM8/W8), and the integer forward pass must
//! be CRC-identical on every available SIMD backend — the determinism
//! contract, witnessed by the bench itself.
//!
//! PR 10 adds the **fused** execution row: the same engine with
//! `SKYNET_FUSION` forced on routes every bundle through the
//! cache-resident fused INT8 kernel
//! (`skynet_tensor::fused::qfused_bundle_forward`). Its end-to-end IoU
//! must be **bit-identical** to the unfused walk, with the
//! `quant.fused.*` counters proving the fused path actually executed
//! (and `quant.fused.fallback` proving the unfused control actually
//! didn't). A per-bundle saturation table (`quant.bundle<N>.*.saturated`)
//! rides along from the same telemetry snapshot.
//!
//! The **end-to-end speed gate** times the fused INT8 engine forward
//! against the fused f32 forward of the same trained model on the same
//! validation frames, interleaving the reps and comparing medians. At
//! the full budget on the `avx2` backend (what `auto` picks wherever
//! AVX2 exists) INT8 must be no slower than f32 (break-even); at
//! `SKYNET_BENCH_BUDGET=fast`, or under the scalar oracle, the ratio is
//! only reported.
//!
//! The report is archived under `bench_results/quant_sweep.md`.

use skynet_bench::runner::{train_detector, TRAIN_DIV};
use skynet_bench::{data, table, Budget};
use skynet_core::detector::Detector;
use skynet_core::quant::{CalibMethod, Calibrator, QuantizedSkyNet};
use skynet_core::skynet::{SkyNet, SkyNetConfig, Variant};
use skynet_core::trainer::evaluate_mode;
use skynet_core::Sample;
use skynet_hw::quant::{apply_scheme, QuantScheme};
use skynet_nn::{Act, Mode};
use skynet_tensor::crc32::crc32;
use skynet_tensor::rng::SkyRng;
use skynet_tensor::Tensor;
use skynet_tensor::{fusion, simd, telemetry};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Maximum allowed gap between the executable INT8 IoU and the closest
/// analytic scheme (FM8/W8). Both paths quantize the same trained
/// weights to 8 bits; they differ only in where rounding happens
/// (per-channel i8 grid + integer accumulation vs per-tensor fake-quant
/// + f32 arithmetic), so the accuracies must agree closely.
const INT8_VS_FAKE8_BOUND: f64 = 0.15;

fn stack_images(samples: &[&Sample]) -> Tensor {
    let imgs: Vec<Tensor> = samples.iter().map(|s| s.image.clone()).collect();
    Tensor::stack(&imgs).expect("stack images")
}

/// Mean validation IoU through the integer path — mirrors
/// `evaluate_mode`'s batching and sample-ordered reduction, but routes
/// through [`Detector::predict_int8`] (the `Mode`-based evaluator never
/// dispatches to the engine).
fn evaluate_int8(detector: &mut Detector, samples: &[Sample]) -> f32 {
    let mut total = 0.0f32;
    for chunk in samples.chunks(16) {
        let refs: Vec<&Sample> = chunk.iter().collect();
        let batch = stack_images(&refs);
        let dets = detector.predict_int8(&batch).expect("int8 predict");
        for (det, sample) in dets.iter().zip(chunk) {
            total += det.bbox.clamp_to_frame().iou(&sample.bbox);
        }
    }
    total / samples.len() as f32
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median milliseconds per forward of the fused INT8 engine and the
/// fused f32 backbone on the same `frames`, over `reps` interleaved
/// rep pairs (which path goes first alternates, so neither always runs
/// on a cache the other warmed). One untimed forward each builds the
/// f32 plan and fills the scratch arenas first.
fn time_int8_vs_f32(
    detector: &mut Detector,
    engine: &QuantizedSkyNet,
    frames: &Tensor,
    reps: usize,
) -> (f64, f64) {
    fusion::force(true);
    let f32_fwd = |d: &mut Detector| {
        let t = Instant::now();
        d.backbone_mut()
            .forward(frames, Mode::Eval)
            .expect("f32 forward");
        t.elapsed().as_secs_f64() * 1e3
    };
    let int8_fwd = || {
        let t = Instant::now();
        engine.forward(frames).expect("int8 forward");
        t.elapsed().as_secs_f64() * 1e3
    };
    f32_fwd(detector);
    int8_fwd();
    let (mut int8_ms, mut f32_ms) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        if rep % 2 == 0 {
            int8_ms.push(int8_fwd());
            f32_ms.push(f32_fwd(detector));
        } else {
            f32_ms.push(f32_fwd(detector));
            int8_ms.push(int8_fwd());
        }
    }
    (median(int8_ms), median(f32_ms))
}

fn tensor_crc(t: &Tensor) -> u32 {
    let bytes: Vec<u8> = t
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

fn main() {
    let budget = Budget::from_env();
    let (train, val) = data::detection_split(budget);

    // Train the float model once (same protocol and seed as `table7`).
    let mut rng = SkyRng::new(7);
    let cfg = SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(TRAIN_DIV);
    let trained = train_detector(
        Box::new(SkyNet::new(cfg, &mut rng)),
        budget,
        &train,
        &val,
        false,
        7,
    )
    .expect("training succeeds");
    let float_iou = trained.iou as f64;
    let mut detector = trained.detector;

    // Calibrate on training images and build the INT8 engine *before*
    // any fake-quant pass: `apply_scheme` mutates weights in place, and
    // the engine must fold the pristine float parameters.
    let calib_images = budget.pick(32, 128).min(train.len());
    let (plan, engine) = {
        let sky = detector
            .backbone_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<SkyNet>())
            .expect("backbone is a SkyNet");
        let mut cal = Calibrator::new(Variant::C, CalibMethod::MaxAbs);
        let refs: Vec<&Sample> = train.iter().take(calib_images).collect();
        for chunk in refs.chunks(8) {
            cal.observe(sky, &stack_images(chunk)).expect("calibrate");
        }
        let plan = cal.finish().expect("calibration plan");
        let engine = QuantizedSkyNet::build(sky, &plan).expect("build INT8 engine");
        (plan, engine)
    };
    let engine = Arc::new(engine);
    detector.attach_int8(Arc::clone(&engine));

    // Cross-backend determinism witness: the integer forward pass on a
    // fixed probe batch must be CRC-identical on every backend.
    let probe_refs: Vec<&Sample> = val.iter().take(4.min(val.len())).collect();
    let probe = stack_images(&probe_refs);
    let prev = simd::active();
    let mut crcs: Vec<(&'static str, u32)> = Vec::new();
    for be in simd::available_backends() {
        simd::force(be);
        let y = engine.forward(&probe).expect("int8 forward");
        crcs.push((be.name(), tensor_crc(&y)));
    }
    simd::force(prev);
    let oracle_crc = crcs[0].1;
    assert!(
        crcs.iter().all(|&(_, c)| c == oracle_crc),
        "INT8 forward CRCs diverge across backends: {crcs:?}"
    );

    // Fused vs unfused engine on the probe batch: CRC-identical
    // outputs, with counters proving each mode actually took its path
    // (bundles_executed for the fused run, fallback for the unfused
    // control — a vacuous pass can't show both).
    telemetry::Builder::new().metrics(true).trace(false).apply();
    let fused_probe = |on: bool| {
        fusion::force(on);
        telemetry::reset_metrics();
        let y = engine.forward(&probe).expect("int8 forward");
        (tensor_crc(&y), telemetry::snapshot())
    };
    let (crc_fused, snap_fused) = fused_probe(true);
    let (crc_unfused, snap_unfused) = fused_probe(false);
    assert_eq!(
        crc_fused, crc_unfused,
        "fused INT8 engine output diverged from the unfused walk"
    );
    let fused_bundles = engine.plan().fused_bundles() as u64;
    assert_eq!(
        snap_fused.counter("quant.fused.bundles_executed"),
        Some(fused_bundles),
        "fused probe did not execute every lowered bundle"
    );
    assert_eq!(
        snap_fused.counter("quant.fused.fallback").unwrap_or(0),
        0,
        "fused probe fell back"
    );
    assert_eq!(
        snap_unfused
            .counter("quant.fused.bundles_executed")
            .unwrap_or(0),
        0,
        "unfused control ran fused bundles"
    );
    assert_eq!(
        snap_unfused.counter("quant.fused.fallback"),
        Some(fused_bundles),
        "unfused control did not count its fallbacks"
    );
    let dram_saved = snap_fused
        .counter("quant.fused.dram_bytes_saved")
        .unwrap_or(0);

    // Evaluate end to end both ways: the fused row must reproduce the
    // unfused IoU to the bit. Metrics stay on through both evals so the
    // per-bundle saturation counters can be compared stage for stage.
    fusion::force(false);
    telemetry::reset_metrics();
    let int8_iou = evaluate_int8(&mut detector, &val) as f64;
    let unfused_snap = telemetry::snapshot();
    fusion::force(true);
    telemetry::reset_metrics();
    let int8_fused_iou = evaluate_int8(&mut detector, &val) as f64;
    let sat_snap = telemetry::snapshot();
    assert_eq!(
        int8_fused_iou.to_bits(),
        int8_iou.to_bits(),
        "fused INT8 IoU {int8_fused_iou} != unfused {int8_iou}"
    );

    // Per-stage saturation totals, archived in the report. Three claims
    // get asserted, each exactly as strong as the math supports:
    //  * fused and unfused evals count identical per-bundle totals —
    //    saturation sums are commutative, so the band schedule cannot
    //    change them;
    //  * the input-quantization stage saturates zero elements on the
    //    calibration images — MaxAbs sets the input scale from the
    //    maximum over those very images, so round(x/scale) ≤ 127 by
    //    construction;
    //  * bundle-stage totals are *reported*, not forced to zero: the
    //    integer engine's activations sit within quantization error of
    //    the float activations MaxAbs observed, so a handful of
    //    extreme-tail elements may clip even on calibration data.
    let sat_counts = |snap: &telemetry::Snapshot| -> Vec<(usize, u64, u64)> {
        (1..=6)
            .map(|b| {
                let g = |stage: &str| {
                    snap.counter(&format!("quant.bundle{b}.{stage}.saturated"))
                        .unwrap_or(0)
                };
                (b, g("dw"), g("pw"))
            })
            .collect()
    };
    let sat_rows = sat_counts(&sat_snap);
    let val_sat: u64 = sat_rows.iter().map(|&(_, d, p)| d + p).sum();
    assert_eq!(
        sat_rows,
        sat_counts(&unfused_snap),
        "per-bundle saturation totals depend on the fusion schedule"
    );

    telemetry::reset_metrics();
    let calib_refs: Vec<&Sample> = train.iter().take(calib_images).collect();
    for chunk in calib_refs.chunks(8) {
        engine.forward(&stack_images(chunk)).expect("int8 forward");
    }
    let calib_snap = telemetry::snapshot();
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
    assert_eq!(
        calib_snap.counter("quant.input.saturated").unwrap_or(0),
        0,
        "MaxAbs input scale saturated on its own calibration images"
    );
    let calib_sat_rows = sat_counts(&calib_snap);

    // End-to-end speed gate, on the pristine float weights (the
    // analytic rows below fake-quantize them in place) with telemetry
    // off: fused INT8 vs fused f32 on the same validation frames.
    let speed_refs: Vec<&Sample> = val.iter().take(16).collect();
    let speed_frames = stack_images(&speed_refs);
    let speed_reps = budget.pick(9, 41);
    let (int8_ms, f32_ms) = time_int8_vs_f32(&mut detector, &engine, &speed_frames, speed_reps);
    let speedup = f32_ms / int8_ms;
    println!(
        "end to end: fused INT8 {int8_ms:.3} ms vs fused f32 {f32_ms:.3} ms per forward \
         of {} frames (median of {speed_reps} interleaved reps): INT8 {speedup:.2}x",
        speed_refs.len()
    );
    // The gate binds the backend `auto` picks wherever AVX2 exists.
    // The scalar oracle loses to f32, so under it the ratio is only
    // reported.
    if budget == Budget::Full && simd::active() == simd::Backend::Avx2 {
        assert!(
            speedup >= 1.0,
            "fused INT8 forward ({int8_ms:.3} ms) is slower than fused f32 ({f32_ms:.3} ms)"
        );
    }

    // Analytic rows: Table 7's four schemes plus FM8/W8, the closest
    // analytic point to the executable engine. Snapshot/restore the
    // float weights between schemes (fake-quant mutates in place).
    let mut snapshot: Vec<Vec<f32>> = Vec::new();
    detector
        .backbone_mut()
        .visit_params(&mut |p| snapshot.push(p.value.as_slice().to_vec()));
    let schemes: [(QuantScheme, Option<f64>); 6] = [
        (QuantScheme::float32(), Some(0.741)),
        (QuantScheme::new(11, 9), Some(0.727)),
        (QuantScheme::new(10, 9), Some(0.714)),
        (QuantScheme::new(11, 8), Some(0.690)),
        (QuantScheme::new(10, 8), Some(0.680)),
        (QuantScheme::new(8, 8), None),
    ];
    let mut rows: Vec<(String, String, Option<f64>, f64)> = Vec::new();
    let mut fake8_iou = None;
    for (scheme, paper_iou) in schemes {
        let mut i = 0;
        detector.backbone_mut().visit_params(&mut |p| {
            p.value.as_mut_slice().copy_from_slice(&snapshot[i]);
            i += 1;
        });
        let mode = apply_scheme(detector.backbone_mut(), scheme);
        let iou = evaluate_mode(&mut detector, &val, 16, mode).expect("eval succeeds") as f64;
        if scheme == QuantScheme::new(8, 8) {
            fake8_iou = Some(iou);
        }
        rows.push((scheme.to_string(), "analytic".into(), paper_iou, iou));
    }
    rows.push((
        "INT8 engine (W8/FM8)".into(),
        "executable".into(),
        None,
        int8_iou,
    ));
    rows.push((
        "INT8 engine, fused".into(),
        "executable".into(),
        None,
        int8_fused_iou,
    ));

    let fake8_iou = fake8_iou.expect("FM8/W8 row evaluated");
    let gap = (int8_iou - fake8_iou).abs();
    assert!(
        gap <= INT8_VS_FAKE8_BOUND,
        "executable INT8 IoU {int8_iou:.3} deviates from analytic FM8/W8 \
         {fake8_iou:.3} by {gap:.3} (> {INT8_VS_FAKE8_BOUND})"
    );

    table::header(
        "Quantization sweep: analytic schemes vs executable INT8 (validation IoU)",
        &[
            ("scheme", 22),
            ("kind", 10),
            ("IoU(paper)", 10),
            ("IoU(ours)", 10),
            ("drop(ours)", 10),
        ],
    );
    for (name, kind, paper_iou, iou) in &rows {
        table::row(&[
            (name.clone(), 22),
            (kind.clone(), 10),
            (table::paper(*paper_iou, 3), 10),
            (table::f(*iou, 3), 10),
            (table::f(float_iou - iou, 3), 10),
        ]);
    }
    println!();
    println!(
        "INT8 vs analytic FM8/W8 gap: {gap:.3} (bound {INT8_VS_FAKE8_BOUND}); \
         calibration: {} samples, input scale {:.5}",
        plan.samples, plan.input_scale
    );
    println!(
        "fused row: bit-identical to unfused ({fused_bundles} bundles through the \
         fused kernel per forward, 0 fallbacks, {dram_saved} i8/i32 DRAM bytes \
         saved on the probe); saturations: {val_sat} over the val eval \
         (identical fused vs unfused), input stage 0 on the calibration \
         set (MaxAbs guarantee)"
    );

    // Archive the report.
    let mut report = String::new();
    let _ = writeln!(report, "# Quantization sweep (Table 7 by execution)\n");
    let _ = writeln!(
        report,
        "Variant C, width ÷{TRAIN_DIV}, budget {budget:?}. Float validation IoU {float_iou:.3}. \
         Analytic rows fake-quantize weights and feature maps but compute in f32; the \
         executable row runs the calibrated `i8×i8→i32` engine end to end \
         (per-channel weight scales, per-tensor activation scales from {} calibration \
         samples, MaxAbs).\n",
        plan.samples
    );
    let _ = writeln!(
        report,
        "| scheme | kind | IoU (paper) | IoU (ours) | drop |"
    );
    let _ = writeln!(report, "|---|---|---|---|---|");
    for (name, kind, paper_iou, iou) in &rows {
        let _ = writeln!(
            report,
            "| {name} | {kind} | {} | {iou:.3} | {:.3} |",
            table::paper(*paper_iou, 3),
            float_iou - iou
        );
    }
    let _ = writeln!(
        report,
        "\nExecutable INT8 vs analytic FM8/W8 gap: **{gap:.3}** (asserted ≤ {INT8_VS_FAKE8_BOUND}).\n"
    );
    let _ = writeln!(report, "## End-to-end INT8 vs f32\n");
    let _ = writeln!(
        report,
        "Median ms per forward of {} validation frames, fused INT8 engine vs fused \
         f32 backbone, {speed_reps} interleaved reps, SIMD backend `{}`. At the full \
         budget on `avx2` INT8 is asserted no slower than f32; at the fast budget \
         or under the scalar oracle the ratio is only reported.\n",
        speed_refs.len(),
        simd::active().name()
    );
    let _ = writeln!(report, "| path | ms/forward |");
    let _ = writeln!(report, "|---|---:|");
    let _ = writeln!(report, "| fused f32 | {f32_ms:.3} |");
    let _ = writeln!(report, "| fused INT8 | {int8_ms:.3} |");
    let _ = writeln!(report, "\nINT8 speed-up over f32: **{speedup:.2}×**.\n");
    let _ = writeln!(report, "## Cross-backend determinism\n");
    let _ = writeln!(
        report,
        "CRC-32 of the INT8 forward output on a fixed {}-image probe batch, per backend \
         (asserted identical):\n",
        probe_refs.len()
    );
    let _ = writeln!(report, "| backend | crc32 |");
    let _ = writeln!(report, "|---|---|");
    for (name, crc) in &crcs {
        let _ = writeln!(report, "| {name} | 0x{crc:08x} |");
    }
    let _ = writeln!(report, "\n## Fused INT8 execution\n");
    let _ = writeln!(
        report,
        "The fused row runs every bundle through the cache-resident \
         DW→requant→PW→requant tile kernel (`SKYNET_FUSION=on`); its \
         validation IoU is asserted bit-identical to the unfused walk. \
         Counters from the probe forward (asserted):\n"
    );
    let _ = writeln!(report, "| counter | fused run | unfused run |");
    let _ = writeln!(report, "|---|---:|---:|");
    for name in [
        "quant.fused.fwd_calls",
        "quant.fused.bundles_executed",
        "quant.fused.fallback",
        "quant.fused.dram_bytes_saved",
    ] {
        let _ = writeln!(
            report,
            "| `{name}` | {} | {} |",
            snap_fused.counter(name).unwrap_or(0),
            snap_unfused.counter(name).unwrap_or(0),
        );
    }
    let _ = writeln!(report, "\n## Per-bundle saturation (MaxAbs, fused eval)\n");
    let _ = writeln!(
        report,
        "Requant saturation totals from the \
         `quant.bundle<N>.{{dw,pw}}.saturated` counters, over the whole \
         fused validation eval and over a forward of the {calib_images} \
         calibration images. The sweep asserts that fused and unfused \
         evals count identical per-bundle totals (saturation sums are \
         commutative, so the band schedule cannot change them) and that \
         the input-quantization stage saturates zero elements on the \
         calibration images (MaxAbs sets the input scale from the \
         maximum over those very images). Bundle-stage counts are \
         archived rather than forced to zero: the integer engine's \
         activations sit within quantization error of the float \
         activations MaxAbs observed, so a handful of extreme-tail \
         elements may clip.\n"
    );
    let _ = writeln!(report, "| bundle | val dw | val pw | calib dw | calib pw |");
    let _ = writeln!(report, "|---|---:|---:|---:|---:|");
    for (&(b, dw, pw), &(_, cdw, cpw)) in sat_rows.iter().zip(&calib_sat_rows) {
        let _ = writeln!(report, "| {b} | {dw} | {pw} | {cdw} | {cpw} |");
    }
    std::fs::create_dir_all("bench_results").expect("create bench_results/");
    std::fs::write("bench_results/quant_sweep.md", &report).expect("write report");
    println!("report written to bench_results/quant_sweep.md");
}
