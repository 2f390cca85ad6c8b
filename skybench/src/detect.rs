//! `detect_f32` and `detect_int8`: one frame in, detections out. One
//! client, batch 1, closed loop over 160×320 DAC-SDC frames.

use crate::inputs::{blueprint, crc, frames, same_detection, spawn, FRAME_H, FRAME_W};
use crate::report::{mean, peak_rss_mb, setup_median, timed_setup, Outcome, SETUP_REPS_BEFORE};
use crate::timing::{closed_layers, closed_loop, EndToEnd, Measured, Step};
use skynet_core::detector::Detector;
use skynet_core::head::{decode_best, Detection};
use skynet_core::quant::{CalibMethod, Calibrator, QuantizedSkyNet};
use skynet_core::skynet::{SkyNet, Variant};
use skynet_core::Sample;
use skynet_nn::{apply_params, Mode};
use skynet_tensor::rng::SkyRng;
use skynet_tensor::{fusion, simd, telemetry, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// Distinct timed frames, cycled through by the closed loop.
const FRAMES: usize = 32;
/// Calibration frames, drawn from their own seed so none is timed.
const CALIB_FRAMES: usize = 16;
const CALIB_SEED_SALT: u64 = 0xCA11_B8A7;
/// Frames the correctness gates run on.
const PROBE_FRAMES: usize = 4;
/// Latency limit: one frame period of 30 fps video.
const SLO_MS: f64 = 1000.0 / 30.0;
/// p99 with ≥10 samples beyond it needs ≥1000 frames; both detect
/// workloads time more than that in one run.
const TAIL_Q: f64 = 0.99;

struct Built {
    det: Detector,
    frames: Vec<Sample>,
    int8: Option<Arc<QuantizedSkyNet>>,
    calibrate_s: f64,
    int8_build_s: f64,
}

/// Model, frames and (for INT8) calibration and engine build, then the
/// first inference, which builds the fused plan and fills the arenas.
fn build(seed: u64, int8: bool) -> Result<Built, String> {
    let bp = blueprint();
    let mut det = spawn(&bp)?;
    let timed = frames(seed, FRAMES, FRAME_H, FRAME_W);
    let (mut calibrate_s, mut int8_build_s, mut engine) = (0.0, 0.0, None);
    if int8 {
        let t = Instant::now();
        let calib = frames(seed ^ CALIB_SEED_SALT, CALIB_FRAMES, FRAME_H, FRAME_W);
        let mut net = SkyNet::new(bp.config().clone(), &mut SkyRng::new(0));
        apply_params(&mut net, bp.weights()).map_err(|e| e.to_string())?;
        let mut cal = Calibrator::new(Variant::C, CalibMethod::MaxAbs);
        for s in &calib {
            cal.observe(&mut net, &s.image).map_err(|e| e.to_string())?;
        }
        let plan = cal.finish().map_err(|e| e.to_string())?;
        calibrate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let q = Arc::new(QuantizedSkyNet::build(&net, &plan).map_err(|e| e.to_string())?);
        int8_build_s = t.elapsed().as_secs_f64();
        det.attach_int8(Arc::clone(&q));
        engine = Some(q);
    }
    det.predict(&timed[0].image).map_err(|e| e.to_string())?;
    Ok(Built {
        det,
        frames: timed,
        int8: engine,
        calibrate_s,
        int8_build_s,
    })
}

fn forward_crc(det: &mut Detector, x: &Tensor, corrupt: bool) -> Result<u32, String> {
    let pred = det
        .backbone_mut()
        .forward(x, Mode::Eval)
        .map_err(|e| e.to_string())?;
    Ok(crc(pred.as_slice(), corrupt))
}

/// detect_f32 gate: the fused plan's output equals the unfused oracle's
/// bit for bit on the probe frames, and no forward fell back.
fn gate_f32(det: &mut Detector, probes: &[Sample], corrupt: bool) -> Result<(), String> {
    let was_on = fusion::enabled();
    let mut result = Ok(());
    for (i, s) in probes.iter().enumerate() {
        fusion::force(true);
        let fused = forward_crc(det, &s.image, corrupt)?;
        fusion::force(false);
        let unfused = forward_crc(det, &s.image, false)?;
        if fused != unfused {
            result = Err(format!(
                "detect_f32: fused output CRC {fused:08x} != unfused {unfused:08x} on probe frame {i}"
            ));
            break;
        }
    }
    fusion::force(was_on);
    result?;
    let fallback = telemetry::counter("fusion.fallback").value();
    if fallback != 0 {
        return Err(format!(
            "detect_f32: {fallback} forwards fell back from the fused plan"
        ));
    }
    Ok(())
}

/// detect_int8 gate: the INT8 output is bit-identical on every SIMD
/// backend this CPU runs. Returns the shared CRC.
fn gate_int8(engine: &QuantizedSkyNet, probes: &[Sample], corrupt: bool) -> Result<u32, String> {
    let images: Vec<Tensor> = probes.iter().map(|s| s.image.clone()).collect();
    let batch = Tensor::stack(&images).map_err(|e| e.to_string())?;
    let active = simd::active();
    let backends = simd::available_backends();
    let mut crcs = Vec::with_capacity(backends.len());
    for (i, &be) in backends.iter().enumerate() {
        simd::force(be);
        let out = engine.forward(&batch).map_err(|e| e.to_string())?;
        crcs.push((be, crc(out.as_slice(), corrupt && i + 1 == backends.len())));
    }
    simd::force(active);
    let (first_be, first) = crcs[0];
    for &(be, c) in &crcs[1..] {
        if c != first {
            return Err(format!(
                "detect_int8: output CRC {c:08x} on {} != {first:08x} on {}",
                be.name(),
                first_be.name()
            ));
        }
    }
    Ok(first)
}

fn predict_one(det: &mut Detector, x: &Tensor) -> Result<Detection, String> {
    det.predict(x)
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or_else(|| "predict returned no detection".to_string())
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    int8: bool,
    corrupt: bool,
) -> Result<Outcome, String> {
    let (built, setup_before) = timed_setup(SETUP_REPS_BEFORE, || build(seed, int8), drop)?;
    let Built {
        mut det,
        frames,
        int8: engine,
        calibrate_s,
        int8_build_s,
    } = built;
    let probes = &frames[..PROBE_FRAMES];
    let mut notes = Vec::new();
    match &engine {
        None => gate_f32(&mut det, probes, corrupt)?,
        Some(q) => notes.push((
            "int8_crc",
            format!("{:08x}", gate_int8(q, probes, corrupt)?),
        )),
    }

    // Reference answers, one per frame; this pass also warms the loop.
    let expected = frames
        .iter()
        .map(|s| predict_one(&mut det, &s.image))
        .collect::<Result<Vec<_>, _>>()?;
    let mut agree_iou = 0.0;
    if engine.is_some() {
        let mut ious = Vec::with_capacity(frames.len());
        for (s, q) in frames.iter().zip(&expected) {
            let f = det
                .predict_mode(&s.image, Mode::Eval)
                .map_err(|e| e.to_string())?;
            ious.push(f64::from(q.bbox.iou(&f[0].bbox)));
        }
        agree_iou = mean(&ious);
        notes.push(("int8_agree_iou", format!("{agree_iou:.4}")));
    }

    let anchors = det.anchors().clone();
    let mut k = 0usize;
    let mut op = || -> Result<Step, String> {
        let i = k % frames.len();
        k += 1;
        let x = &frames[i].image;
        if !trace {
            let d = predict_one(&mut det, x)?;
            return Ok(Step {
                parts: [0.0; 2],
                ok: same_detection(&d, &expected[i]),
            });
        }
        // Traced run: the same work as `Detector::predict`, with the
        // backbone and the head decode timed apart.
        let t = Instant::now();
        let pred = match &engine {
            Some(q) => q.forward(x),
            None => det.backbone_mut().forward(x, Mode::Eval),
        }
        .map_err(|e| e.to_string())?;
        let backbone_ms = crate::report::ms_since(t);
        let t = Instant::now();
        let d = decode_best(&pred, &anchors).map_err(|e| e.to_string())?;
        let decode_ms = crate::report::ms_since(t);
        Ok(Step {
            parts: [backbone_ms, decode_ms],
            ok: d.first().is_some_and(|d| same_detection(d, &expected[i])),
        })
    };
    let (phase, metrics) = match closed_loop(seconds, trace, &mut op)? {
        Measured::EndToEnd(phase) => {
            let peak_rss_mb = peak_rss_mb();
            let wall_rate = phase.ops() as f64 / phase.wall_s;
            notes.push(("wall_rate_per_s", format!("{wall_rate:.3}")));
            let metrics = EndToEnd {
                setup_s: setup_median(setup_before, || build(seed, int8), drop)?,
                peak_rss_mb,
                lat_ms: phase.lat_ms.clone(),
                tail_q: TAIL_Q,
                throughput: phase.rate_per_s(1.0),
                slo_met_frac: phase.slo_met(SLO_MS),
            }
            .into_metrics(&mut notes);
            (phase, metrics)
        }
        Measured::Traced {
            untraced,
            traced,
            trace,
        } => {
            let mut v = closed_layers(&untraced, &traced, &trace);
            let forward = if engine.is_some() {
                "core.int8_forward_ms"
            } else {
                "core.backbone_ms"
            };
            v.set(forward, traced.part_mean_ms(0));
            v.set("core.head_decode_us", traced.part_mean_ms(1) * 1e3);
            if engine.is_some() {
                v.set("core.calibrate_s", calibrate_s);
                v.set("core.int8_build_s", int8_build_s);
                v.set("core.int8_agree_iou", agree_iou);
            }
            (traced, v.into_metrics())
        }
    };
    Ok(Outcome {
        correct: phase.failed() == 0,
        attempted: phase.ops(),
        failed: phase.failed(),
        metrics,
        notes,
    })
}
