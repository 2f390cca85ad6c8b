//! `serve_poisson`: open-loop Poisson arrivals at 50 rps over 8 streams
//! into a `ServeEngine` with `ServeConfig::default()` and real inference
//! on 160×320 frames.
//!
//! Each request is timed from when it was due, not from when `submit`
//! was called, so a stalled generator or engine charges its wait to
//! every later request (the open-loop rule); how late the sends went out
//! is reported as `loadgen.late_ms.p99`.

use crate::inputs::{blueprint, frames, same_detection, spawn, FRAME_H, FRAME_W};
use crate::layers::{LayerValues, TraceWindow, ANCHOR_SPAN, DRAIN_EVERY};
use crate::report::{
    mean, peak_rss_mb, percentile, setup_median, sorted, timed_setup, Outcome, SETUP_REPS_BEFORE,
};
use crate::timing::{overhead, EndToEnd};
use skynet_core::head::Detection;
use skynet_core::Sample;
use skynet_serve::engine::{Admission, Outcome as Answer, Response, ServeConfig, ServeEngine};
use skynet_serve::loadgen::LoadSpec;
use skynet_tensor::telemetry;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, fixed in absolute terms: about a sixth of what two
/// replicas serve on a 2-core x86-64 host, so the engine runs below
/// capacity and any rejection is a finding. About a quarter of the
/// requests still overlap another in flight. At 100 rps most requests
/// overlap, and with one core taken by a busy loop `p50_ms` rose 84%,
/// against 37% at 50 rps (see `skybench/README.md`, Steadiness).
const RATE_RPS: f64 = 50.0;
const STREAMS: u64 = 8;
const FRAMES: usize = 32;
/// Requests answered one at a time before the schedule starts.
const WARMUP_REQUESTS: usize = 16;
/// Warm-up bursts of `replicas × max_batch` requests sent at once, so
/// every replica runs full batches side by side before timing. The
/// process's peak resident set is then the footprint of the engine at
/// its configured batch limit, not of whichever burst the host's
/// scheduling happened to build up during the timed phase.
const WARMUP_BURSTS: usize = 10;
/// A request is on time if served within this limit of its due time.
const SLO_MS: f64 = 50.0;
/// p99 with ≥10 samples beyond it needs ≥1000 served requests (20 s of
/// schedule at 50 rps).
const TAIL_Q: f64 = 0.99;
struct Built {
    engine: ServeEngine,
    frames: Vec<Sample>,
}

/// Blueprint, frames, engine start, and one answered request per
/// replica (each builds its fused plan and fills its arenas).
fn build(seed: u64) -> Result<Built, String> {
    let bp = blueprint();
    let frames = frames(seed, FRAMES, FRAME_H, FRAME_W);
    let cfg = ServeConfig::default();
    let engine = ServeEngine::start(&bp, &cfg).map_err(|e| e.to_string())?;
    ask(&engine, &frames, cfg.replicas, 1)?;
    Ok(Built { engine, frames })
}

/// Sends `n` requests in bursts of `burst`, each burst after every
/// answer to the previous one.
fn ask(engine: &ServeEngine, frames: &[Sample], n: usize, burst: usize) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    for start in (0..n).step_by(burst) {
        let end = (start + burst).min(n);
        for i in start..end {
            engine.submit(i as u64, frames[i % frames.len()].image.clone(), &tx);
        }
        for _ in start..end {
            rx.recv_timeout(Duration::from_secs(30))
                .map_err(|_| "a warm-up request got no answer".to_string())?;
        }
    }
    Ok(())
}

/// One scheduled request as the generator sent it.
struct Sent {
    /// Engine-clock time it was due.
    due_us: u64,
    frame: usize,
    late_ms: f64,
    submit_us: f64,
    rejected: bool,
    traced: bool,
}

pub fn run(seed: u64, seconds: f64, trace: bool, corrupt: bool) -> Result<Outcome, String> {
    let teardown = |b: Built| drop(b.engine.shutdown());
    let (built, setup_before) = timed_setup(SETUP_REPS_BEFORE, || build(seed), teardown)?;
    let Built { engine, frames } = built;

    // Reference answers: batch-1 `Detector::predict` of every frame.
    let mut det = spawn(&blueprint())?;
    let mut reference: Vec<Detection> = Vec::with_capacity(frames.len());
    for s in &frames {
        let d = det.predict(&s.image).map_err(|e| e.to_string())?;
        reference.push(d[0]);
    }
    ask(&engine, &frames, WARMUP_REQUESTS, 1)?;
    let cfg = ServeConfig::default();
    let full = cfg.replicas * cfg.batch.max_batch;
    ask(&engine, &frames, WARMUP_BURSTS * full, full)?;

    // Scaling the Poisson schedule so its last arrival lands at exactly
    // `seconds` conditions it on its count: arrivals stay uniformly
    // scattered, and every run offers exactly RATE_RPS.
    let requests = (RATE_RPS * seconds).ceil() as usize;
    let window_us = seconds * 1e6;
    let mut schedule = LoadSpec::poisson(requests, RATE_RPS, STREAMS).schedule(seed);
    let scale = window_us / schedule.last().map_or(1, |a| a.at_us.max(1)) as f64;
    for a in &mut schedule {
        a.at_us = (a.at_us as f64 * scale) as u64;
    }
    let trace_from_us = if trace {
        (seconds / 3.0 * 1e6) as u64
    } else {
        u64::MAX
    };
    let (tx, rx) = mpsc::channel::<Response>();
    let first_id = engine.counters().submitted;
    let mut window: Option<TraceWindow> = None;
    let mut anchor_us = 0;
    let mut sent = Vec::with_capacity(schedule.len());
    let t0 = Instant::now();
    let t0_us = engine.now_us();
    for a in &schedule {
        let traced = a.at_us >= trace_from_us;
        if traced && window.is_none() {
            window = Some(TraceWindow::open());
            let _anchor = telemetry::span(ANCHOR_SPAN);
            anchor_us = engine.now_us();
        }
        let due = t0 + Duration::from_micros(a.at_us);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        let frame = (a.image_seed % FRAMES as u64) as usize;
        let image = frames[frame].image.clone();
        let t = Instant::now();
        let admission = engine.submit(a.stream, image, &tx);
        let submit_us = t.elapsed().as_secs_f64() * 1e6;
        sent.push(Sent {
            due_us: t0_us + a.at_us,
            frame,
            late_ms,
            submit_us,
            rejected: admission == Admission::Rejected,
            traced,
        });
        if let Some(w) = window.as_mut() {
            if sent.len() % DRAIN_EVERY == 0 {
                w.drain();
            }
        }
    }
    let report = engine.shutdown();
    let traced_window = window.map(TraceWindow::close);
    let peak_rss_mb = peak_rss_mb();

    // Gate: exactly one outcome per request, nothing lost.
    let responses: Vec<Response> = rx.try_iter().collect();
    let c = report.counters;
    if c.lost() != 0 {
        return Err(format!("serve_poisson: {} requests lost", c.lost()));
    }
    let mut by_id: Vec<Option<Response>> = vec![None; sent.len()];
    for r in responses {
        let slot =
            r.id.checked_sub(first_id)
                .and_then(|i| by_id.get_mut(i as usize))
                .ok_or_else(|| format!("serve_poisson: answer for unknown request {}", r.id))?;
        if slot.replace(r).is_some() {
            return Err("serve_poisson: a request was answered twice".into());
        }
    }
    let mut answers = Vec::with_capacity(sent.len());
    for (i, r) in by_id.into_iter().enumerate() {
        answers.push(r.ok_or_else(|| format!("serve_poisson: request {i} got no answer"))?);
    }

    // Gate: every served detection equals the batch-1 reference.
    let mut mismatched = 0u64;
    let mut failed = 0u64;
    let (mut lat_untraced, mut lat_traced, mut lat_all) = (Vec::new(), Vec::new(), Vec::new());
    let mut slo_met = 0u64;
    let mut last_done_us = t0_us;
    let mut corrupt_next = corrupt;
    for (s, r) in sent.iter().zip(&answers) {
        match r.outcome {
            Answer::Served(mut d) => {
                if std::mem::take(&mut corrupt_next) {
                    d.confidence = f32::from_bits(d.confidence.to_bits() ^ 1);
                }
                if !same_detection(&d, &reference[s.frame]) {
                    mismatched += 1;
                    continue;
                }
                let ms = r.done_us.saturating_sub(s.due_us) as f64 / 1e3;
                slo_met += u64::from(ms <= SLO_MS);
                last_done_us = last_done_us.max(r.done_us);
                lat_all.push(ms);
                if s.traced {
                    lat_traced.push(ms);
                } else {
                    lat_untraced.push(ms);
                }
            }
            Answer::Degraded(_) | Answer::Shed(_) => failed += 1,
        }
    }
    if mismatched > 0 {
        return Err(format!(
            "serve_poisson: {mismatched} served detections differ from batch-1 predict"
        ));
    }
    let late: Vec<f64> = sent
        .iter()
        .filter(|s| s.traced == trace)
        .map(|s| s.late_ms)
        .collect();
    let late_p99 = percentile(&sorted(late), 0.99);
    let mut notes = vec![
        ("loadgen_late_ms_p99", format!("{late_p99:.3}")),
        ("degraded", c.degraded.to_string()),
        ("shed", c.shed.to_string()),
    ];
    let attempted = sent.len() as u64;

    let metrics = match traced_window {
        None => {
            let wall_s = (last_done_us - t0_us) as f64 / 1e6;
            EndToEnd {
                setup_s: setup_median(setup_before, || build(seed), teardown)?,
                peak_rss_mb,
                throughput: lat_all.len() as f64 / wall_s.max(seconds),
                lat_ms: lat_all,
                tail_q: TAIL_Q,
                slo_met_frac: slo_met as f64 / attempted as f64,
            }
            .into_metrics(&mut notes)
        }
        Some(tr) => {
            let phase: Vec<(&Sent, &Response)> = sent
                .iter()
                .zip(&answers)
                .filter(|(s, _)| s.traced)
                .collect();
            let anchor_ns = tr.anchor_ns().ok_or("the trace lost its anchor span")?;
            let to_ns =
                |us: u64| anchor_ns.saturating_add_signed((us as i64 - anchor_us as i64) * 1000);
            let ops = phase
                .iter()
                .filter(|(_, r)| matches!(r.outcome, Answer::Served(_)))
                .map(|(s, r)| (to_ns(s.due_us), to_ns(r.done_us)))
                .collect();
            let mut v = LayerValues::default();
            tr.fill_common(phase.len() as u64, ops, &mut v);
            let submit: Vec<f64> = phase.iter().map(|(s, _)| s.submit_us).collect();
            let rejected = phase.iter().filter(|(s, _)| s.rejected).count();
            v.set("serve.submit_us", mean(&submit));
            v.set(
                "serve.queue_wait_ms.p50",
                tr.hist_quantile("serve.queue_wait.ms", 0.5),
            );
            v.set(
                "serve.queue_wait_ms.p99",
                tr.hist_quantile("serve.queue_wait.ms", 0.99),
            );
            v.set(
                "serve.infer_ms.p50",
                tr.hist_quantile("serve.infer.ms", 0.5),
            );
            v.set("serve.batch_size.mean", tr.hist_mean("serve.batch.size"));
            v.set(
                "serve.rejected_frac",
                rejected as f64 / phase.len().max(1) as f64,
            );
            v.set("core.backbone_ms", tr.span_mean_ms("skynet.forward"));
            v.set("loadgen.late_ms.p99", late_p99);
            v.set("trace.overhead_frac", overhead(&lat_untraced, &lat_traced));
            v.into_metrics()
        }
    };
    Ok(Outcome {
        correct: true,
        attempted,
        failed,
        metrics,
        notes,
    })
}
