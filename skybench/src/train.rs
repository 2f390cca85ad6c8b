//! `train_step`: a closed loop of SGD steps (momentum 0.9) on batches
//! of 8 frames at 48×96, model C ÷8, following the repository's
//! detector-training protocol.

use crate::inputs::{blueprint, frames, spawn};
use crate::report::{ms_since, peak_rss_mb, setup_median, timed_setup, Outcome, SETUP_REPS_BEFORE};
use crate::timing::{closed_layers, closed_loop, EndToEnd, Measured, Step};
use skynet_core::checkpoint::weight_hash;
use skynet_core::detector::Detector;
use skynet_core::BBox;
use skynet_nn::{LrSchedule, Sgd};
use skynet_tensor::Tensor;
use std::time::Instant;

const TRAIN_H: usize = 48;
const TRAIN_W: usize = 96;
const BATCH: usize = 8;
/// Distinct batches, cycled through by the closed loop.
const BATCHES: usize = 8;
/// Steps before timing (the first is part of set-up); the weight hash
/// after them is the run's determinism witness.
const WARMUP_STEPS: usize = 4;
/// The repository's training schedule decays 5e-3 → 1e-4; the decay
/// horizon is fixed so every run sees the same learning rates.
const LR_DECAY_STEPS: usize = 2000;
/// A step slower than this counts as missing the latency limit.
const SLO_MS: f64 = 100.0;
/// At about 25 ms per step a run times a few hundred steps, so the tail
/// is the p98 (≥10 samples beyond it from 500 steps on).
const TAIL_Q: f64 = 0.98;

struct Built {
    det: Detector,
    opt: Sgd,
    batches: Vec<(Tensor, Vec<BBox>)>,
}

fn step(b: &mut Built, k: usize) -> Result<(f32, [f64; 2]), String> {
    let (x, targets) = &b.batches[k % b.batches.len()];
    let t = Instant::now();
    let loss = b.det.train_batch(x, targets).map_err(|e| e.to_string())?;
    let train_ms = ms_since(t);
    let t = Instant::now();
    b.opt.step(b.det.backbone_mut());
    Ok((loss, [train_ms, ms_since(t)]))
}

/// Model, optimizer and stacked batches, then the first step.
fn build(seed: u64) -> Result<Built, String> {
    let det = spawn(&blueprint())?;
    let samples = frames(seed, BATCH * BATCHES, TRAIN_H, TRAIN_W);
    let batches = samples
        .chunks(BATCH)
        .map(|c| {
            let images: Vec<Tensor> = c.iter().map(|s| s.image.clone()).collect();
            let x = Tensor::stack(&images).map_err(|e| e.to_string())?;
            Ok((x, c.iter().map(|s| s.bbox).collect()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let opt = Sgd::new(
        LrSchedule::Exponential {
            start: 5e-3,
            end: 1e-4,
            steps: LR_DECAY_STEPS,
        },
        0.9,
        1e-4,
    );
    let mut built = Built { det, opt, batches };
    step(&mut built, 0)?;
    Ok(built)
}

pub fn run(seed: u64, seconds: f64, trace: bool, corrupt: bool) -> Result<Outcome, String> {
    let (mut b, setup_before) = timed_setup(SETUP_REPS_BEFORE, || build(seed), drop)?;
    // Gate: finite loss through warm-up; the weight hash after it must
    // repeat exactly across runs with the same seed.
    for k in 1..WARMUP_STEPS {
        let (loss, _) = step(&mut b, k)?;
        let loss = if corrupt { f32::NAN } else { loss };
        if !loss.is_finite() {
            return Err(format!("train_step: loss {loss} at warm-up step {k}"));
        }
    }
    let mut notes = vec![(
        "weight_hash",
        format!("{:016x}", weight_hash(b.det.backbone_mut())),
    )];

    let mut k = WARMUP_STEPS;
    let mut op = || -> Result<Step, String> {
        let (loss, parts) = step(&mut b, k)?;
        k += 1;
        Ok(Step {
            parts,
            ok: loss.is_finite(),
        })
    };
    let (phase, metrics) = match closed_loop(seconds, trace, &mut op)? {
        Measured::EndToEnd(phase) => {
            let peak_rss_mb = peak_rss_mb();
            let wall_rate = phase.ops() as f64 * BATCH as f64 / phase.wall_s;
            notes.push(("wall_rate_per_s", format!("{wall_rate:.3}")));
            let metrics = EndToEnd {
                setup_s: setup_median(setup_before, || build(seed), drop)?,
                peak_rss_mb,
                lat_ms: phase.lat_ms.clone(),
                tail_q: TAIL_Q,
                throughput: phase.rate_per_s(BATCH as f64),
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
            v.set("core.train_batch_ms", traced.part_mean_ms(0));
            v.set("nn.sgd_step_ms", traced.part_mean_ms(1));
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
