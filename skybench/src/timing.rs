//! Closed-loop timing shared by the detect and train workloads: one
//! client issues the next operation only after the previous one returns.

use crate::layers::{LayerValues, TraceWindow, Traced, DRAIN_EVERY, OP_SPAN};
use crate::report::{ms_since, percentile, sorted, Metric};
use skynet_tensor::telemetry;
use std::time::Instant;

/// One operation's result as the workload sees it.
pub struct Step {
    /// Bench-timed parts of the operation in ms (e.g. backbone forward
    /// and head decode), for the per-layer metrics.
    pub parts: [f64; 2],
    /// The output matched its reference.
    pub ok: bool,
}

/// Latencies of one timed phase.
#[derive(Default)]
pub struct Phase {
    pub lat_ms: Vec<f64>,
    pub parts: Vec<[f64; 2]>,
    pub ok: Vec<bool>,
    pub wall_s: f64,
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ok.iter().filter(|&&ok| !ok).count() as u64
    }

    /// Share of operations that were correct and took at most `limit_ms`.
    pub fn slo_met(&self, limit_ms: f64) -> f64 {
        let met = self
            .lat_ms
            .iter()
            .zip(&self.ok)
            .filter(|&(&l, &ok)| ok && l <= limit_ms)
            .count();
        met as f64 / self.lat_ms.len().max(1) as f64
    }

    /// Items per second: the median over one-second windows of the
    /// phase, each window's rate being its items ÷ the summed latency of
    /// its operations. A stall from another tenant of the host moves the
    /// mean rate of a whole run; it moves only the windows it hits.
    pub fn rate_per_s(&self, items_per_op: f64) -> f64 {
        let (mut rates, mut items, mut busy_ms) = (Vec::new(), 0.0, 0.0);
        for &l in &self.lat_ms {
            items += items_per_op;
            busy_ms += l;
            if busy_ms >= 1e3 {
                rates.push(items / busy_ms * 1e3);
                (items, busy_ms) = (0.0, 0.0);
            }
        }
        if rates.is_empty() && busy_ms > 0.0 {
            rates.push(items / busy_ms * 1e3);
        }
        crate::report::median(&rates)
    }

    /// Mean of bench-timed part `k` over the phase, in ms.
    pub fn part_mean_ms(&self, k: usize) -> f64 {
        let v: Vec<f64> = self.parts.iter().map(|p| p[k]).collect();
        crate::report::mean(&v)
    }
}

/// Runs `op` back to back for `seconds`. With a trace window open, each
/// operation is marked on the timeline and spans are drained between
/// operations.
fn run_for(
    seconds: f64,
    mut window: Option<&mut TraceWindow>,
    op: &mut dyn FnMut() -> Result<Step, String>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let step = {
            let _mark = window.is_some().then(|| telemetry::span(OP_SPAN));
            op()?
        };
        phase.lat_ms.push(ms_since(t));
        phase.parts.push(step.parts);
        phase.ok.push(step.ok);
        if let Some(w) = window.as_deref_mut() {
            if phase.lat_ms.len() % DRAIN_EVERY == 0 {
                w.drain();
            }
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

/// A closed loop measured either untraced (end-to-end run) or as an
/// untraced third followed by a traced remainder (per-layer run; the
/// two p50s give the tracing overhead).
pub enum Measured {
    EndToEnd(Phase),
    Traced {
        untraced: Phase,
        traced: Phase,
        trace: Box<Traced>,
    },
}

pub fn closed_loop(
    seconds: f64,
    trace: bool,
    op: &mut dyn FnMut() -> Result<Step, String>,
) -> Result<Measured, String> {
    if !trace {
        return Ok(Measured::EndToEnd(run_for(seconds, None, op)?));
    }
    let untraced = run_for(seconds / 3.0, None, op)?;
    let mut window = TraceWindow::open();
    let traced = run_for(seconds * 2.0 / 3.0, Some(&mut window), op)?;
    Ok(Measured::Traced {
        untraced,
        traced,
        trace: Box::new(window.close()),
    })
}

/// Per-layer metrics every closed loop shares.
pub fn closed_layers(untraced: &Phase, traced: &Phase, trace: &Traced) -> LayerValues {
    let mut v = LayerValues::default();
    trace.fill_common(traced.ops(), trace.op_intervals(), &mut v);
    v.set(
        "trace.overhead_frac",
        overhead(&untraced.lat_ms, &traced.lat_ms),
    );
    v
}

/// Relative p50 slow-down of the traced phase over the untraced one.
pub fn overhead(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = percentile(&sorted(untraced_ms.to_vec()), 0.5);
    let traced = percentile(&sorted(traced_ms.to_vec()), 0.5);
    if base > 0.0 {
        traced / base - 1.0
    } else {
        0.0
    }
}

/// The end-to-end metrics, identical in name and unit on every workload.
pub struct EndToEnd {
    /// Median set-up time over the in-process repetitions.
    pub setup_s: f64,
    /// Operation latencies in ms (frames, served requests or steps).
    pub lat_ms: Vec<f64>,
    /// The workload's tail percentile (see `skybench/README.md`).
    pub tail_q: f64,
    /// Items completed per second of timed wall time.
    pub throughput: f64,
    /// Operations answered correctly within the latency limit ÷ attempted.
    pub slo_met_frac: f64,
    /// Peak resident set, read right after the timed phase.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The bounded metrics. The tail percentile goes to the run record
    /// with its sample count: on a shared 2-core host its run-to-run
    /// spread is wider than any bound the benchmark may set, so the
    /// latency limit in `slo_met_frac` bounds the tail instead.
    pub fn into_metrics(self, notes: &mut Vec<(&'static str, String)>) -> Vec<Metric> {
        let lat = sorted(self.lat_ms);
        notes.push(("samples", lat.len().to_string()));
        notes.push(("tail_q", self.tail_q.to_string()));
        notes.push(("tail_ms", format!("{:.3}", percentile(&lat, self.tail_q))));
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("setup_s", "s", self.setup_s),
            m("p50_ms", "ms", percentile(&lat, 0.5)),
            m("throughput", "1/s", self.throughput),
            m("slo_met_frac", "ratio", self.slo_met_frac),
            m("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_rate_ignores_a_stall_in_one_window() {
        let mut lat_ms = vec![1.0; 3000];
        lat_ms[1500] = 400.0;
        let phase = Phase {
            lat_ms,
            ..Phase::default()
        };
        assert_eq!(phase.rate_per_s(1.0), 1000.0);
        assert_eq!(phase.rate_per_s(8.0), 8000.0);
    }

    #[test]
    fn windowed_rate_of_a_short_phase_uses_what_it_has() {
        let phase = Phase {
            lat_ms: vec![2.0; 100],
            ..Phase::default()
        };
        assert_eq!(phase.rate_per_s(1.0), 500.0);
    }
}
