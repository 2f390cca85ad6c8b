//! The repository's benchmark: the paths a SkyNet-rs user sees, end to
//! end, with a traced run for the per-layer view.
//!
//! ```text
//! cargo run --release --manifest-path skybench/Cargo.toml -- \
//!     --workload detect_f32 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `detect_f32`, `detect_int8`, `serve_poisson`, `train_step`
//! (see `skybench/README.md`). `--trace 0` prints the end-to-end
//! metrics with telemetry off; `--trace 1` prints the per-layer metrics.
//! The last line of standard output is the result as one JSON object;
//! the line before it is the run record (revision, host and modes). A
//! correctness gate that fails prints `"correct": false` and exits 1.
//! `--corrupt-probe` flips one bit of each gate's probe output, so the
//! self-test can prove every gate trips.

mod detect;
mod inputs;
mod layers;
mod report;
mod serve;
mod timing;
mod train;

use report::{git_rev, record_line, result_line, Outcome};
use skynet_tensor::{alloc, fusion, parallel, simd, telemetry};

const WORKLOADS: [&str; 4] = ["detect_f32", "detect_int8", "serve_poisson", "train_step"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt_probe) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-probe" {
            corrupt_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_probe,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skybench: {e}");
            eprintln!(
                "usage: skybench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--corrupt-probe]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // End-to-end numbers are taken with telemetry off, whatever the
    // environment asks for; the traced run switches it on around its
    // traced phase only.
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
    alloc::enable(false);

    let (seed, secs, trace, corrupt) = (args.seed, args.seconds, args.trace, args.corrupt_probe);
    let result = match args.workload.as_str() {
        "detect_f32" => detect::run(seed, secs, trace, false, corrupt),
        "detect_int8" => detect::run(seed, secs, trace, true, corrupt),
        "serve_poisson" => serve::run(seed, secs, trace, corrupt),
        _ => train::run(seed, secs, trace, corrupt),
    };
    let outcome = result.unwrap_or_else(|e| {
        eprintln!("skybench: correctness gate failed: {e}");
        Outcome::default()
    });

    let mut record = vec![
        ("workload", args.workload.clone()),
        ("seed", seed.to_string()),
        ("seconds", secs.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("git_rev", git_rev()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("simd", simd::active().name().to_string()),
        ("fusion", fusion::mode_name().to_string()),
        ("pool_threads", parallel::num_threads().to_string()),
    ];
    record.extend(outcome.notes.iter().map(|(k, v)| (*k, v.clone())));
    println!("{}", record_line(&record));
    println!("{}", result_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
