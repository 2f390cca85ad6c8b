//! End-to-end INT8 engine determinism: the full quantized forward pass
//! (quantize → 6 bundles of integer DW/PW stages → pool/reorg/concat →
//! dequantizing head) must produce **CRC-identical** f32 prediction
//! maps on every available SIMD backend, on the worker pool and under
//! forced-serial execution — the serving determinism contract extended
//! to the integer path. Also pins the detector-level dispatch:
//! `predict` routes through an attached engine, and a blueprint
//! publishing one spawns replicas that agree bit-for-bit.

use skynet_core::head::Anchors;
use skynet_core::quant::{CalibMethod, Calibrator, QuantizedSkyNet};
use skynet_core::replica::DetectorBlueprint;
use skynet_core::skynet::{SkyNet, SkyNetConfig, Variant};
use skynet_nn::{Act, Layer};
use skynet_tensor::crc32::crc32;
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::{fusion, parallel, telemetry, Shape, Tensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = simd::active();
    simd::force(be);
    let out = f();
    simd::force(prev);
    out
}

fn with_fusion<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = fusion::enabled();
    fusion::force(on);
    let out = f();
    fusion::force(prev);
    out
}

fn random_images(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
    let mut rng = SkyRng::new(seed);
    let shape = Shape::new(n, 3, h, w);
    Tensor::from_vec(
        shape,
        (0..shape.numel()).map(|_| rng.normal(0.5, 0.25)).collect(),
    )
    .unwrap()
}

fn calibrated_engine(variant: Variant, seed: u64) -> (SkyNet, QuantizedSkyNet) {
    let cfg = SkyNetConfig::new(variant, Act::Relu6).with_width_divisor(16);
    let mut net = SkyNet::new(cfg, &mut SkyRng::new(seed));
    let mut cal = Calibrator::new(variant, CalibMethod::MaxAbs);
    for s in 0..3 {
        cal.observe(&mut net, &random_images(2, 16, 32, 500 + s))
            .unwrap();
    }
    let plan = cal.finish().unwrap();
    let engine = QuantizedSkyNet::build(&net, &plan).unwrap();
    (net, engine)
}

fn output_crc(t: &Tensor) -> u32 {
    let bytes: Vec<u8> = t
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

#[test]
fn int8_forward_is_crc_identical_across_backends_and_thread_modes() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for variant in [Variant::A, Variant::C] {
        let (_, engine) = calibrated_engine(variant, 11);
        let x = random_images(2, 16, 32, 21);
        let run = || output_crc(&engine.forward(&x).unwrap());
        let oracle = with_backend(Backend::Scalar, run);
        for be in simd::available_backends() {
            let pooled = with_backend(be, run);
            let serial = with_backend(be, || parallel::serial(run));
            assert_eq!(
                oracle,
                pooled,
                "{variant}: {} pooled diverged from scalar oracle",
                be.name()
            );
            assert_eq!(
                oracle,
                serial,
                "{variant}: {} serial diverged from scalar oracle",
                be.name()
            );
        }
    }
}

/// The tentpole equivalence: the fused INT8 engine (DW tile → requant →
/// PW → requant, all inside one scratch-resident band) is CRC-identical
/// to the unfused stage-pair walk — per variant, per backend, pooled
/// and forced-serial. Wrapping-i32 accumulation is grouping-independent
/// and the requant epilogue is per-element, so this holds structurally;
/// the test is the witness.
#[test]
fn fused_engine_is_crc_identical_to_unfused_across_backends() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for variant in [Variant::A, Variant::C] {
        let (_, engine) = calibrated_engine(variant, 17);
        let x = random_images(2, 16, 32, 27);
        let run = || output_crc(&engine.forward(&x).unwrap());
        let oracle = with_backend(Backend::Scalar, || with_fusion(false, run));
        for be in simd::available_backends() {
            for fused in [false, true] {
                let pooled = with_backend(be, || with_fusion(fused, run));
                let serial = with_backend(be, || with_fusion(fused, || parallel::serial(run)));
                assert_eq!(
                    oracle,
                    pooled,
                    "{variant}: {} fused={fused} pooled diverged",
                    be.name()
                );
                assert_eq!(
                    oracle,
                    serial,
                    "{variant}: {} fused={fused} serial diverged",
                    be.name()
                );
            }
        }
    }
}

/// Guards the fused-engine suite against vacuity: with the toggle on,
/// every bundle must actually execute through the fused kernel (no
/// fallback); with it off, every fused-lowered bundle must count a
/// fallback. The per-bundle `quant.bundle<N>.{dw,pw}.saturated`
/// counters must read identically either way — saturation totals are
/// commutative `u64` sums, so the fused band schedule cannot change
/// them.
#[test]
fn fused_engine_counters_prove_the_fused_path_ran() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, engine) = calibrated_engine(Variant::C, 19);
    assert_eq!(engine.plan().fused_bundles(), 6);
    let x = random_images(1, 16, 32, 29);
    let sat_counters = |snap: &telemetry::Snapshot| -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for b in 1..=6 {
            for stage in ["dw", "pw"] {
                let name = format!("quant.bundle{b}.{stage}.saturated");
                out.push((name.clone(), snap.counter(&name).unwrap_or(0)));
            }
        }
        out
    };

    telemetry::Builder::new().metrics(true).trace(false).apply();
    telemetry::reset_metrics();
    let _ = with_fusion(true, || engine.forward(&x).unwrap());
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("quant.fused.bundles_executed"), Some(6));
    assert_eq!(snap.counter("quant.fused.pools_folded"), Some(3));
    assert_eq!(snap.counter("quant.fused.fallback").unwrap_or(0), 0);
    let fused_sats = sat_counters(&snap);

    telemetry::reset_metrics();
    let _ = with_fusion(false, || engine.forward(&x).unwrap());
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("quant.fused.bundles_executed").unwrap_or(0), 0);
    assert_eq!(snap.counter("quant.fused.pools_folded").unwrap_or(0), 0);
    assert_eq!(snap.counter("quant.fused.fallback"), Some(6));
    assert_eq!(
        fused_sats,
        sat_counters(&snap),
        "per-bundle saturation totals depend on the schedule"
    );
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

/// The fused engine pools and forks inside Bundles 1–3's store loops:
/// its trace holds no `tensor.qpool` or `tensor.qreorg` span, while the
/// unfused walk still runs the three staged pools and the one reorg.
#[test]
fn fused_engine_emits_no_pool_or_reorg_spans() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, engine) = calibrated_engine(Variant::C, 37);
    let x = random_images(1, 16, 32, 39);
    telemetry::Builder::new().metrics(false).trace(true).apply();
    let spans_of = |fused: bool| {
        telemetry::drain_spans();
        let _ = with_fusion(fused, || engine.forward(&x).unwrap());
        let spans = telemetry::drain_spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        (count("tensor.qpool"), count("tensor.qreorg"))
    };
    assert_eq!(spans_of(true), (0, 0), "fused");
    assert_eq!(spans_of(false), (3, 1), "unfused");
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

/// An input the staged pool or fork rejects (an odd extent before pool
/// 1, 2 or 3, or before Bundle 3's reorg fork) fails the fused engine
/// with the staged walk's exact error, and is not counted as a fused
/// fallback.
#[test]
fn odd_extent_errors_match_fused_and_staged() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, engine) = calibrated_engine(Variant::C, 41);
    telemetry::Builder::new().metrics(true).trace(false).apply();
    for (h, w) in [(15usize, 32usize), (16, 30), (12, 32)] {
        let x = random_images(1, h, w, 43);
        telemetry::reset_metrics();
        let fused = with_fusion(true, || engine.forward(&x)).map(|_| ());
        assert_eq!(
            telemetry::snapshot()
                .counter("quant.fused.fallback")
                .unwrap_or(0),
            0,
            "{h}x{w}: an input error is not a fallback"
        );
        let staged = with_fusion(false, || engine.forward(&x));
        let staged = staged.expect_err("odd extent must fail staged");
        assert_eq!(Err(staged), fused, "{h}x{w}");
    }
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

/// A wrong channel count is an input error, not a reason to leave the
/// fused path: a 4-channel image fails the fused engine with the staged
/// `QDwConv3` error, and no fused fallback is counted.
#[test]
fn channel_errors_match_fused_and_staged() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, engine) = calibrated_engine(Variant::C, 41);
    let mut rng = SkyRng::new(47);
    let shape = Shape::new(1, 4, 16, 32);
    let x = Tensor::from_vec(
        shape,
        (0..shape.numel()).map(|_| rng.normal(0.5, 0.25)).collect(),
    )
    .unwrap();
    telemetry::Builder::new().metrics(true).trace(false).apply();
    telemetry::reset_metrics();
    let fused = with_fusion(true, || engine.forward(&x)).map(|_| ());
    let fallbacks = telemetry::snapshot()
        .counter("quant.fused.fallback")
        .unwrap_or(0);
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
    assert_eq!(fallbacks, 0, "an input error is not a fallback");
    let staged = with_fusion(false, || engine.forward(&x));
    let staged = staged.expect_err("a 4-channel image must fail staged");
    assert_eq!(Err(staged), fused);
}

#[test]
fn detector_predict_dispatches_to_attached_engine() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut net, engine) = calibrated_engine(Variant::C, 13);
    let x = random_images(1, 16, 32, 23);

    // An undispatched detector without an engine rejects predict_int8.
    let cfg = net.config().clone();
    let mut blobs = Vec::new();
    net.visit_params(&mut |p| blobs.push(p.value.as_slice().to_vec()));
    let bp = DetectorBlueprint::from_weights(cfg, Anchors::dac_sdc(), blobs);
    let mut float_det = bp.spawn().unwrap();
    assert!(float_det.int8_engine().is_none());
    assert!(float_det.predict_int8(&x).is_err());

    // The int8-published blueprint spawns replicas that dispatch
    // predict through the engine and agree bit-for-bit.
    let bp_q = bp.with_int8(std::sync::Arc::new(engine));
    let mut a = bp_q.spawn().unwrap();
    let mut b = bp_q.spawn().unwrap();
    assert!(a.int8_engine().is_some());
    let da = a.predict(&x).unwrap();
    let db = b.predict_int8(&x).unwrap();
    assert_eq!(da.len(), db.len());
    for (p, q) in da.iter().zip(&db) {
        assert_eq!(p.confidence.to_bits(), q.confidence.to_bits());
        assert_eq!(p.bbox.cx.to_bits(), q.bbox.cx.to_bits());
        assert_eq!(p.bbox.cy.to_bits(), q.bbox.cy.to_bits());
        assert_eq!(p.bbox.w.to_bits(), q.bbox.w.to_bits());
        assert_eq!(p.bbox.h.to_bits(), q.bbox.h.to_bits());
    }
}
