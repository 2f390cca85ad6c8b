//! The fused INT8 bundle's determinism contract, attacked from two
//! sides:
//!
//! * **Store-loop requant** — the fused executor never calls
//!   [`requant_i8`] on a full feature map; it folds the epilogue into
//!   the band store, requantizing accumulator slices straight into
//!   output row windows. Requantization is per-element and scalar-f32
//!   by contract, so *any* band partition must be bitwise equal to one
//!   whole-map call — including `i32::MAX`/`i32::MIN` accumulators and
//!   values pinned exactly on the activation-clamp edges — and the
//!   per-band saturation counts must sum to the whole-map count.
//! * **Whole bundle** — [`qfused_bundle_forward`] (DW tile → requant →
//!   PW → requant, cache-resident) against the staged full-map oracle
//!   over random geometries and random per-channel epilogues, on every
//!   available SIMD backend, pooled and forced-serial.
//! * **Folded pool and fork** — the pooled stores
//!   (`qfused_bundle_forward_store` with `BundleStore::Pool`/`PoolFork`)
//!   against the staged `qfused_bundle_forward → maxpool2d_i8
//!   (→ reorg_i8)`, bitwise, with equal saturation counts.
//!
//! Backend forcing is process-global, so backend-sweeping tests
//! serialize on a mutex (same discipline as `qint_equivalence.rs`).

use proptest::prelude::*;
use skynet_tensor::fused::{
    qfused_bundle_forward, qfused_bundle_forward_store, BundleStore, QEpilogue,
};
use skynet_tensor::qint::{dwconv3_i8, matmul_i8, maxpool2d_i8, reorg_i8, requant_i8};
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::{parallel, Shape};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = simd::active();
    simd::force(be);
    let out = f();
    simd::force(prev);
    out
}

/// The clamp windows the quantized engine actually produces:
/// no activation, ReLU, ReLU6.
fn clamp_variant(sel: u8) -> Option<(f32, f32)> {
    match sel % 3 {
        0 => None,
        1 => Some((0.0, f32::INFINITY)),
        _ => Some((0.0, 6.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused-store requant vs standalone: split the accumulator at
    /// random band boundaries, requant each band into the matching
    /// output window, and demand bitwise equality with the one-call
    /// form (plus exact saturation-count additivity).
    #[test]
    fn banded_requant_is_bitwise_equal_to_whole_map(
        len in 1usize..400,
        mult in 1e-6f32..10.0,
        bias in -100.0f32..100.0,
        out_scale in 1e-3f32..1.0,
        clamp_sel in 0u8..3,
        cut_seed in 0u64..1000,
    ) {
        let clamp = clamp_variant(clamp_sel);
        let mut rng = SkyRng::new(cut_seed);
        let mut acc: Vec<i32> = (0..len)
            .map(|_| rng.range(-4.0e4, 4.0e4) as i32)
            .collect();
        // Plant the i32 extremes and exact clamp-edge producers.
        acc[0] = i32::MAX;
        if len > 1 {
            acc[1] = i32::MIN;
        }
        if len > 2 {
            // acc·mult + bias == clamp floor (0.0) exactly when
            // acc == -bias/mult and that quotient is representable;
            // nearby values probe the edge either way.
            acc[2] = (-bias / mult) as i32;
        }
        if len > 3 {
            if let Some((_, hi)) = clamp {
                if hi.is_finite() {
                    acc[3] = ((hi - bias) / mult) as i32;
                }
            }
        }

        let mut whole = vec![0i8; len];
        let want_sat = requant_i8(&acc, mult, bias, clamp, out_scale, &mut whole);

        // Random band partition (1–5 cuts, duplicates collapse).
        let mut cuts: Vec<usize> = (0..(cut_seed % 5 + 1))
            .map(|_| rng.range(0.0, len as f32) as usize)
            .collect();
        cuts.push(0);
        cuts.push(len);
        cuts.sort_unstable();
        cuts.dedup();

        let mut banded = vec![0i8; len];
        let mut got_sat = 0u64;
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            got_sat += requant_i8(&acc[a..b], mult, bias, clamp, out_scale, &mut banded[a..b]);
        }
        prop_assert_eq!(banded, whole);
        prop_assert_eq!(got_sat, want_sat);
    }

    /// The whole fused bundle against the staged full-map oracle, over
    /// random geometries and random per-channel epilogues, on every
    /// available backend.
    #[test]
    fn qfused_bundle_matches_staged_oracle(
        n in 1usize..3,
        c in 1usize..6,
        c2 in 1usize..8,
        h in 1usize..7,
        w in 1usize..40,
        seed in 0u64..1000,
        clamp_sel in 0u8..3,
    ) {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let clamp = clamp_variant(clamp_sel);
        let mut rng = SkyRng::new(seed);
        let plane = h * w;
        let mut ri8 = |len: usize| -> Vec<i8> {
            let mut v: Vec<i8> = (0..len)
                .map(|_| rng.range(-128.0, 128.0).floor().clamp(-128.0, 127.0) as i8)
                .collect();
            if len > 0 {
                v[0] = i8::MIN;
            }
            if len > 1 {
                v[len / 2] = i8::MAX;
            }
            v
        };
        let x = ri8(n * c * plane);
        let dw_w = ri8(c * 9);
        let pw_w = ri8(c2 * c);
        let mut rf = |lo: f32, hi: f32, len: usize| -> Vec<f32> {
            (0..len).map(|_| rng.range(lo, hi)).collect()
        };
        let dw_mult = rf(1e-4, 5e-2, c);
        let dw_bias = rf(-0.5, 0.5, c);
        let pw_mult = rf(1e-4, 5e-2, c2);
        let pw_bias = rf(-0.5, 0.5, c2);
        let dw_ep = QEpilogue { mult: &dw_mult, bias: &dw_bias, clamp, out_scale: 0.05 };
        let pw_ep = QEpilogue { mult: &pw_mult, bias: &pw_bias, clamp, out_scale: 0.04 };

        // Staged oracle: full-map DW, requant, PW, requant (scalar
        // backend — the cross-backend claim is carried by the sweep
        // below agreeing with this one answer).
        let (want, want_sats) = with_backend(Backend::Scalar, || {
            let mut acc = vec![0i32; n * c * plane];
            dwconv3_i8(&x, &dw_w, &mut acc, n, c, h, w);
            let mut q = vec![0i8; n * c * plane];
            let mut sat_dw = 0u64;
            for pi in 0..n * c {
                let (ch, o) = (pi % c, pi * plane);
                sat_dw += requant_i8(
                    &acc[o..o + plane], dw_mult[ch], dw_bias[ch], clamp, 0.05,
                    &mut q[o..o + plane],
                );
            }
            let mut pacc = vec![0i32; n * c2 * plane];
            for item in 0..n {
                matmul_i8(
                    &pw_w,
                    &q[item * c * plane..(item + 1) * c * plane],
                    &mut pacc[item * c2 * plane..(item + 1) * c2 * plane],
                    c2, c, plane,
                );
            }
            let mut out = vec![0i8; n * c2 * plane];
            let mut sat_pw = 0u64;
            for pi in 0..n * c2 {
                let (oc, o) = (pi % c2, pi * plane);
                sat_pw += requant_i8(
                    &pacc[o..o + plane], pw_mult[oc], pw_bias[oc], clamp, 0.04,
                    &mut out[o..o + plane],
                );
            }
            (out, (sat_dw, sat_pw))
        });

        for be in simd::available_backends() {
            for serial in [false, true] {
                let run = || {
                    let mut got = vec![0i8; n * c2 * plane];
                    let sats = qfused_bundle_forward(
                        &x, Shape::new(n, c, h, w), &dw_w, &dw_ep, &pw_w, c2, &pw_ep,
                        &mut got,
                    )
                    .unwrap();
                    (got, (sats.dw, sats.pw))
                };
                let (got, got_sats) = with_backend(be, || {
                    if serial { parallel::serial(run) } else { run() }
                });
                assert_eq!(
                    got,
                    want,
                    "{} serial={serial}: fused bundle diverged",
                    be.name()
                );
                assert_eq!(
                    got_sats,
                    want_sats,
                    "{} serial={serial}: saturation counts diverged",
                    be.name()
                );
            }
        }
    }
}

/// One pooled-store case: random `i8` activations and weights with the
/// extremes planted, a runs of equal codes (ties inside windows), and
/// epilogues whose clamps pin many outputs to the same code; the folded
/// store must equal the staged full-map oracle on every backend,
/// pooled and serial, saturation counts included.
fn pooled_case(seed: u64, n: usize, (c, c2): (usize, usize), (h, w): (usize, usize), fork: bool) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SkyRng::new(seed);
    let plane = h * w;
    let mut ri8 = |len: usize| -> Vec<i8> {
        (0..len)
            .map(|_| rng.range(-128.0, 128.0).floor().clamp(-128.0, 127.0) as i8)
            .collect()
    };
    let mut x = ri8(n * c * plane);
    let dw_w = ri8(c * 9);
    let pw_w = ri8(c2 * c);
    // Extremes and a run of equal codes.
    let len = x.len();
    x[0] = i8::MIN;
    x[len / 2] = i8::MAX;
    x[len / 3..(len / 3 + 8).min(len)].fill(17);
    let mut rf = |lo: f32, hi: f32, len: usize| -> Vec<f32> {
        (0..len).map(|_| rng.range(lo, hi)).collect()
    };
    let dw_mult = rf(1e-4, 5e-2, c);
    let dw_bias = rf(-0.5, 0.5, c);
    let pw_mult = rf(1e-4, 5e-2, c2);
    let pw_bias = rf(-0.5, 0.5, c2);
    let clamp = Some((0.0, 6.0));
    let dw_ep = QEpilogue {
        mult: &dw_mult,
        bias: &dw_bias,
        clamp,
        out_scale: 0.05,
    };
    // A coarse PW scale saturates often: many equal ±127 / 0 codes.
    let pw_ep = QEpilogue {
        mult: &pw_mult,
        bias: &pw_bias,
        clamp: None,
        out_scale: 0.02,
    };
    let store = if fork {
        BundleStore::PoolFork
    } else {
        BundleStore::Pool
    };

    let (want, want_by, want_sats) = with_backend(Backend::Scalar, || {
        let mut full = vec![0i8; n * c2 * plane];
        let sats = qfused_bundle_forward(
            &x,
            Shape::new(n, c, h, w),
            &dw_w,
            &dw_ep,
            &pw_w,
            c2,
            &pw_ep,
            &mut full,
        )
        .unwrap();
        let by = fork.then(|| reorg_i8(&full, n, c2, h, w, 2));
        (maxpool2d_i8(&full, n, c2, h, w, 2), by, (sats.dw, sats.pw))
    });
    for be in simd::available_backends() {
        for serial in [false, true] {
            let run = || {
                let mut out = vec![0i8; n * c2 * plane / 4];
                let mut by = vec![0i8; if fork { n * c2 * plane } else { 0 }];
                let sats = qfused_bundle_forward_store(
                    &x,
                    Shape::new(n, c, h, w),
                    &dw_w,
                    &dw_ep,
                    &pw_w,
                    c2,
                    &pw_ep,
                    store,
                    &mut out,
                    &mut by,
                )
                .unwrap();
                (out, fork.then_some(by), (sats.dw, sats.pw))
            };
            let (got, got_by, got_sats) =
                with_backend(be, || if serial { parallel::serial(run) } else { run() });
            let label = be.name();
            assert_eq!(got, want, "{label} serial={serial}: pooled map diverged");
            assert_eq!(got_by, want_by, "{label} serial={serial}: bypass diverged");
            assert_eq!(
                got_sats, want_sats,
                "{label} serial={serial}: saturation counts"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random even extents (widths past the 64-byte AVX2 pool step and
    /// with every tail), batches up to a full serve batch.
    #[test]
    fn pooled_store_matches_staged_random(
        seed in 0u64..1_000_000,
        n_sel in 0usize..3,
        c in 1usize..6,
        c2 in 1usize..7,
        h2 in 1usize..12,
        w2 in 1usize..80,
        fork in 0usize..2,
    ) {
        let n = [1, 3, 8][n_sel];
        pooled_case(seed, n, (c, c2), (2 * h2, 2 * w2), fork == 1);
    }
}

/// Pinned cases: h = 40, whose unpooled band height is odd; batches of
/// 1, 3 and 8; the SkyNet pooled-bundle shapes at ÷8 width, ¼ scale.
#[test]
fn pooled_store_matches_staged_pinned() {
    for &n in &[1usize, 3, 8] {
        pooled_case(41, n, (3, 4), (40, 24), false);
        pooled_case(42, n, (3, 4), (40, 70), true);
    }
    pooled_case(43, 1, (3, 6), (40, 80), false);
    pooled_case(44, 1, (6, 12), (20, 40), false);
    pooled_case(45, 1, (12, 24), (10, 20), true);
}

/// Odd extents cannot pool: the folded store reports an error instead
/// of writing a partial map.
#[test]
fn pooled_store_rejects_odd_extents() {
    let ep = QEpilogue {
        mult: &[0.1],
        bias: &[0.0],
        clamp: None,
        out_scale: 0.1,
    };
    for (h, w) in [(3usize, 4usize), (4, 5)] {
        let x = vec![1i8; h * w];
        let (mut out, mut by) = (vec![0i8; h * w], vec![0i8; h * w]);
        for store in [BundleStore::Pool, BundleStore::PoolFork] {
            let r = qfused_bundle_forward_store(
                &x,
                Shape::new(1, 1, h, w),
                &[1; 9],
                &ep,
                &[1],
                1,
                &ep,
                store,
                &mut out,
                &mut by,
            );
            assert!(r.is_err(), "{h}x{w} {store:?}");
        }
    }
}
