//! The INT8 determinism contract: every available SIMD backend must be
//! **bit-identical** to the plain-loop scalar oracle on the integer
//! kernels (`matmul_i8_acc`, `dwconv3_i8`) over random shapes and
//! values — including the `i8::MIN` corner and accumulators driven
//! through i32 wrap-around — on the worker pool and under
//! [`parallel::serial`].
//!
//! Unlike the f32 contract (which is engineered: no FMA, lane-ordered
//! tails), integer equality is *structural* — wrapping i32 addition is
//! associative and commutative, so any lane split or thread count must
//! produce the same bits. These tests pin that the implementations
//! don't break the structure (e.g. via a widening shortcut that
//! saturates instead of wrapping).
//!
//! The f32 → `i8` epilogues (`requant_i8`, `quantize_i8`) are the
//! engineered kind: the AVX2 backend replays the scalar oracle's IEEE
//! ops lane-wise, with ties-away rounding emulated. Their suites plant
//! the inputs where an emulation would slip — exact `.5` ties up to
//! `±127.5`, `-0.0`, clamp-window edges, `i32` extremes, NaN and ±∞ —
//! at every length 0–69 (every 32-lane tail) and compare the `i8`
//! output and the saturation count bitwise.
//!
//! Backend forcing is process-global, so every test serializes on a
//! mutex (same discipline as `simd_equivalence.rs`).

use proptest::prelude::*;
use skynet_tensor::parallel;
use skynet_tensor::qint::{dwconv3_i8, matmul_i8_acc, maxpool2d_i8, quantize_i8, requant_i8};
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = simd::active();
    simd::force(be);
    let out = f();
    simd::force(prev);
    out
}

/// Random i8 buffer with the extremes planted at deterministic
/// positions so every run exercises `i8::MIN`/`i8::MAX`.
fn random_i8(len: usize, rng: &mut SkyRng) -> Vec<i8> {
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
}

/// Runs `f` under the scalar oracle and under every other available
/// backend (pooled and forced-serial), asserting exact equality.
fn assert_backends_agree<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = with_backend(Backend::Scalar, &f);
    let oracle_ser = with_backend(Backend::Scalar, || parallel::serial(&f));
    assert_eq!(oracle, oracle_ser, "{label}: scalar pooled vs serial");
    for be in simd::available_backends() {
        if be == Backend::Scalar {
            continue;
        }
        let got = with_backend(be, &f);
        assert_eq!(
            oracle,
            got,
            "{label}: {} diverged from scalar oracle (pooled)",
            be.name()
        );
        let got_ser = with_backend(be, || parallel::serial(&f));
        assert_eq!(
            oracle,
            got_ser,
            "{label}: {} diverged from scalar oracle (serial)",
            be.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_i8_backends_agree(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let mut rng = SkyRng::new(seed);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        // Pre-seeded accumulators: the kernel must add, not overwrite.
        let acc0: Vec<i32> = (0..m * n)
            .map(|_| rng.range(-1000.0, 1000.0) as i32)
            .collect();
        assert_backends_agree("matmul_i8", || {
            let mut c = acc0.clone();
            matmul_i8_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn dwconv3_i8_backends_agree(
        n in 1usize..3,
        c in 1usize..5,
        h in 1usize..8,
        w in 1usize..72,
        seed in 0u64..1000,
    ) {
        let mut rng = SkyRng::new(seed);
        let x = random_i8(n * c * h * w, &mut rng);
        let wt = random_i8(c * 9, &mut rng);
        assert_backends_agree("dwconv3_i8", || {
            let mut out = vec![0i32; n * c * h * w];
            dwconv3_i8(&x, &wt, &mut out, n, c, h, w);
            out
        });
    }

    #[test]
    fn requant_saturation_is_exactly_counted(
        seed in 0u64..1000,
        mult in 0.001f32..2.0,
        bias in -5.0f32..5.0,
    ) {
        // Pin the scalar oracle's clamp window and saturation count on
        // accumulators spanning the i32 extremes against the formula
        // (the vector bodies are held to the oracle bitwise below).
        let mut rng = SkyRng::new(seed);
        let mut acc: Vec<i32> = (0..64)
            .map(|_| rng.range(-3.0e4, 3.0e4) as i32)
            .collect();
        acc[0] = i32::MAX;
        acc[1] = i32::MIN;
        let mut out = vec![0i8; acc.len()];
        let sat = requant_i8(&acc, mult, bias, None, 0.05, &mut out);
        let expected_sat = acc
            .iter()
            .filter(|&&a| {
                let q = ((a as f32 * mult + bias) / 0.05).round();
                !(-127.0..=127.0).contains(&q)
            })
            .count() as u64;
        prop_assert_eq!(sat, expected_sat);
        // Symmetric grid: -128 is never produced.
        prop_assert!(out.iter().all(|&q| (-127..=127).contains(&q)));
        prop_assert_eq!(out[0], 127);
        prop_assert_eq!(out[1], -127);
    }

    #[test]
    fn requant_vector_epilogue_matches_scalar_bitwise(
        len in 0usize..70,
        seed in 0u64..1000,
        mult in -2.0f32..2.0,
        bias in -5.0f32..5.0,
        out_scale in 0.001f32..1.0,
        window in 0usize..4,
    ) {
        let mut rng = SkyRng::new(seed);
        let acc = random_acc(len, &mut rng);
        let clamp = match window {
            0 => None,
            1 => Some((0.0, f32::INFINITY)),
            2 => Some((0.0, 6.0)),
            _ => Some((-rng.range(0.0, 50.0), rng.range(0.0, 50.0))),
        };
        assert_backends_agree("requant_i8 random", || {
            let mut out = vec![0i8; len];
            let sat = requant_i8(&acc, mult, bias, clamp, out_scale, &mut out);
            (out, sat)
        });
    }

    #[test]
    fn requant_vector_epilogue_matches_scalar_on_planted_edges(
        len in 0usize..70,
        seed in 0u64..1000,
        exp in -6i32..6,
        window in 0usize..5,
    ) {
        // Power-of-two scales make `(acc · s + s/2) / s == acc + 0.5`
        // exact, so small accumulators land on exact ties — including
        // ±126.5 (rounds to ±127, no clamp) and ±127.5 (rounds to ±128,
        // saturates).
        let mut rng = SkyRng::new(seed);
        let s = 2f32.powi(exp);
        let mut acc: Vec<i32> = (0..len).map(|_| rng.range(-140.0, 140.0) as i32).collect();
        for (slot, v) in [126, -127, 127, -128, 0, -1, i32::MAX, i32::MIN].into_iter().enumerate() {
            if len > 0 {
                let at = (slot * 7 + rng.below(len)) % len;
                acc[at] = v;
            }
        }
        let (lo_acc, hi_acc) = (acc.first().copied().unwrap_or(0), acc.last().copied().unwrap_or(0));
        let v_of = |a: i32| a as f32 * s + 0.5 * s;
        let clamp = match window {
            0 => None,
            1 => Some((0.0, f32::INFINITY)),
            // Window edges equal to values in the buffer: `v == lo`
            // and `v == hi` take the pass-through side of the compare.
            2 => Some((v_of(lo_acc.min(hi_acc)), v_of(lo_acc.max(hi_acc)))),
            3 => Some((-0.0, 6.0)),
            _ => Some((f32::NEG_INFINITY, f32::INFINITY)),
        };
        assert_backends_agree("requant_i8 ties", || {
            let mut out = vec![0i8; len];
            let sat = requant_i8(&acc, s, 0.5 * s, clamp, s, &mut out);
            (out, sat)
        });
        // `-0.0`: a negative multiplier maps acc 0 to -0.0, and a -0.0
        // bias keeps it there.
        assert_backends_agree("requant_i8 -0.0", || {
            let mut out = vec![0i8; len];
            let sat = requant_i8(&acc, -s, -0.0, clamp, s, &mut out);
            (out, sat)
        });
        // Non-finite pre-activations: `acc · f32::MAX` overflows to ±∞
        // for |acc| ≥ 2, and a −∞ or NaN bias turns lanes into −∞ or
        // NaN — the activation clamp's NaN rule and the ±∞ clamp of the
        // `i8` step both get exercised.
        let bias = if seed % 2 == 0 { f32::NEG_INFINITY } else { f32::NAN };
        assert_backends_agree("requant_i8 non-finite", || {
            let mut out = vec![0i8; len];
            let sat = requant_i8(&acc, f32::MAX, bias, clamp, s, &mut out);
            (out, sat)
        });
    }

    #[test]
    fn quantize_vector_epilogue_matches_scalar_bitwise(
        len in 0usize..70,
        seed in 0u64..1000,
        exp in -6i32..6,
        jitter in 0.5f32..2.0,
    ) {
        let mut rng = SkyRng::new(seed);
        let pow2 = 2f32.powi(exp);
        let planted = [
            126.5 * pow2,
            -126.5 * pow2,
            127.5 * pow2,
            -127.5 * pow2,
            0.5 * pow2,
            -2.5 * pow2,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
        ];
        let mut src: Vec<f32> = (0..len)
            .map(|_| (rng.range(-140.0, 140.0).round() + 0.5 * rng.below(2) as f32) * pow2)
            .collect();
        for (slot, &v) in planted.iter().enumerate() {
            if len > 0 {
                let at = (slot * 5 + rng.below(len)) % len;
                src[at] = v;
            }
        }
        // The power-of-two scale keeps the planted ties exact; the
        // jittered one exercises inexact quotients on the same data.
        for scale in [pow2, pow2 * jitter] {
            assert_backends_agree("quantize_i8", || {
                let mut dst = vec![0i8; len];
                let sat = quantize_i8(&src, scale, &mut dst);
                (dst, sat)
            });
        }
    }

    #[test]
    fn maxpool2_matches_generic_window_loop(
        n in 1usize..3,
        c in 1usize..6,
        oh in 1usize..6,
        ow in 1usize..40,
        seed in 0u64..1000,
    ) {
        let (h, w) = (2 * oh, 2 * ow);
        let mut rng = SkyRng::new(seed);
        let mut x = random_i8(n * c * h * w, &mut rng);
        // A window of nothing but i8::MIN must pool to i8::MIN.
        for at in [0, 1, w, w + 1] {
            x[at] = i8::MIN;
        }
        // One plane and many, pooled and serial, every backend.
        for (pn, pc) in [(1, 1), (n, c)] {
            let want = maxpool_reference(&x, pn, pc, h, w, 2);
            prop_assert_eq!(want[0], i8::MIN);
            assert_backends_agree("maxpool2d_i8 k=2", || {
                let got = maxpool2d_i8(&x, pn, pc, h, w, 2);
                assert_eq!(got, want, "k=2 path vs generic loop");
                got
            });
        }
    }

    #[test]
    fn quantize_never_emits_negative_128(
        seed in 0u64..1000,
        scale in 0.001f32..1.0,
    ) {
        let mut rng = SkyRng::new(seed);
        let mut src: Vec<f32> = (0..256).map(|_| rng.range(-300.0, 300.0) * scale).collect();
        src[0] = -1e30; // far past the clamp (finite; non-finite maps to 0)
        let mut dst = vec![0i8; src.len()];
        let _ = quantize_i8(&src, scale, &mut dst);
        prop_assert!(dst.iter().all(|&q| (-127..=127).contains(&q)));
        prop_assert_eq!(dst[0], -127);
    }
}

/// Accumulators spanning small values, the requant sweet spot, and the
/// `i32` extremes (`i32::MIN`/`i32::MAX` planted).
fn random_acc(len: usize, rng: &mut SkyRng) -> Vec<i32> {
    let mut v: Vec<i32> = (0..len)
        .map(|_| match rng.below(3) {
            0 => rng.range(-300.0, 300.0) as i32,
            1 => rng.range(-3.0e4, 3.0e4) as i32,
            _ => (rng.next_u64() >> 32) as u32 as i32,
        })
        .collect();
    if len > 0 {
        v[0] = i32::MIN;
    }
    if len > 1 {
        v[len - 1] = i32::MAX;
    }
    v
}

/// The window loop `maxpool2d_i8` keeps for `k != 2`: the oracle its
/// `k == 2` plane-parallel path must match.
fn maxpool_reference(x: &[i8], n: usize, c: usize, h: usize, w: usize, k: usize) -> Vec<i8> {
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0i8; n * c * oh * ow];
    for pi in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i8::MIN;
                for ky in 0..k {
                    for kx in 0..k {
                        best = best.max(x[pi * h * w + (oy * k + ky) * w + ox * k + kx]);
                    }
                }
                out[pi * oh * ow + oy * ow + ox] = best;
            }
        }
    }
    out
}

/// i32 wrap-around: k accumulation steps of (−128)² exceed i32::MAX
/// partway through; every backend and lane split must wrap identically
/// (two's-complement), not saturate.
#[test]
fn accumulator_wraps_identically_across_backends() {
    let k = 1usize << 18; // 2^18 · 16384 = 2^32: wraps past i32::MAX
    let n = 67; // full 32-blocks + scalar tail
    let a = vec![i8::MIN; k];
    let b = vec![i8::MIN; k * n];
    assert_backends_agree("matmul_i8 wrap", || {
        let mut c = vec![0i32; n];
        matmul_i8_acc(&a, &b, &mut c, 1, k, n);
        c
    });
    // And the wrapped value itself is pinned: 2^18 · 2^14 ≡ 0 (mod 2^32).
    let mut c = vec![0i32; n];
    matmul_i8_acc(&a, &b, &mut c, 1, k, n);
    assert!(c.iter().all(|&v| v == 0), "2^32 wraps to exactly zero");
}

/// The AVX2 matmul's register-tile boundaries: `m` across the 6-row
/// tile (1…13), `n` across the 16-column block and its zero-padded
/// panel, odd `k` (an unpaired last row) also past one 64-row panel
/// chunk, `i8::MIN` planted and accumulators seeded next to `i32::MAX`
/// so the sums wrap. Every backend, pooled and serial, must equal a
/// plain wrapping loop written here, not only the scalar backend.
#[test]
fn register_tile_boundaries_match_wrapping_oracle() {
    for k in [1usize, 3, 7, 65, 131] {
        for m in 1usize..=13 {
            for n in [1usize, 15, 16, 17, 33, 40] {
                let mut rng = SkyRng::new((k * 10_000 + m * 100 + n) as u64);
                let a = random_i8(m * k, &mut rng);
                let b = random_i8(k * n, &mut rng);
                let c0: Vec<i32> = (0..m * n).map(|i| i32::MAX - (i % 5) as i32).collect();
                let mut want = c0.clone();
                for i in 0..m {
                    for j in 0..n {
                        for p in 0..k {
                            let prod = i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
                            want[i * n + j] = want[i * n + j].wrapping_add(prod);
                        }
                    }
                }
                let run = || {
                    let mut c = c0.clone();
                    matmul_i8_acc(&a, &b, &mut c, m, k, n);
                    c
                };
                let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
                for be in simd::available_backends() {
                    assert_eq!(
                        want,
                        with_backend(be, run),
                        "m={m} k={k} n={n} {}",
                        be.name()
                    );
                    let ser = with_backend(be, || parallel::serial(run));
                    assert_eq!(want, ser, "m={m} k={k} n={n} {} serial", be.name());
                }
            }
        }
    }
}

/// Narrow shapes take the staged paths of the AVX2 kernels — DW planes
/// of at most 17 columns run each row through a zero-padded copy, and a
/// matmul's last `n % 16` columns through a zero-padded panel — so
/// sweep every width around those edges.
#[test]
fn narrow_shapes_agree_across_backends() {
    for wd in 1..=20 {
        for h in [1, 2, 5] {
            let mut rng = SkyRng::new((wd * 10 + h) as u64);
            let x = random_i8(3 * h * wd, &mut rng);
            let wt = random_i8(27, &mut rng);
            assert_backends_agree("dwconv3_i8 narrow", || {
                let mut out = vec![0i32; 3 * h * wd];
                dwconv3_i8(&x, &wt, &mut out, 1, 3, h, wd);
                out
            });
        }
    }
    for n in 1..=40 {
        for k in [1, 6, 7] {
            let mut rng = SkyRng::new((n * 10 + k) as u64);
            let a = random_i8(5 * k, &mut rng);
            let b = random_i8(k * n, &mut rng);
            assert_backends_agree("matmul_i8 narrow", || {
                let mut c: Vec<i32> = (0..5 * n as i32).collect();
                matmul_i8_acc(&a, &b, &mut c, 5, k, n);
                c
            });
        }
    }
}

/// The pinned SkyNet geometries (quarter-scale bundle widths) agree
/// across backends end-to-end through the depth-wise kernel.
#[test]
fn skynet_geometries_agree() {
    for (c, h, w) in [(12, 20, 40), (24, 10, 20), (48, 5, 10), (96, 5, 10)] {
        let mut rng = SkyRng::new((c * h + w) as u64);
        let x = random_i8(c * h * w, &mut rng);
        let wt = random_i8(c * 9, &mut rng);
        assert_backends_agree("dwconv3_i8 skynet-geo", || {
            let mut out = vec![0i32; c * h * w];
            dwconv3_i8(&x, &wt, &mut out, 1, c, h, w);
            out
        });
    }
}
