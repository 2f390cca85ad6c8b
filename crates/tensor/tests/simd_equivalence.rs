//! The cross-ISA determinism contract: every available SIMD backend must
//! be **bit-identical** to the lane-ordered scalar oracle
//! (`SKYNET_SIMD=scalar`) on every ported kernel — DW-Conv3
//! forward/backward (strides 1 and 2), the register-tiled matmul, and the
//! elementwise tails (ReLU/ReLU6, bias add, BN apply, SGD update) — over
//! random shapes/strides/pads, the pinned SkyNet geometries, and the
//! degenerate border-only case where `interior_range` is empty.
//!
//! Each comparison runs on the worker pool **and** under
//! [`parallel::serial`]; CI additionally runs the whole suite under
//! `SKYNET_THREADS=1` and the default pool, and under forced
//! `SKYNET_SIMD` values (where the forced backend must equal the oracle
//! that this suite computes by forcing `scalar` in-process).
//!
//! Backend forcing is process-global, so every test serializes on a
//! mutex; stray parallelism would still be *correct* (all backends agree
//! bitwise — that is the contract under test) but would blur attribution
//! when a backend diverges.

use proptest::prelude::*;
use skynet_tensor::conv::ConvGeometry;
use skynet_tensor::dwconv::{dwconv2d, dwconv2d_backward};
use skynet_tensor::matmul::{matmul_acc, matmul_at_b_acc};
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::{parallel, Shape, Tensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = simd::active();
    simd::force(be);
    let out = f();
    simd::force(prev);
    out
}

fn random_tensor(shape: Shape, rng: &mut SkyRng) -> Tensor {
    let data = (0..shape.numel()).map(|_| rng.range(-2.0, 2.0)).collect();
    Tensor::from_vec(shape, data).expect("length matches")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` under the scalar oracle and under every other available
/// backend (pooled and forced-serial), asserting all outputs bitwise
/// equal to the oracle's pooled output.
fn assert_backends_agree(label: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = with_backend(Backend::Scalar, &f);
    let oracle_ser = with_backend(Backend::Scalar, || parallel::serial(&f));
    assert_eq!(
        bits(&oracle),
        bits(&oracle_ser),
        "{label}: scalar pooled vs serial"
    );
    for be in simd::available_backends() {
        if be == Backend::Scalar {
            continue;
        }
        let got = with_backend(be, &f);
        assert_eq!(
            bits(&oracle),
            bits(&got),
            "{label}: {} diverged from scalar oracle (pooled)",
            be.name()
        );
        let got_ser = with_backend(be, || parallel::serial(&f));
        assert_eq!(
            bits(&oracle),
            bits(&got_ser),
            "{label}: {} diverged from scalar oracle (serial)",
            be.name()
        );
    }
}

fn dwconv_case(seed: u64, n: usize, c: usize, h: usize, w: usize, s: usize, p: usize) {
    let geo = ConvGeometry::new(3, s, p);
    if geo.out_extent(h) == 0 || geo.out_extent(w) == 0 {
        return;
    }
    let mut rng = SkyRng::new(seed);
    let x = random_tensor(Shape::new(n, c, h, w), &mut rng);
    let wt = random_tensor(Shape::new(c, 1, 3, 3), &mut rng);
    let b: Vec<f32> = (0..c).map(|_| rng.range(-1.0, 1.0)).collect();
    let os = geo.out_shape(x.shape(), c);
    let go = random_tensor(os, &mut rng);

    assert_backends_agree("dwconv fwd", || {
        dwconv2d(&x, &wt, Some(&b), geo)
            .unwrap()
            .as_slice()
            .to_vec()
    });
    assert_backends_agree("dwconv bwd", || {
        let g = dwconv2d_backward(&x, &wt, &go, geo).unwrap();
        let mut out = g.input.as_slice().to_vec();
        out.extend_from_slice(g.weight.as_slice());
        out.extend_from_slice(&g.bias);
        out
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DW-Conv3 forward + backward across backends, random geometries
    /// (strides 1–2 hit the lane path; larger pads exercise borders).
    #[test]
    fn dwconv_backends_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..5,
        h in 2usize..12,
        w in 2usize..12,
        stride in 1usize..3,
        pad in 0usize..3,
    ) {
        dwconv_case(seed, n, c, h, w, stride, pad);
    }

    /// Matmul kernels across backends, shapes straddling the tiles
    /// and lane widths (including the zero-skip via sparse `a`).
    #[test]
    fn matmul_backends_bitwise(
        seed in 0u64..1_000_000,
        m in 1usize..18,
        k in 1usize..12,
        n in 1usize..80,
        sparse_sel in 0usize..2,
    ) {
        let sparse = sparse_sel == 1;
        let mut rng = SkyRng::new(seed);
        let a: Vec<f32> = (0..m * k)
            .map(|_| {
                let v = rng.range(-2.0, 2.0);
                if sparse && rng.range(0.0, 1.0) < 0.5 { 0.0 } else { v }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.range(-2.0, 2.0)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.range(-1.0, 1.0)).collect();

        assert_backends_agree("matmul_acc", || {
            let mut c = c0.clone();
            matmul_acc(&a, &b, &mut c, m, k, n);
            c
        });
        // aᵀ·b with `a` reinterpreted as k×m.
        let at: Vec<f32> = (0..k * m).map(|_| rng.range(-2.0, 2.0)).collect();
        assert_backends_agree("matmul_at_b_acc", || {
            let mut c = c0.clone();
            matmul_at_b_acc(&at, &b, &mut c, m, k, n);
            c
        });
    }

    /// Elementwise kernels across backends: activations, bias add, BN
    /// apply (train + eval orders) and the SGD update, odd lengths so
    /// the scalar tails run too.
    #[test]
    fn elementwise_backends_bitwise(
        seed in 0u64..1_000_000,
        len in 1usize..100,
    ) {
        let mut rng = SkyRng::new(seed);
        let xs: Vec<f32> = (0..len).map(|_| rng.range(-8.0, 8.0)).collect();
        let (m, is, g, b) = (
            rng.range(-1.0, 1.0),
            rng.range(0.1, 2.0),
            rng.range(-2.0, 2.0),
            rng.range(-1.0, 1.0),
        );

        assert_backends_agree("relu", || {
            let mut v = xs.clone();
            simd::relu_inplace(&mut v);
            v
        });
        assert_backends_agree("relu6", || {
            let mut v = xs.clone();
            simd::relu6_inplace(&mut v);
            v
        });
        assert_backends_agree("bias", || {
            let mut v = xs.clone();
            simd::add_scalar_inplace(&mut v, b);
            v
        });
        assert_backends_agree("bn_train", || {
            let mut xh = vec![0.0; len];
            let mut y = vec![0.0; len];
            simd::bn_apply_train(&xs, &mut xh, &mut y, m, is, g, b);
            xh.extend_from_slice(&y);
            xh
        });
        assert_backends_agree("bn_eval", || {
            let mut y = vec![0.0; len];
            simd::bn_apply_eval(&xs, &mut y, m, is, g, b);
            y
        });

        let grad: Vec<f32> = (0..len)
            .map(|i| {
                if i % 13 == 7 {
                    f32::NAN
                } else if i % 17 == 3 {
                    f32::INFINITY
                } else {
                    rng.range(-3.0, 3.0)
                }
            })
            .collect();
        let vel0: Vec<f32> = (0..len).map(|_| rng.range(-1.0, 1.0)).collect();
        for clip in [None, Some(0.5)] {
            assert_backends_agree("sgd", || {
                let mut val = xs.clone();
                let mut vel = vel0.clone();
                simd::sgd_axpy_update(&mut val, &grad, &mut vel, 0.01, 0.9, 5e-4, clip);
                val.extend_from_slice(&vel);
                val
            });
        }
    }
}

/// The exact geometries SkyNet instantiates, pinned outside proptest.
#[test]
fn skynet_geometries_backends_bitwise() {
    for &(c, h, w, s) in &[
        (3usize, 40usize, 80usize, 1usize),
        (24, 20, 40, 1),
        (48, 10, 20, 2),
        (160, 5, 10, 1),
    ] {
        dwconv_case(0xD0E5 ^ (c as u64) << 8 ^ (s as u64), 1, c, h, w, s, 1);
    }
}

/// Degenerate 2×2 inputs under a 3×3 kernel with padding: the interior
/// range is empty, so only the scalar border stream runs — every backend
/// must still agree (and the vector accumulator fold must not run).
#[test]
fn empty_interior_is_border_only_and_agrees() {
    dwconv_case(0xBEEF, 1, 2, 2, 2, 1, 1);
    dwconv_case(0xBEF0, 2, 3, 2, 2, 2, 1);
    // 1-pixel-wide input: empty interior along x only.
    dwconv_case(0xBEF1, 1, 2, 8, 1, 1, 1);
}

/// The plain-loop oracle of the matmul contract: each element is
/// `c = c + a(i, p)·b(p, j)` over ascending `p`, skipping `a == 0`.
/// Written independently of the kernels, so a reordering that every
/// backend shares still fails it.
fn matmul_oracle(
    a: impl Fn(usize, usize) -> f32,
    b: &[f32],
    c0: &[f32],
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    let mut c = c0.to_vec();
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                let av = a(i, p);
                if av != 0.0 {
                    acc += av * b[p * n + j];
                }
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Operands with the edge values planted: `±0` weights, `−0` in `c`,
/// NaN and `±∞` in `b` — a `b` row under a zero weight must leave `c`
/// untouched, even `−0` (`−0 + 0·x` would be `+0` or NaN).
fn planted_operands(seed: u64, (m, k, n): (usize, usize, usize)) -> [Vec<f32>; 3] {
    let mut rng = SkyRng::new(seed);
    let a = (0..m * k)
        .map(|i| match i % 5 {
            1 => 0.0,
            3 => -0.0,
            _ => rng.range(-2.0, 2.0),
        })
        .collect();
    let b = (0..k * n)
        .map(|i| match i % 11 {
            2 => f32::NAN,
            5 => f32::INFINITY,
            7 => f32::NEG_INFINITY,
            _ => rng.range(-2.0, 2.0),
        })
        .collect();
    let c0 = (0..m * n)
        .map(|i| {
            if i % 3 == 0 {
                -0.0
            } else {
                rng.range(-1.0, 1.0)
            }
        })
        .collect();
    [a, b, c0]
}

/// Bits with every NaN mapped to one pattern. A NaN's sign and payload
/// are not part of the contract: when both operands of an add are NaN,
/// x86 returns the first one's, and the compiler may commute the add, so
/// `∞ − ∞` followed by a planted NaN can come out either way (the
/// backends already differed there before the register tile).
fn bits_nan_canon(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// `matmul_acc` and `matmul_at_b_acc` against the plain-loop oracle,
/// bitwise up to NaN payloads, on every backend pooled and serial: `m`
/// across the 6-row register tile (1…13), `n` across the 8- and
/// 16-column blocks and their tails (1…40), `k` ∈ {1, 2, 3, 7, 160}.
#[test]
fn matmul_matches_plain_loop_oracle() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for k in [1usize, 2, 3, 7, 160] {
        for m in 1usize..=13 {
            for n in 1usize..=40 {
                let seed = (k * 10_000 + m * 100 + n) as u64;
                let [a, b, c0] = planted_operands(seed, (m, k, n));
                let want = matmul_oracle(|i, p| a[i * k + p], &b, &c0, (m, k, n));
                let want = bits_nan_canon(&want);
                // The same values stored k×m for the transposed entry.
                let at: Vec<f32> = (0..k * m).map(|t| a[(t % m) * k + t / m]).collect();
                for be in simd::available_backends() {
                    for serial in [false, true] {
                        let run = |f: &dyn Fn(&mut [f32])| {
                            let mut c = c0.clone();
                            with_backend(be, || {
                                if serial {
                                    parallel::serial(|| f(&mut c));
                                } else {
                                    f(&mut c);
                                }
                            });
                            bits_nan_canon(&c)
                        };
                        let got = run(&|c| matmul_acc(&a, &b, c, m, k, n));
                        assert_eq!(
                            want,
                            got,
                            "matmul_acc m={m} k={k} n={n} {} serial={serial}",
                            be.name()
                        );
                        let got = run(&|c| matmul_at_b_acc(&at, &b, c, m, k, n));
                        assert_eq!(
                            want,
                            got,
                            "matmul_at_b_acc m={m} k={k} n={n} {} serial={serial}",
                            be.name()
                        );
                    }
                }
            }
        }
    }
}

/// `available_backends` is exactly the scalar oracle, plus AVX2 when
/// the CPU has it; the forced-backend hard error fires for unavailable
/// backends only.
#[test]
fn backend_forcing_contract() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let all = simd::available_backends();
    if Backend::Avx2.is_available() {
        assert_eq!(all, [Backend::Scalar, Backend::Avx2]);
    } else {
        assert_eq!(all, [Backend::Scalar]);
    }
    for be in all {
        with_backend(be, || assert_eq!(simd::active(), be));
    }
}
