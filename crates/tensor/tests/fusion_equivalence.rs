//! Fused-bundle equivalence: `fused::fused_bundle_forward` must be
//! **bit-identical** to the unfused layer-by-layer composition
//! (`dwconv2d → bn_apply_eval → relu/relu6 → conv2d → bn_apply_eval →
//! relu/relu6`) over random shapes/strides, the pinned SkyNet bundle
//! geometries, and every available `SKYNET_SIMD` backend — pooled and
//! forced-serial. CI additionally runs this suite under
//! `SKYNET_THREADS=1` and the default pool, and with `SKYNET_FUSION`
//! on/off (the toggle must not affect these kernel-level calls at all).
//!
//! The pooled stores (`fused_bundle_forward_store` with
//! `BundleStore::Pool`/`PoolFork`) are held to the staged oracle
//! `fused_bundle_forward → maxpool2d (→ reorg)` the same way, with
//! planted NaN/±∞/±0 inputs and saturating epilogues that make
//! equal-value ties, and must return the staged path's exact error when
//! the bundle output has an odd extent.
//!
//! Backend forcing is process-global, so tests serialize on a mutex
//! (same discipline as `simd_equivalence`).

use proptest::prelude::*;
use skynet_tensor::conv::{conv2d, ConvGeometry};
use skynet_tensor::dwconv::dwconv2d;
use skynet_tensor::fused::{fused_bundle_forward, fused_bundle_forward_store, BnAct, BundleStore};
use skynet_tensor::pool::maxpool2d;
use skynet_tensor::reorg::reorg;
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::{ops, parallel, Result, Shape, Tensor};
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

fn random_bnact(rng: &mut SkyRng, c: usize, ceiling: Option<f32>) -> BnAct {
    BnAct::new(
        (0..c).map(|_| rng.range(-0.5, 0.5)).collect(),
        &(0..c).map(|_| rng.range(0.05, 1.5)).collect::<Vec<_>>(),
        1e-5,
        (0..c).map(|_| rng.range(0.5, 1.5)).collect(),
        (0..c).map(|_| rng.range(-0.5, 0.5)).collect(),
        ceiling,
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The unfused oracle: the exact eval-mode layer sequence of a bundle.
fn unfused_bundle(
    x: &Tensor,
    dw_w: &Tensor,
    geo: ConvGeometry,
    bn1: &BnAct,
    pw_w: &Tensor,
    bn2: &BnAct,
) -> Tensor {
    let bn_act = |t: &Tensor, bn: &BnAct| {
        let s = t.shape();
        let mut y = Tensor::zeros(s);
        for n in 0..s.n {
            for ch in 0..s.c {
                let o = (n * s.c + ch) * s.plane();
                simd::bn_apply_eval(
                    &t.as_slice()[o..o + s.plane()],
                    &mut y.as_mut_slice()[o..o + s.plane()],
                    bn.mean[ch],
                    bn.inv_std[ch],
                    bn.gamma[ch],
                    bn.beta[ch],
                );
            }
        }
        if bn.ceiling.is_finite() {
            ops::relu6(&y)
        } else {
            ops::relu(&y)
        }
    };
    let t = dwconv2d(x, dw_w, None, geo).unwrap();
    let t = bn_act(&t, bn1);
    let t = conv2d(&t, pw_w, None, ConvGeometry::pointwise()).unwrap();
    bn_act(&t, bn2)
}

/// Asserts fused == unfused bitwise on every available backend, pooled
/// and serial, with the scalar unfused run as the cross-backend anchor.
#[allow(clippy::too_many_arguments)]
fn bundle_case(
    seed: u64,
    n: usize,
    c: usize,
    c2: usize,
    h: usize,
    w: usize,
    s: usize,
    relu6: bool,
) {
    let geo = ConvGeometry::new(3, s, 1);
    if geo.out_extent(h) == 0 || geo.out_extent(w) == 0 {
        return;
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SkyRng::new(seed);
    let x = random_tensor(Shape::new(n, c, h, w), &mut rng);
    let dw_w = random_tensor(Shape::new(c, 1, 3, 3), &mut rng);
    let pw_w = random_tensor(Shape::new(c2, c, 1, 1), &mut rng);
    let ceiling = if relu6 { Some(6.0) } else { None };
    let bn1 = random_bnact(&mut rng, c, ceiling);
    let bn2 = random_bnact(&mut rng, c2, ceiling);

    let anchor = with_backend(Backend::Scalar, || {
        unfused_bundle(&x, &dw_w, geo, &bn1, &pw_w, &bn2)
            .as_slice()
            .to_vec()
    });
    for be in simd::available_backends() {
        let label = be.name();
        let unf = with_backend(be, || {
            unfused_bundle(&x, &dw_w, geo, &bn1, &pw_w, &bn2)
                .as_slice()
                .to_vec()
        });
        assert_eq!(bits(&anchor), bits(&unf), "{label}: unfused vs scalar");
        let fus = with_backend(be, || {
            fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2)
                .unwrap()
                .as_slice()
                .to_vec()
        });
        assert_eq!(
            bits(&anchor),
            bits(&fus),
            "{label}: fused vs unfused (pooled)"
        );
        let fus_ser = with_backend(be, || {
            parallel::serial(|| {
                fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2)
                    .unwrap()
                    .as_slice()
                    .to_vec()
            })
        });
        assert_eq!(
            bits(&anchor),
            bits(&fus_ser),
            "{label}: fused vs unfused (serial)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random bundle geometries: the fused executor agrees with the
    /// layerwise oracle bitwise on every backend.
    #[test]
    fn fused_bundle_matches_unfused_random(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..7,
        c2 in 1usize..9,
        h in 1usize..20,
        w in 1usize..24,
        stride in 1usize..3,
        relu6 in 0usize..2,
    ) {
        bundle_case(seed, n, c, c2, h, w, stride, relu6 == 1);
    }
}

/// The pinned SkyNet model-C bundle geometries at width divisor 8
/// (the shapes `kernel_bench` times), plus the full-width first bundle.
#[test]
fn fused_bundle_matches_unfused_skynet_geometries() {
    for &(seed, n, c, c2, h, w) in &[
        (1u64, 1usize, 3usize, 6usize, 40usize, 80usize), // bundle1 (÷8)
        (2, 1, 6, 12, 20, 40),                            // bundle2
        (3, 1, 12, 24, 10, 20),                           // bundle3
        (4, 1, 24, 48, 5, 10),                            // bundle4
        (5, 1, 48, 64, 5, 10),                            // bundle5
        (6, 1, 160, 12, 5, 10),                           // bundle6 (48+96·?/8 concat)
        (7, 2, 12, 24, 10, 20),                           // batched
    ] {
        bundle_case(seed, n, c, c2, h, w, 1, true);
    }
}

/// Degenerate spatial extents: rows shorter than one vector block,
/// border-only planes, single pixels.
#[test]
fn fused_bundle_matches_unfused_degenerate() {
    for &(seed, h, w) in &[
        (11u64, 1usize, 1usize),
        (12, 1, 9),
        (13, 9, 1),
        (14, 2, 2),
        (15, 3, 40),
    ] {
        bundle_case(seed, 1, 3, 4, h, w, 1, true);
        bundle_case(seed, 1, 3, 4, h, w, 2, false);
    }
}

/// The staged oracle of a pooled store: the full fused map, then the
/// reorg fork (taken first, as in the network) and the 2×2 pool.
fn staged_pooled(
    x: &Tensor,
    dw_w: &Tensor,
    geo: ConvGeometry,
    bn1: &BnAct,
    pw_w: &Tensor,
    bn2: &BnAct,
    store: BundleStore,
) -> Result<(Tensor, Option<Tensor>)> {
    let full = fused_bundle_forward(x, dw_w, geo, bn1, pw_w, bn2)?;
    let bypass = if store.forks() {
        Some(reorg(&full, 2)?)
    } else {
        None
    };
    Ok((maxpool2d(&full, 2)?.output, bypass))
}

fn bits_of(
    r: &Result<(Tensor, Option<Tensor>)>,
) -> std::result::Result<(Vec<u32>, Option<Vec<u32>>), String> {
    match r {
        Ok((out, by)) => Ok((
            bits(out.as_slice()),
            by.as_ref().map(|b| bits(b.as_slice())),
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Asserts the pooled (and forked) store equals the staged oracle
/// bitwise — or fails with the same error — on every backend, pooled
/// and serial. `plant` seeds the input with NaN, ±∞ and ±0 and pushes
/// BN₂ into saturation so output windows hold equal-value ties (0.0
/// floors, 6.0 ceilings, +∞ under plain ReLU). The activation maps NaN
/// and −0.0 to +0.0, so a bundle output never holds NaN, −0.0 or −∞;
/// the store kernel's handling of those in every window position is
/// pinned by the `fused` unit test on special windows.
#[allow(clippy::too_many_arguments)]
fn pooled_case(
    seed: u64,
    n: usize,
    (c, c2): (usize, usize),
    (h, w): (usize, usize),
    s: usize,
    relu6: bool,
    fork: bool,
    plant: bool,
) {
    let geo = ConvGeometry::new(3, s, 1);
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SkyRng::new(seed);
    let mut x = random_tensor(Shape::new(n, c, h, w), &mut rng);
    let dw_w = random_tensor(Shape::new(c, 1, 3, 3), &mut rng);
    let pw_w = random_tensor(Shape::new(c2, c, 1, 1), &mut rng);
    let ceiling = if relu6 { Some(6.0) } else { None };
    let bn1 = random_bnact(&mut rng, c, ceiling);
    let mut bn2 = random_bnact(&mut rng, c2, ceiling);
    if plant {
        let data = x.as_mut_slice();
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0] {
            let at = rng.range(0.0, data.len() as f32) as usize;
            data[at.min(data.len() - 1)] = v;
        }
        for (ch, g) in bn2.gamma.iter_mut().enumerate() {
            *g *= if ch % 2 == 0 { 40.0 } else { -40.0 };
        }
    }
    let store = if fork {
        BundleStore::PoolFork
    } else {
        BundleStore::Pool
    };
    let want = with_backend(Backend::Scalar, || {
        bits_of(&staged_pooled(&x, &dw_w, geo, &bn1, &pw_w, &bn2, store))
    });
    for be in simd::available_backends() {
        let label = be.name();
        let run = || {
            bits_of(&fused_bundle_forward_store(
                &x, &dw_w, geo, &bn1, &pw_w, &bn2, store,
            ))
        };
        let staged = with_backend(be, || {
            bits_of(&staged_pooled(&x, &dw_w, geo, &bn1, &pw_w, &bn2, store))
        });
        assert_eq!(want, staged, "{label}: staged vs scalar");
        let pooled = with_backend(be, run);
        assert_eq!(want, pooled, "{label} fork={fork}: folded store (pooled)");
        let serial = with_backend(be, || parallel::serial(run));
        assert_eq!(want, serial, "{label} fork={fork}: folded store (serial)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random geometries (odd extents included, which must fail like
    /// the staged pool/reorg), strides, batch sizes up to a full serve
    /// batch, planted specials: the folded store agrees with the
    /// staged oracle bitwise on every backend.
    #[test]
    fn pooled_store_matches_staged_random(
        seed in 0u64..1_000_000,
        n_sel in 0usize..3,
        c in 1usize..6,
        c2 in 1usize..7,
        h in 1usize..22,
        w in 1usize..40,
        stride in 1usize..3,
        relu6 in 0usize..2,
        fork in 0usize..2,
        plant in 0usize..2,
    ) {
        let n = [1, 3, 8][n_sel];
        pooled_case(seed, n, (c, c2), (h, w), stride, relu6 == 1, fork == 1, plant == 1);
    }
}

/// Pinned cases: a band whose natural height is odd (h = 40 cuts into
/// 5-row bands unpooled), the SkyNet pooled-bundle geometries (Bundle 3
/// forks), batches of 1, 3 and 8, and stride-2 DW.
#[test]
fn pooled_store_matches_staged_pinned() {
    for &n in &[1usize, 3, 8] {
        pooled_case(21, n, (3, 4), (40, 24), 1, true, false, true);
        pooled_case(22, n, (3, 4), (40, 24), 1, true, true, false);
        pooled_case(23, n, (4, 5), (18, 22), 2, false, true, true);
    }
    pooled_case(24, 1, (3, 6), (40, 80), 1, true, false, false); // bundle 1 (÷8, ¼ scale)
    pooled_case(25, 1, (6, 12), (20, 40), 1, true, false, true); // bundle 2
    pooled_case(26, 1, (12, 24), (10, 20), 1, true, true, true); // bundle 3 + fork
}

/// An odd bundle-output extent fails the folded store with exactly the
/// error the staged path raises: `reorg`'s for a forking store (the
/// fork runs before the pool), `maxpool2d`'s otherwise.
#[test]
fn pooled_store_odd_extent_errors_like_the_staged_path() {
    let mut rng = SkyRng::new(31);
    let x = random_tensor(Shape::new(1, 2, 7, 8), &mut rng);
    let dw_w = random_tensor(Shape::new(2, 1, 3, 3), &mut rng);
    let pw_w = random_tensor(Shape::new(3, 2, 1, 1), &mut rng);
    let bn1 = random_bnact(&mut rng, 2, Some(6.0));
    let bn2 = random_bnact(&mut rng, 3, Some(6.0));
    let geo = ConvGeometry::same3x3();
    for store in [BundleStore::Pool, BundleStore::PoolFork] {
        let folded = fused_bundle_forward_store(&x, &dw_w, geo, &bn1, &pw_w, &bn2, store);
        let staged = staged_pooled(&x, &dw_w, geo, &bn1, &pw_w, &bn2, store);
        let err = folded.expect_err("7 rows cannot pool");
        assert_eq!(Some(err), staged.err(), "{store:?}");
    }
}
