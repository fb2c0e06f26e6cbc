//! The lane-identity harness for the vectorized draw pipeline (PR 5).
//!
//! The SIMD rewrite of the closed-form kernels is only safe to keep
//! iterating on because these properties pin it bit-exactly:
//!
//! * **Kernel identity** — for every model with a native kernel, the
//!   SIMD `step_batch` / `step_tilted_batch` paths produce bit-identical
//!   lane states, log-weights, and per-lane RNG positions to the
//!   [`ScalarAdapter`]-forced scalar loop at widths {1, 3, 8, 64},
//!   under partially-alive masks and mid-batch deaths. (Widths below
//!   the SIMD cohort threshold exercise the small-batch fallback; the
//!   wide ones the vectorized path — both must agree with scalar.)
//! * **Estimator identity** — driving whole estimators (s-MLSS, g-MLSS
//!   with its ledger, SRS, IS) over native-vs-adapter models yields
//!   bit-identical shards: counters, `ExactSum`-backed estimates,
//!   integer-exact `HitMoments`, per-root ledger records.
//! * **vmath conformance** — scalar and SIMD instantiations of
//!   `exp`/`ln`/`cos_tau`/the normal transform are bit-equal over a
//!   seeded grid including ±subnormal and edge inputs, and `exp`/`ln`
//!   are within 2 ULP of the libm reference.
//! * **ChaCha stream equivalence** — the multi-stream block generator
//!   equals N independent scalar `ChaCha12` streams word for word,
//!   across block boundaries and `split_rng` seeds.
//! * **Pipeline engagement** — the active backend is the detected one
//!   capped by `MLSS_SIMD`, and the walk's `step_batch` stages its draws
//!   through the pipeline exactly at full cohorts on SIMD backends, so
//!   no backend leg passes on a silent scalar fallback.
//!
//! CI runs this suite (with the rest of the workspace) under
//! `MLSS_SIMD=scalar` and `MLSS_SIMD=sse2` (the backend-matrix job) and
//! under the auto-detected backend (the build-test and scheduler jobs),
//! so "passes on every backend" is pinned for every tested width.

use durability_mlss::models::{
    ar_value_score, surplus_score, ArModel, ArState, CompoundPoisson, GeometricBrownian,
    JumpDistribution, RandomWalk,
};
use mlss_core::is::{IsEstimator, TiltableModel};
use mlss_core::prelude::*;
use mlss_core::simd::{self, chacha, vmath, Backend, KernelScratch};
use mlss_core::smlss::SMlssConfig;
use rand::RngExt;
use std::fmt::Debug;

const WIDTHS: [usize; 4] = [1, 3, 8, 64];

/// Deterministic evolving alive-set: start full, kill lanes pseudo-
/// randomly mid-run (mid-batch deaths), revive everyone when the cohort
/// runs dry — so every width sees full, partial, and near-empty masks.
fn evolve_alive(alive: &mut Vec<usize>, width: usize, pattern: &mut SimRng) {
    alive.retain(|_| pattern.random::<f64>() > 0.18);
    if alive.is_empty() {
        *alive = (0..width).collect();
    }
}

// ---- kernel-level identity -------------------------------------------------

fn check_step_batch_identity<M>(name: &str, make: impl Fn() -> M)
where
    M: SimulationModel,
    M::State: PartialEq + Debug,
{
    for &width in &WIDTHS {
        let native = make();
        let adapter = ScalarAdapter(make());
        let mut lanes_n: Vec<M::State> = (0..width).map(|_| native.initial_state()).collect();
        let mut lanes_a: Vec<M::State> = (0..width).map(|_| adapter.initial_state()).collect();
        let mut rngs_n: Vec<SimRng> = (0..width).map(|k| rng_from_seed(40 + k as u64)).collect();
        let mut rngs_a = rngs_n.clone();
        let mut alive: Vec<usize> = (0..width).collect();
        let mut pattern = rng_from_seed(7 * width as u64 + 1);
        for step in 0..60u64 {
            let ts: Vec<Time> = vec![step + 1; width];
            native.step_batch(&mut lanes_n, &ts, &mut rngs_n, &alive);
            adapter.step_batch(&mut lanes_a, &ts, &mut rngs_a, &alive);
            evolve_alive(&mut alive, width, &mut pattern);
        }
        assert_eq!(
            lanes_n, lanes_a,
            "{name}: width {width} lane states diverged"
        );
        for k in 0..width {
            assert_eq!(
                rngs_n[k].random::<u64>(),
                rngs_a[k].random::<u64>(),
                "{name}: width {width} lane {k} RNG position diverged"
            );
        }
    }
}

fn check_step_tilted_batch_identity<M>(name: &str, make: impl Fn() -> M, theta: f64)
where
    M: TiltableModel,
    M::State: PartialEq + Debug,
{
    for &width in &WIDTHS {
        let native = make();
        let adapter = ScalarAdapter(make());
        let mut lanes_n: Vec<M::State> = (0..width).map(|_| native.initial_state()).collect();
        let mut lanes_a: Vec<M::State> = (0..width).map(|_| adapter.initial_state()).collect();
        let mut lw_n = vec![0.0f64; width];
        let mut lw_a = vec![0.0f64; width];
        let mut rngs_n: Vec<SimRng> = (0..width).map(|k| rng_from_seed(90 + k as u64)).collect();
        let mut rngs_a = rngs_n.clone();
        let mut alive: Vec<usize> = (0..width).collect();
        let mut pattern = rng_from_seed(11 * width as u64 + 3);
        for step in 0..60u64 {
            let ts: Vec<Time> = vec![step + 1; width];
            native.step_tilted_batch(&mut lanes_n, &mut lw_n, &ts, theta, &mut rngs_n, &alive);
            adapter.step_tilted_batch(&mut lanes_a, &mut lw_a, &ts, theta, &mut rngs_a, &alive);
            evolve_alive(&mut alive, width, &mut pattern);
        }
        assert_eq!(
            lanes_n, lanes_a,
            "{name}: width {width} tilted lanes diverged"
        );
        for k in 0..width {
            assert_eq!(
                lw_n[k].to_bits(),
                lw_a[k].to_bits(),
                "{name}: width {width} lane {k} log-weight diverged"
            );
            assert_eq!(
                rngs_n[k].random::<u64>(),
                rngs_a[k].random::<u64>(),
                "{name}: width {width} lane {k} RNG position diverged (tilted)"
            );
        }
    }
}

#[test]
fn cpp_kernels_are_bit_identical_under_masks() {
    check_step_batch_identity("cpp", CompoundPoisson::paper_default);
    check_step_batch_identity("cpp-zero-drift", CompoundPoisson::zero_drift_default);
    // Exponential jumps exercise the vmath::ln tail of the jump sampler.
    check_step_batch_identity("cpp-exp-jumps", || {
        CompoundPoisson::new(15.0, 4.5, 0.8, JumpDistribution::Exponential { mean: 7.5 })
    });
    check_step_tilted_batch_identity("cpp", CompoundPoisson::zero_drift_default, 0.3);
    check_step_tilted_batch_identity("cpp-neg-tilt", CompoundPoisson::paper_default, -0.2);
}

#[test]
fn the_active_backend_is_the_detected_one_capped_by_mlss_simd() {
    let cap = match std::env::var("MLSS_SIMD").ok().as_deref() {
        Some("scalar") => Backend::Scalar,
        Some("sse2") => Backend::Sse2,
        Some("avx2") => Backend::Avx2,
        _ => Backend::Avx512,
    };
    assert_eq!(Backend::active(), Backend::detect().min(cap));
}

#[test]
fn walk_step_batch_takes_the_simd_pipeline_at_full_cohorts() {
    // The walk kernel stages its draws in the thread's kernel scratch
    // exactly when the pipeline engages; each cohort runs on a fresh
    // thread, whose scratch starts empty, so an empty scratch after a
    // full cohort on a SIMD backend is a silent scalar fallback.
    let n = simd::MIN_SIMD_COHORT;
    for cohort in [1, n - 1, n, 64] {
        let staged = std::thread::spawn(move || {
            let walk = RandomWalk::new(0.3, 0.3, 0);
            let mut lanes = vec![0i64; cohort];
            let ts = vec![1; cohort];
            let mut rngs: Vec<SimRng> = (0..cohort as u64).map(rng_from_seed).collect();
            let alive: Vec<usize> = (0..cohort).collect();
            walk.step_batch(&mut lanes, &ts, &mut rngs, &alive);
            simd::with_scratch(|sc| sc.words.len())
        })
        .join()
        .unwrap();
        assert_eq!(
            staged > 0,
            Backend::active() > Backend::Scalar && cohort >= n,
            "cohort {cohort} on backend {}",
            Backend::active()
        );
    }
}

#[test]
fn walk_kernels_are_bit_identical_under_masks() {
    check_step_batch_identity("walk", || RandomWalk::new(0.3, 0.3, 2).reflected());
    check_step_batch_identity("walk-free", || RandomWalk::new(0.45, 0.35, 0));
    check_step_tilted_batch_identity("walk", || RandomWalk::new(0.3, 0.3, 2).reflected(), 0.4);
    check_step_tilted_batch_identity("walk-free", || RandomWalk::new(0.45, 0.35, 0), -0.25);
}

#[test]
fn gbm_kernels_are_bit_identical_under_masks() {
    check_step_batch_identity("gbm", GeometricBrownian::goog_like);
    check_step_tilted_batch_identity("gbm", GeometricBrownian::goog_like, 0.5);
}

#[test]
fn ar_tilted_kernel_is_bit_identical_under_masks() {
    check_step_tilted_batch_identity(
        "ar",
        || ArModel::new(vec![0.5, 0.2, -0.1], 0.4, vec![1.0, 0.5, 0.0]),
        0.35,
    );
}

// ---- estimator-level identity ---------------------------------------------

type CppVf = RatioValue<fn(&f64) -> f64>;

fn cpp_vf(beta: f64) -> CppVf {
    RatioValue::new(surplus_score as fn(&f64) -> f64, beta)
}

type WalkVf = RatioValue<fn(&i64) -> f64>;

fn walk_vf(beta: f64) -> WalkVf {
    fn score(s: &i64) -> f64 {
        *s as f64
    }
    RatioValue::new(score as fn(&i64) -> f64, beta)
}

type ArVf = RatioValue<fn(&ArState) -> f64>;

fn ar_vf(beta: f64) -> ArVf {
    RatioValue::new(ar_value_score as fn(&ArState) -> f64, beta)
}

/// Run a whole chunk and summarize everything the shard exposes:
/// counters, estimate bits (τ̂ and variance ride on `ExactSum` /
/// `HitMoments`), and the cursor's exit position.
fn shard_signature<M, V, E>(
    estimator: &E,
    problem: Problem<'_, M, V>,
    budget: u64,
    seed: u64,
    width: usize,
) -> (u64, u64, u64, u64, u64, u64)
where
    M: SimulationModel,
    V: ValueFunction<M::State>,
    E: Estimator<M, V>,
{
    let mut roots = RootCursor::new(seed);
    let mut shard = estimator.shard();
    estimator.run_chunk(problem, &mut shard, budget, &mut roots, width);
    let est = estimator.estimate(&shard, &mut rng_from_seed(0));
    (
        shard.steps(),
        shard.n_roots(),
        est.hits,
        est.tau.to_bits(),
        est.variance.to_bits(),
        roots.next,
    )
}

#[test]
fn estimators_agree_native_vs_adapter_at_every_width() {
    // SRS and s-MLSS over the cpp native kernel; SRS over walk and gbm.
    for &width in &WIDTHS {
        let v = cpp_vf(40.0);
        let native = CompoundPoisson::zero_drift_default();
        let adapted = ScalarAdapter(CompoundPoisson::zero_drift_default());
        let cfg = SMlssConfig::new(
            PartitionPlan::new(vec![0.4, 0.7]).unwrap(),
            RunControl::budget(1),
        );
        assert_eq!(
            shard_signature(&cfg, Problem::new(&native, &v, 80), 40_000, 5, width),
            shard_signature(&cfg, Problem::new(&adapted, &v, 80), 40_000, 5, width),
            "smlss/cpp width {width}"
        );
        assert_eq!(
            shard_signature(
                &SrsEstimator,
                Problem::new(&native, &v, 80),
                40_000,
                5,
                width
            ),
            shard_signature(
                &SrsEstimator,
                Problem::new(&adapted, &v, 80),
                40_000,
                5,
                width
            ),
            "srs/cpp width {width}"
        );

        let wv = walk_vf(8.0);
        let w_native = RandomWalk::new(0.35, 0.3, 0).reflected();
        let w_adapted = ScalarAdapter(RandomWalk::new(0.35, 0.3, 0).reflected());
        assert_eq!(
            shard_signature(
                &SrsEstimator,
                Problem::new(&w_native, &wv, 60),
                40_000,
                6,
                width
            ),
            shard_signature(
                &SrsEstimator,
                Problem::new(&w_adapted, &wv, 60),
                40_000,
                6,
                width
            ),
            "srs/walk width {width}"
        );

        let gv = cpp_vf(560.0);
        let g_native = GeometricBrownian::goog_like();
        let g_adapted = ScalarAdapter(GeometricBrownian::goog_like());
        assert_eq!(
            shard_signature(
                &SrsEstimator,
                Problem::new(&g_native, &gv, 40),
                40_000,
                7,
                width
            ),
            shard_signature(
                &SrsEstimator,
                Problem::new(&g_adapted, &gv, 40),
                40_000,
                7,
                width
            ),
            "srs/gbm width {width}"
        );
    }
}

#[test]
fn gmlss_ledger_agrees_native_vs_adapter_record_for_record() {
    // The bootstrap replays the ledger by index: records (not just
    // aggregates) must match between the native SIMD kernel and the
    // adapter, at a width that runs the vectorized path.
    let v = cpp_vf(40.0);
    let mut cfg = GMlssConfig::new(
        PartitionPlan::new(vec![0.4, 0.5]).unwrap(),
        RunControl::budget(1),
    );
    cfg.keep_ledger = true;
    let run = |use_native: bool| {
        let mut roots = RootCursor::new(12);
        if use_native {
            let model = CompoundPoisson::zero_drift_default();
            let problem = Problem::new(&model, &v, 80);
            let mut shard = mlss_core::estimator::shard_for(&cfg, &problem);
            cfg.run_chunk(problem, &mut shard, 40_000, &mut roots, 64);
            let n = shard.ledger.n_roots();
            let hits: Vec<u32> = (0..n).map(|i| shard.ledger.root_hits(i)).collect();
            (n, hits, shard.ledger.aggregate(), shard.tau().to_bits())
        } else {
            let model = ScalarAdapter(CompoundPoisson::zero_drift_default());
            let problem = Problem::new(&model, &v, 80);
            let mut shard = mlss_core::estimator::shard_for(&cfg, &problem);
            cfg.run_chunk(problem, &mut shard, 40_000, &mut roots, 64);
            let n = shard.ledger.n_roots();
            let hits: Vec<u32> = (0..n).map(|i| shard.ledger.root_hits(i)).collect();
            (n, hits, shard.ledger.aggregate(), shard.tau().to_bits())
        }
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn is_estimator_agrees_native_vs_adapter_on_every_tilted_model() {
    for &width in &WIDTHS {
        let v = cpp_vf(40.0);
        let native = CompoundPoisson::zero_drift_default();
        let adapted = ScalarAdapter(CompoundPoisson::zero_drift_default());
        assert_eq!(
            shard_signature(
                &IsEstimator::new(0.3),
                Problem::new(&native, &v, 80),
                30_000,
                8,
                width
            ),
            shard_signature(
                &IsEstimator::new(0.3),
                Problem::new(&adapted, &v, 80),
                30_000,
                8,
                width
            ),
            "is/cpp width {width}"
        );

        let wv = walk_vf(10.0);
        let w_native = RandomWalk::new(0.3, 0.3, 0);
        let w_adapted = ScalarAdapter(RandomWalk::new(0.3, 0.3, 0));
        assert_eq!(
            shard_signature(
                &IsEstimator::new(0.4),
                Problem::new(&w_native, &wv, 60),
                30_000,
                9,
                width
            ),
            shard_signature(
                &IsEstimator::new(0.4),
                Problem::new(&w_adapted, &wv, 60),
                30_000,
                9,
                width
            ),
            "is/walk width {width}"
        );

        let gv = cpp_vf(600.0);
        let g_native = GeometricBrownian::goog_like();
        let g_adapted = ScalarAdapter(GeometricBrownian::goog_like());
        assert_eq!(
            shard_signature(
                &IsEstimator::new(0.6),
                Problem::new(&g_native, &gv, 50),
                30_000,
                10,
                width
            ),
            shard_signature(
                &IsEstimator::new(0.6),
                Problem::new(&g_adapted, &gv, 50),
                30_000,
                10,
                width
            ),
            "is/gbm width {width}"
        );

        let av = ar_vf(6.0);
        let a_native = ArModel::ar1(0.6, 1.0, 0.0);
        let a_adapted = ScalarAdapter(ArModel::ar1(0.6, 1.0, 0.0));
        assert_eq!(
            shard_signature(
                &IsEstimator::new(0.4),
                Problem::new(&a_native, &av, 60),
                30_000,
                11,
                width
            ),
            shard_signature(
                &IsEstimator::new(0.4),
                Problem::new(&a_adapted, &av, 60),
                30_000,
                11,
                width
            ),
            "is/ar width {width}"
        );
    }
}

// ---- vmath conformance ----------------------------------------------------

fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
    let ma = if ia < 0 { i64::MIN - ia } else { ia };
    let mb = if ib < 0 { i64::MIN - ib } else { ib };
    ma.abs_diff(mb)
}

/// The seeded conformance grid: dense random coverage plus every edge
/// class — ±subnormals, ±0, ±∞, NaN, overflow/underflow boundaries.
fn conformance_grid() -> Vec<f64> {
    let mut rng = rng_from_seed(2026);
    let mut grid: Vec<f64> = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        709.782712893384,
        -745.1332191019411,
        1.0,
        -1.0,
        1.0 - 1e-16,
        1.0 + 2e-16,
    ];
    for _ in 0..4_000 {
        // Uniformly spread exponents across the whole double range,
        // both signs, including the subnormal band.
        let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
        let exp2 = (rng.random::<f64>() - 0.5) * 2160.0;
        grid.push(sign * exp2.exp2() * (1.0 + rng.random::<f64>()));
        grid.push((rng.random::<f64>() - 0.5) * 1500.0);
    }
    grid
}

#[test]
fn vmath_scalar_and_simd_are_bit_equal_on_the_conformance_grid() {
    let grid = conformance_grid();
    let mut words: Vec<u64> = Vec::new();
    let mut rng = rng_from_seed(99);
    for _ in 0..2 * grid.len() {
        words.push(rng.random::<u64>());
    }
    for backend in Backend::available() {
        let mut e = grid.clone();
        vmath::exp_slice_with(backend, &mut e);
        let mut l = grid.clone();
        vmath::ln_slice_with(backend, &mut l);
        let mut c = grid.clone();
        vmath::cos_tau_slice_with(backend, &mut c);
        for (k, &x) in grid.iter().enumerate() {
            assert_eq!(
                e[k].to_bits(),
                vmath::exp(x).to_bits(),
                "{backend} exp({x:e})"
            );
            assert_eq!(
                l[k].to_bits(),
                vmath::ln(x).to_bits(),
                "{backend} ln({x:e})"
            );
            if x.abs() < 2.0f64.powi(50) {
                // cos_tau's magic-number reduction is specified for the
                // draw domain; pin it wherever reduction is defined.
                assert_eq!(
                    c[k].to_bits(),
                    vmath::cos_tau(x).to_bits(),
                    "{backend} cos_tau({x:e})"
                );
            }
        }
        let mut z = vec![0.0; grid.len()];
        vmath::normal_from_words_with(backend, &words, &mut z);
        for (k, zk) in z.iter().enumerate() {
            assert_eq!(
                zk.to_bits(),
                vmath::normal01_words(words[2 * k], words[2 * k + 1]).to_bits(),
                "{backend} normal lane {k}"
            );
        }
        let mut u = vec![0.0; grid.len()];
        vmath::u01_slice_with(backend, &words[..grid.len()], &mut u);
        for (k, uk) in u.iter().enumerate() {
            assert_eq!(
                uk.to_bits(),
                vmath::u01(words[k]).to_bits(),
                "{backend} u01 {k}"
            );
        }
    }
}

#[test]
fn vmath_exp_ln_are_within_two_ulp_of_libm() {
    // The documented ULP budget of the shared polynomial, pinned over a
    // seeded grid of in-range arguments (docs/kernel.md).
    let mut rng = rng_from_seed(77);
    let mut worst_exp = 0u64;
    let mut worst_ln = 0u64;
    for _ in 0..50_000 {
        let x = (rng.random::<f64>() - 0.5) * 1400.0;
        worst_exp = worst_exp.max(ulp_diff(vmath::exp(x), x.exp()));
        let y = ((rng.random::<f64>() - 0.5) * 2100.0).exp2() * (1.0 + rng.random::<f64>());
        worst_ln = worst_ln.max(ulp_diff(vmath::ln(y), y.ln()));
    }
    // NaN / ∞ / negative-domain agreement with libm semantics.
    assert!(vmath::ln(-3.0).is_nan());
    assert_eq!(vmath::exp(f64::NEG_INFINITY), 0.0);
    assert!(worst_exp <= 2, "exp worst error {worst_exp} ULP");
    assert!(worst_ln <= 2, "ln worst error {worst_ln} ULP");
}

// ---- ChaCha stream equivalence --------------------------------------------

#[test]
fn multi_stream_blocks_equal_scalar_streams_word_for_word() {
    // N independent streams from split_rng seeds: draining B blocks per
    // stream through the multi-stream generator must equal the scalar
    // streams' u32 word sequences exactly, across block boundaries.
    for backend in Backend::available() {
        let mut parent = rng_from_seed(314);
        let n = 13;
        let mut streams: Vec<SimRng> = (0..n).map(|_| split_rng(&mut parent)).collect();
        let mut scalars = streams.clone();
        for _round in 0..5 {
            let keys: Vec<[u32; 8]> = streams.iter().map(|r| *r.block_key()).collect();
            let counters: Vec<u64> = streams.iter().map(|r| r.block_counter()).collect();
            let mut blocks = vec![[0u32; 16]; n];
            chacha::compute_blocks_with(backend, &keys, &counters, &mut blocks);
            for (s, block) in streams.iter_mut().zip(&blocks) {
                // Drain whatever remains of the current block first so the
                // scalar stream crosses its boundary in lockstep.
                while s.words_remaining() > 0 {
                    let _ = rand::RngCore::next_u32(s);
                }
                s.install_block(*block);
            }
            for (s, reference) in streams.iter_mut().zip(scalars.iter_mut()) {
                for _ in 0..16 {
                    assert_eq!(
                        rand::RngCore::next_u32(s),
                        rand::RngCore::next_u32(reference),
                        "{backend}: word mismatch"
                    );
                }
            }
        }
    }
}

#[test]
fn gathered_draws_equal_scalar_streams_across_seeds() {
    // The gather front end over split_rng children at staggered
    // positions, interleaved with direct scalar draws: values and
    // stream positions stay in lockstep with pure scalar streams.
    let mut parent_a = rng_from_seed(271);
    let mut parent_b = rng_from_seed(271);
    let n = 11usize;
    let mut gathered: Vec<SimRng> = (0..n).map(|_| split_rng(&mut parent_a)).collect();
    let mut scalar: Vec<SimRng> = (0..n).map(|_| split_rng(&mut parent_b)).collect();
    // Stagger positions so lanes sit at different block offsets.
    for (k, (g, s)) in gathered.iter_mut().zip(scalar.iter_mut()).enumerate() {
        for _ in 0..(k % 5) {
            let _ = g.random::<u64>();
            let _ = s.random::<u64>();
        }
    }
    let lanes: Vec<usize> = (0..n).collect();
    let mut sc = KernelScratch::default();
    let mut pattern = rng_from_seed(4);
    for round in 0..40 {
        let per_lane = 1 + round % 3;
        chacha::gather_u64(&mut gathered, &lanes, per_lane, &mut sc);
        for (j, &i) in lanes.iter().enumerate() {
            for d in 0..per_lane {
                assert_eq!(
                    sc.words[j * per_lane + d],
                    scalar[i].random::<u64>(),
                    "round {round} lane {i} draw {d}"
                );
            }
        }
        // Interleave direct scalar draws on a pseudo-random lane — the
        // gather must keep working from arbitrary positions.
        let pick = pattern.random_range(0..n);
        assert_eq!(
            gathered[pick].random::<u64>(),
            scalar[pick].random::<u64>(),
            "interleaved draw, lane {pick}"
        );
    }
}
