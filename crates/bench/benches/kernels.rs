//! `kernels`: the inference fast-path benches. `gemm_kernels` compares the
//! naive triple loop, the self-dispatching kernel, the register-tiled
//! microkernel, and the retired packed row-blocked kernel on ResNet-20-
//! and MobileNetV2-shaped im2col matrices; `depthwise` times the
//! production depthwise convolution (`conv2d_with`, the vectorised
//! kernel) against the scalar `conv2d_direct` loop on MobileNetV2's
//! depthwise shapes; `campaign_fast_path` measures
//! the end-to-end bit-level campaign with the pre-optimisation path
//! (naive kernels, no lowering cache) against the per-image fast path
//! (dispatched GEMM, cached lowerings, scratch arenas) and the
//! compiled-plan batched path (all eval images in one GEMM per node),
//! asserting the classifications stay byte-identical. Under `cargo bench`
//! the comparison is written to `BENCH_kernels.json` at the workspace
//! root, including the microkernel speedup per shape, the end-to-end
//! trajectory against the recorded PR 9 baseline, and a host fingerprint.
//! With `--smoke` the binary runs a seconds-scale regression guard
//! instead and exits non-zero if the dispatched GEMM is slower than the
//! naive one at any shape, the microkernel is not the selected tier on
//! the shapes it owns, the production depthwise kernel is slower than or
//! not bit-identical to the scalar loop at any depthwise shape, or the
//! batched campaign diverges from the per-image one (used by CI).

use std::time::{Duration, Instant};

use criterion::{BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sfi_bench::{host_fingerprint, resnet20_setup, Scale};
use sfi_faultsim::campaign::{run_campaign, CampaignConfig, Ieee754Corruption};
use sfi_faultsim::fault::Fault;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::{KernelPolicy, BATCHED_HEDGE_CONVERGENT};
use sfi_stats::sampling::sample_without_replacement;
use sfi_tensor::ops::{
    conv2d_direct, conv2d_with, gemm, gemm_blocked_with, gemm_micro, gemm_packed_rows,
    gemm_selected_kernel, Conv2dCfg,
};
use sfi_tensor::{ScratchArena, Tensor};

/// PR 9's recorded end-to-end per-image fast path on the full-scale
/// bit-level campaign (`fast_cached_mean_s` in that PR's
/// BENCH_kernels.json) — the baseline the microkernel layer is measured
/// against. Absolute seconds, same workload and (per the recorded host
/// fingerprint) same machine class.
const PR9_FAST_CACHED_MEAN_S: f64 = 0.595611;

/// Convolution GEMM shapes at CIFAR resolution: `m` = output channels,
/// `k` = `c_in * k_h * k_w`, `n` = output pixels per image.
///
/// The `resnet20` family covers one shape per stage plus a tall-`n`
/// stress shape that crosses both the `BLOCK_N` and `BLOCK_K` tile
/// boundaries, plus two mid-width L2-resident shapes covering the class
/// where a row-blocked kernel once regressed to 0.74x and the dispatch
/// must stay on the naive loop. The `mbv2-pw` family is MobileNetV2's
/// 1x1 pointwise convolutions (expansion and projection, early 32x32
/// stages through the final 1280-channel head at 4x4). MobileNetV2's 3x3
/// depthwise convolutions take no GEMM at all — they run the vectorised
/// depthwise kernel, timed by [`DW_SHAPES`].
const SHAPES: [(&str, usize, usize, usize); 10] = [
    ("resnet20", 16, 144, 1024),
    ("resnet20", 16, 144, 256),
    ("resnet20", 32, 288, 256),
    ("resnet20", 32, 288, 512),
    ("resnet20", 64, 576, 64),
    ("resnet20", 64, 576, 1024),
    ("mbv2-pw", 96, 16, 1024),
    ("mbv2-pw", 24, 96, 1024),
    ("mbv2-pw", 192, 32, 256),
    ("mbv2-pw", 1280, 320, 16),
];

/// MobileNetV2's 3x3 depthwise convolutions at CIFAR resolution, one image:
/// `(channels, height, width, stride)` of the input. One row per plane
/// size the network runs, plus the stride-2 entry into stage 2.
const DW_SHAPES: [(usize, usize, usize, usize); 5] =
    [(144, 32, 32, 1), (144, 32, 32, 2), (192, 16, 16, 1), (576, 8, 8, 1), (960, 4, 4, 1)];

/// Every depthwise node of the full-width CIFAR MobileNetV2 (17, one per
/// inverted-residual block), in network order, as `(channels, height,
/// width, stride)` of its input.
const DW_NODES: [(usize, usize, usize, usize); 17] = [
    (32, 32, 32, 1),
    (96, 32, 32, 1),
    (144, 32, 32, 1),
    (144, 32, 32, 2),
    (192, 16, 16, 1),
    (192, 16, 16, 1),
    (192, 16, 16, 2),
    (384, 8, 8, 1),
    (384, 8, 8, 1),
    (384, 8, 8, 1),
    (384, 8, 8, 1),
    (576, 8, 8, 1),
    (576, 8, 8, 1),
    (576, 8, 8, 2),
    (960, 4, 4, 1),
    (960, 4, 4, 1),
    (960, 4, 4, 1),
];

/// Input, weight and configuration of one depthwise shape.
fn depthwise_operands(
    (c, h, w, stride): (usize, usize, usize, usize),
) -> (Tensor, Tensor, Conv2dCfg) {
    let input = Tensor::from_vec([1, c, h, w], filled(c * h * w, 3)).unwrap();
    let weight = Tensor::from_vec([c, 1, 3, 3], filled(c * 9, 4)).unwrap();
    (input, weight, Conv2dCfg::same(stride).with_groups(c))
}

/// Minimum times of the scalar `conv2d_direct` loop and the production
/// arena-backed depthwise kernel on one shape, measured in interleaved
/// rounds, plus whether their outputs agree bit for bit.
fn time_depthwise(shape: (usize, usize, usize, usize), iters: usize, rounds: usize) -> DwTiming {
    let (input, weight, cfg) = depthwise_operands(shape);
    let mut arena = ScratchArena::new();
    let oracle = conv2d_direct(&input, &weight, None, cfg).unwrap();
    let production = conv2d_with(&input, &weight, None, cfg, &mut arena).unwrap();
    let bit_identical = oracle.bits_equal(&production);
    arena.recycle(production.into_vec());
    let (mut direct, mut fast) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        direct = direct.min(min_secs(
            || {
                conv2d_direct(&input, &weight, None, cfg).unwrap();
            },
            iters,
        ));
        fast = fast.min(min_secs(
            || {
                let out = conv2d_with(&input, &weight, None, cfg, &mut arena).unwrap();
                arena.recycle(out.into_vec());
            },
            iters,
        ));
    }
    DwTiming { direct, production: fast, bit_identical }
}

/// One [`time_depthwise`] measurement.
struct DwTiming {
    direct: f64,
    production: f64,
    bit_identical: bool,
}

fn dw_label((c, h, w, stride): (usize, usize, usize, usize)) -> String {
    format!("{c}x{h}x{w}/s{stride}")
}

/// Deterministic operand fill; no special values — throughput only, the
/// bit-identity suite covers NaN/Inf.
fn filled(len: usize, seed: u64) -> Vec<f32> {
    (0..len).map(|i| ((i as u64 * 2_654_435_761 + seed * 97) % 1000) as f32 / 500.0 - 1.0).collect()
}

/// Minimum wall time of `f` over `iters` runs (one warm-up run first).
/// The smoke gate compares minima, not means: on a single-core CI host a
/// scheduler preemption inflates a mean arbitrarily, while the minimum of
/// fifteen runs is a stable estimate of the kernel's actual cost.
fn min_secs<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Mean wall time of `f` over `iters` runs (one warm-up run first).
fn mean_secs<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    f();
    let mut total = 0.0;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        total += start.elapsed().as_secs_f64();
    }
    total / iters as f64
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for &(family, m, k, n) in &SHAPES {
        let a = filled(m * k, 1);
        let b_mat = filled(k * n, 2);
        let shape = format!("{family}/{m}x{k}x{n}");
        g.bench_function(BenchmarkId::new("naive", &shape), |b| {
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm(m, k, n, &a, &b_mat, &mut out);
                out
            })
        });
        g.bench_function(BenchmarkId::new("dispatch", &shape), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm_blocked_with(m, k, n, &a, &b_mat, &mut out, &mut scratch);
                out
            })
        });
        g.bench_function(BenchmarkId::new("micro", &shape), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm_micro(m, k, n, &a, &b_mat, &mut out, &mut scratch);
                out
            })
        });
        g.bench_function(BenchmarkId::new("packed", &shape), |b| {
            let mut packed = Vec::new();
            b.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm_packed_rows(m, k, n, &a, &b_mat, &mut out, &mut packed);
                out
            })
        });
    }
    g.finish();
    let mut g = c.benchmark_group("depthwise");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for &shape in &DW_SHAPES {
        let (input, weight, cfg) = depthwise_operands(shape);
        let label = dw_label(shape);
        g.bench_function(BenchmarkId::new("direct", &label), |b| {
            b.iter(|| conv2d_direct(&input, &weight, None, cfg).unwrap())
        });
        g.bench_function(BenchmarkId::new("production", &label), |b| {
            let mut arena = ScratchArena::new();
            b.iter(|| {
                let out = conv2d_with(&input, &weight, None, cfg, &mut arena).unwrap();
                arena.recycle(out.into_vec());
            })
        });
    }
    g.finish();
}

/// The straggler-heavy bit-level workload from the scheduler bench: every
/// bit position of layer `layer`, `per_bit` faults each.
fn bit_level_faults(space: &FaultSpace, layer: usize, per_bit: u64) -> Vec<Fault> {
    let mut faults = Vec::new();
    for bit in (0..32).rev() {
        let sub = space.bit_subpopulation(layer, bit).unwrap();
        let mut rng = StdRng::seed_from_u64(900 + bit as u64);
        let n = per_bit.min(sub.size());
        let indices = sample_without_replacement(sub.size(), n, &mut rng).unwrap();
        faults.extend(sub.faults_at(&indices).unwrap());
    }
    faults
}

/// The pre-optimisation configuration: naive GEMM, no lowering cache (the
/// arena is tied to the kernel policy, so this also skips buffer reuse).
fn naive_cfg() -> CampaignConfig {
    CampaignConfig { kernel: KernelPolicy::Naive, batched: false, ..CampaignConfig::default() }
}

/// The per-image fast path as it existed before the compiled-plan batched
/// engine: blocked GEMM, cached lowerings, scratch arenas — but one
/// forward pass per eval image.
fn fast_cfg() -> CampaignConfig {
    CampaignConfig { batched: false, ..CampaignConfig::default() }
}

/// The compiled-plan batched path (the default configuration): all eval
/// images of a faulty suffix evaluated in one GEMM per node.
fn batched_cfg() -> CampaignConfig {
    CampaignConfig::default()
}

fn bench_campaign_fast_path(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Default);
    let (model, data) = (&setup.model, &setup.data);
    let golden_plain = GoldenReference::build(model, data).unwrap();
    let golden_cached = golden_plain.clone().with_lowering(model).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults = bit_level_faults(&space, 7, 8);

    // The fast paths are only fast paths if they are invisible in the
    // results: same classes, same inference counts, at every tier.
    let baseline =
        run_campaign(model, data, &golden_plain, &faults, &naive_cfg(), &Ieee754Corruption)
            .unwrap();
    let fast = run_campaign(model, data, &golden_cached, &faults, &fast_cfg(), &Ieee754Corruption)
        .unwrap();
    let batched =
        run_campaign(model, data, &golden_cached, &faults, &batched_cfg(), &Ieee754Corruption)
            .unwrap();
    assert_eq!(baseline.classes, fast.classes, "fast path changed classifications");
    assert_eq!(baseline.inferences, fast.inferences, "fast path changed inference counts");
    assert_eq!(baseline.classes, batched.classes, "batched path changed classifications");
    assert_eq!(baseline.inferences, batched.inferences, "batched path changed inference counts");

    let mut g = c.benchmark_group("campaign_fast_path");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("naive_uncached", |b| {
        b.iter(|| {
            run_campaign(model, data, &golden_plain, &faults, &naive_cfg(), &Ieee754Corruption)
                .unwrap()
        })
    });
    g.bench_function("fast_cached", |b| {
        b.iter(|| {
            run_campaign(model, data, &golden_cached, &faults, &fast_cfg(), &Ieee754Corruption)
                .unwrap()
        })
    });
    g.bench_function("batched_plan", |b| {
        b.iter(|| {
            run_campaign(model, data, &golden_cached, &faults, &batched_cfg(), &Ieee754Corruption)
                .unwrap()
        })
    });
    g.finish();
}

/// Measures the three GEMM kernels per shape plus the end-to-end campaign
/// on the naive, per-image fast, and compiled-plan batched paths, and
/// writes `BENCH_kernels.json` at the workspace root.
///
/// The campaign runs at `Scale::Full` — the real 20-layer ResNet-20 at
/// CIFAR resolution — because that is the workload the fast path is for;
/// the criterion group above sticks to `Scale::Default` so interactive
/// runs stay quick.
fn emit_bench_json() {
    const GEMM_ITERS: usize = 20;
    const CAMPAIGN_ITERS: usize = 5;
    const PER_BIT: u64 = 1;

    let setup = resnet20_setup(Scale::Full);
    let (model, data) = (&setup.model, &setup.data);
    let golden_plain = GoldenReference::build(model, data).unwrap();
    let golden_cached = golden_plain.clone().with_lowering(model).unwrap();
    let space = FaultSpace::stuck_at(model);
    // The paper's statistical plan samples every (layer, bit) stratum of
    // the network; one fault per stratum keeps the bench to seconds while
    // preserving the real cost mix (early wide layers dominate).
    let faults: Vec<Fault> =
        (0..space.layers()).flat_map(|l| bit_level_faults(&space, l, PER_BIT)).collect();

    let mut gemm_entries = Vec::new();
    let mut packed_buf = Vec::new();
    // The acceptance shapes: the two largest ResNet-20 im2col GEMMs, where
    // the microkernel must deliver >= 1.4x over naive.
    let mut largest_micro_speedups = Vec::new();
    // Kernel rows use minima, the same discipline as the smoke gate: on a
    // single-core host a scheduler preemption inflates a mean arbitrarily
    // (one contaminated run read micro at 0.95x where the dispatch — the
    // same kernel — read 1.81x), while the minimum of twenty runs is a
    // stable estimate of the kernel's actual cost. The four kernels are
    // measured in *interleaved rounds* (min across rounds) rather than
    // one block each: the host's clock drifts in multi-second epochs, and
    // back-to-back blocks let an epoch land on a single kernel — one run
    // read naive 26% faster than the two runs around it, flipping a
    // speedup row. The dispatch is measured the way the conv hot path
    // calls it — `gemm_blocked_with` and a reused scratch buffer
    // (arena-backed in production); the allocating `gemm_blocked` wrapper
    // charges a fresh ~150 KiB packing allocation to every call, a
    // measurable tax at the smallest shapes that no real caller pays.
    const GEMM_ROUNDS: usize = 3;
    for &(family, m, k, n) in &SHAPES {
        let a = filled(m * k, 1);
        let b_mat = filled(k * n, 2);
        let (mut naive, mut blocked, mut micro, mut packed) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..GEMM_ROUNDS {
            naive = naive.min(min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm(m, k, n, &a, &b_mat, &mut out);
                },
                GEMM_ITERS,
            ));
            blocked = blocked.min(min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_blocked_with(m, k, n, &a, &b_mat, &mut out, &mut packed_buf);
                },
                GEMM_ITERS,
            ));
            micro = micro.min(min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_micro(m, k, n, &a, &b_mat, &mut out, &mut packed_buf);
                },
                GEMM_ITERS,
            ));
            packed = packed.min(min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_packed_rows(m, k, n, &a, &b_mat, &mut out, &mut packed_buf);
                },
                GEMM_ITERS,
            ));
        }
        let micro_speedup = naive / micro;
        if family == "resnet20" && ((m, k, n) == (64, 576, 1024) || (m, k, n) == (32, 288, 512)) {
            largest_micro_speedups.push(micro_speedup);
        }
        gemm_entries.push(format!(
            "    {{\"family\": \"{family}\", \"shape\": \"{m}x{k}x{n}\", \
             \"selected\": \"{}\", \"naive_min_s\": {naive:.9}, \
             \"dispatch_min_s\": {blocked:.9}, \"micro_min_s\": {micro:.9}, \
             \"packed_min_s\": {packed:.9}, \"dispatch_speedup\": {:.3}, \
             \"micro_speedup\": {micro_speedup:.3}, \"packed_speedup\": {:.3}}}",
            gemm_selected_kernel(m, k, n),
            naive / blocked,
            naive / packed
        ));
    }
    let micro_meets_1_4x =
        largest_micro_speedups.len() == 2 && largest_micro_speedups.iter().all(|&s| s >= 1.4);

    // Depthwise rows: the production kernel against the scalar loop it
    // must match bit for bit, per representative shape and summed over
    // all 17 depthwise nodes of one image. They carry their own host
    // fingerprint (`depthwise_host`) so they can be re-recorded alone.
    let dw_entries: Vec<String> = DW_SHAPES
        .iter()
        .map(|&shape| {
            let t = time_depthwise(shape, GEMM_ITERS, GEMM_ROUNDS);
            format!(
                "    {{\"family\": \"mbv2-dw\", \"shape\": \"{}\", \"direct_min_s\": {:.9}, \
                 \"production_min_s\": {:.9}, \"speedup\": {:.3}, \"bit_identical\": {}}}",
                dw_label(shape),
                t.direct,
                t.production,
                t.direct / t.production,
                t.bit_identical
            )
        })
        .collect();
    let (mut dw_direct_total, mut dw_fast_total, mut dw_identical) = (0.0, 0.0, true);
    for &shape in &DW_NODES {
        let t = time_depthwise(shape, GEMM_ITERS, GEMM_ROUNDS);
        dw_direct_total += t.direct;
        dw_fast_total += t.production;
        dw_identical &= t.bit_identical;
    }
    let dw_speedup = dw_direct_total / dw_fast_total;

    let baseline =
        run_campaign(model, data, &golden_plain, &faults, &naive_cfg(), &Ieee754Corruption)
            .unwrap();
    let fast = run_campaign(model, data, &golden_cached, &faults, &fast_cfg(), &Ieee754Corruption)
        .unwrap();
    let batched =
        run_campaign(model, data, &golden_cached, &faults, &batched_cfg(), &Ieee754Corruption)
            .unwrap();
    let identical = baseline.classes == fast.classes && baseline.classes == batched.classes;
    // Worker-count invisibility at full scale: the acceptance contract is
    // byte-identical classifications at 1, 4, and 8 workers on the default
    // (batched) configuration.
    let identical_across_workers = [1usize, 4, 8].iter().all(|&workers| {
        let cfg = CampaignConfig { workers, ..batched_cfg() };
        run_campaign(model, data, &golden_cached, &faults, &cfg, &Ieee754Corruption)
            .unwrap()
            .classes
            == baseline.classes
    });
    let naive_s = mean_secs(
        || {
            run_campaign(model, data, &golden_plain, &faults, &naive_cfg(), &Ieee754Corruption)
                .unwrap();
        },
        CAMPAIGN_ITERS,
    );
    let fast_s = mean_secs(
        || {
            run_campaign(model, data, &golden_cached, &faults, &fast_cfg(), &Ieee754Corruption)
                .unwrap();
        },
        CAMPAIGN_ITERS,
    );
    let batched_s = mean_secs(
        || {
            run_campaign(model, data, &golden_cached, &faults, &batched_cfg(), &Ieee754Corruption)
                .unwrap();
        },
        CAMPAIGN_ITERS,
    );
    let speedup = naive_s / fast_s;
    let batched_vs_fast = fast_s / batched_s;
    let batched_total = naive_s / batched_s;
    // End-to-end trajectory vs the PR 9 recorded baseline: the default
    // path (batched plan) and the per-image fast path, each against the
    // fast_cached number PR 9 shipped.
    let e2e_vs_pr9 = PR9_FAST_CACHED_MEAN_S / batched_s;
    let fast_vs_pr9 = PR9_FAST_CACHED_MEAN_S / fast_s;

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"host\": {},\n  \"workload\": \"ResNet-20 (CIFAR \
         scale), bit-level plan over all 20 layers x 32 bits, {} faults, {} eval images\",\n  \
         \"gemm_iters_per_point\": {GEMM_ITERS},\n  \"campaign_iters_per_point\": \
         {CAMPAIGN_ITERS},\n  \"gemm\": [\n{}\n  ],\n  \"micro_meets_1_4x_on_two_largest\": \
         {micro_meets_1_4x},\n  \"depthwise_host\": {},\n  \"depthwise\": [\n{}\n  ],\n  \
         \"depthwise_17_nodes\": {{\
         \"direct_min_s\": {dw_direct_total:.6}, \"production_min_s\": {dw_fast_total:.6}, \
         \"speedup\": {dw_speedup:.3}, \"meets_4x\": {}, \"bit_identical\": {dw_identical}}},\n  \
         \"campaign\": {{\n    \"naive_uncached_mean_s\": {naive_s:.6},\n    \
         \"fast_cached_mean_s\": {fast_s:.6},\n    \"batched_plan_mean_s\": {batched_s:.6},\n    \
         \"speedup\": {speedup:.3},\n    \"batched_vs_fast_speedup\": {batched_vs_fast:.3},\n    \
         \"batched_total_speedup\": {batched_total:.3},\n    \"pr9_fast_cached_mean_s\": \
         {PR9_FAST_CACHED_MEAN_S:.6},\n    \"e2e_vs_pr9_speedup\": {e2e_vs_pr9:.3},\n    \
         \"fast_vs_pr9_speedup\": {fast_vs_pr9:.3},\n    \"meets_1_3x_vs_pr9\": {},\n    \
         \"classes_identical\": {identical},\n    \"classes_identical_workers_1_4_8\": \
         {identical_across_workers},\n    \"meets_1_5x_target\": {},\n    \
         \"batched_meets_2_0x_target\": {},\n    \"batched_meets_2_5x_target\": {}\n  }}\n}}\n",
        host_fingerprint(),
        faults.len(),
        data.len(),
        gemm_entries.join(",\n"),
        host_fingerprint(),
        dw_entries.join(",\n"),
        dw_speedup >= 4.0,
        e2e_vs_pr9 >= 1.3,
        speedup >= 1.5,
        batched_total >= 2.0,
        batched_vs_fast >= 2.5
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("wrote {path}");
}

/// CI regression guard: a few iterations of each kernel at every shape,
/// failing the process if the dispatched GEMM is slower than the naive one
/// at *any* shape (10% tolerance for machine noise) — the dispatch
/// heuristic must never pick a losing kernel — plus a smoke-scale
/// campaign asserting the compiled-plan batched path classifies
/// identically to the per-image fast path and recording its speedup.
fn smoke() -> i32 {
    // 15 iterations (after the warm-up run inside `mean_secs`) keeps the
    // guard under a second while averaging out the page-fault noise a
    // freshly compiled binary shows on its first few calls.
    const ITERS: usize = 15;
    let mut status = 0;
    let mut scratch = Vec::new();
    for &(family, m, k, n) in &SHAPES {
        let a = filled(m * k, 1);
        let b_mat = filled(k * n, 2);
        let measure_naive = || {
            min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm(m, k, n, &a, &b_mat, &mut out);
                },
                ITERS,
            )
        };
        // Dispatch measured as the conv hot path calls it: reused scratch,
        // not the allocating `gemm_blocked` wrapper.
        let measure_dispatch = |scratch: &mut Vec<f32>| {
            min_secs(
                || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_blocked_with(m, k, n, &a, &b_mat, &mut out, scratch);
                },
                ITERS,
            )
        };
        let mut naive = measure_naive();
        let mut blocked = measure_dispatch(&mut scratch);
        // One re-measure before failing: minima are stable, but a CI host
        // can still hand an entire 15-iteration window to another process.
        if blocked > naive * 1.10 {
            naive = measure_naive();
            blocked = measure_dispatch(&mut scratch);
        }
        let selected = gemm_selected_kernel(m, k, n);
        println!(
            "smoke gemm {family}/{m}x{k}x{n} [{selected}]: naive {:.1}us dispatched {:.1}us \
             (speedup {:.2}x)",
            naive * 1e6,
            blocked * 1e6,
            naive / blocked
        );
        if blocked > naive * 1.10 {
            eprintln!(
                "FAIL: dispatched GEMM slower than naive at {family}/{m}x{k}x{n}: \
                 {blocked:.6}s vs {naive:.6}s"
            );
            status = 1;
        }
        // Selection gate: the register-tiled microkernel owns every
        // multi-row im2col shape in the bench set (all are far above the
        // packing amortization floor) — a threshold regression that
        // silently drops them back to the naive tier must fail CI, not
        // just lose throughput.
        if m >= 2 && selected != "micro" {
            eprintln!(
                "FAIL: microkernel not selected at {family}/{m}x{k}x{n} (got \"{selected}\")"
            );
            status = 1;
        }
    }

    // Depthwise gate: the production kernel must match the scalar loop bit
    // for bit and must not be slower than it at any MobileNetV2 depthwise
    // shape (10% tolerance, one re-measure, as for the GEMM rows).
    for &shape in &DW_SHAPES {
        let mut t = time_depthwise(shape, ITERS, 1);
        if t.production > t.direct * 1.10 {
            t = time_depthwise(shape, ITERS, 1);
        }
        println!(
            "smoke depthwise mbv2-dw/{}: direct {:.1}us production {:.1}us (speedup {:.2}x)",
            dw_label(shape),
            t.direct * 1e6,
            t.production * 1e6,
            t.direct / t.production
        );
        if !t.bit_identical {
            eprintln!("FAIL: depthwise kernel diverges from conv2d_direct at {}", dw_label(shape));
            status = 1;
        }
        if t.production > t.direct * 1.10 {
            eprintln!(
                "FAIL: depthwise kernel slower than conv2d_direct at {}: {:.6}s vs {:.6}s",
                dw_label(shape),
                t.production,
                t.direct
            );
            status = 1;
        }
    }

    // Batched-campaign gate: the compiled-plan batched forward must be
    // invisible in the results (classes and inference counts) and its
    // speedup over the per-image fast path is recorded for the CI log.
    let setup = resnet20_setup(Scale::Smoke);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap().with_lowering(model).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults = bit_level_faults(&space, 1, 4);
    let fast =
        run_campaign(model, data, &golden, &faults, &fast_cfg(), &Ieee754Corruption).unwrap();
    let batched =
        run_campaign(model, data, &golden, &faults, &batched_cfg(), &Ieee754Corruption).unwrap();
    let fast_s = mean_secs(
        || {
            run_campaign(model, data, &golden, &faults, &fast_cfg(), &Ieee754Corruption).unwrap();
        },
        ITERS,
    );
    let batched_s = mean_secs(
        || {
            run_campaign(model, data, &golden, &faults, &batched_cfg(), &Ieee754Corruption)
                .unwrap();
        },
        ITERS,
    );
    println!(
        "smoke campaign: per-image {:.1}ms batched {:.1}ms (speedup {:.2}x)",
        fast_s * 1e3,
        batched_s * 1e3,
        fast_s / batched_s
    );
    if fast.classes != batched.classes {
        eprintln!("FAIL: batched campaign classifications diverged from the per-image fast path");
        status = 1;
    }
    if fast.inferences != batched.inferences {
        eprintln!("FAIL: batched campaign inference counts diverged from the per-image fast path");
        status = 1;
    }

    // Dispatch-coverage gate: the calibrated cost model must leave the
    // batched engine reachable (some layer's suffix measures
    // batched-profitable under the convergent-fault hedge), and mantissa-bit
    // faults on the deepest such layer must actually route batched. A
    // counter stuck at zero here is the `sparse_nodes: 0` failure mode —
    // an engine silently disabled by a cost-model constant — in its
    // batched edition.
    let weight_layers = model.weight_layers();
    let owned: Vec<usize> = (0..weight_layers.len())
        .filter(|&l| {
            model
                .node_of_param(weight_layers[l].param)
                .is_some_and(|n| golden.plan().batched_profitable(n, BATCHED_HEDGE_CONVERGENT))
        })
        .collect();
    match owned.last() {
        None => {
            eprintln!(
                "FAIL: the calibrated cost model owns no layer for the batched engine \
                 (batched dispatch is dead at this scale)"
            );
            status = 1;
        }
        Some(&layer) => {
            let probe = bit_level_faults(&space, layer, 2);
            let r = run_campaign(model, data, &golden, &probe, &batched_cfg(), &Ieee754Corruption)
                .unwrap();
            println!(
                "smoke dispatch: {} of {} layers batched-owned; layer {layer} probe engines \
                 dense {} delta {} batched {}",
                owned.len(),
                weight_layers.len(),
                r.engine_dense,
                r.engine_delta,
                r.engine_batched
            );
            if r.engine_batched == 0 {
                eprintln!(
                    "FAIL: layer {layer} is batched-owned but no fault routed through the \
                     batched engine"
                );
                status = 1;
            }
        }
    }
    status
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let mut c = Criterion::default();
    bench_gemm(&mut c);
    bench_campaign_fast_path(&mut c);
    // Machine-readable comparison (full bench runs only, so `cargo test`
    // smoke runs stay read-only).
    if std::env::args().any(|a| a == "--bench") {
        emit_bench_json();
    }
}
