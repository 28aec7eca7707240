//! `table3_campaign`: end-to-end throughput of the statistical campaign
//! machinery (sample → decode → inject → classify → revert), which is the
//! unit of cost in every Table III row; plus `executor_vs_static`, the
//! work-stealing-vs-static-shards scheduler comparison whose results are
//! emitted to `BENCH_campaign.json` at the repo root under `cargo bench`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sfi_bench::{host_fingerprint, resnet20_setup, Scale};
use sfi_core::execute::{execute_plan_traced_any, CampaignSpace};
use sfi_core::plan::plan_layer_wise;
use sfi_dataset::Dataset;
use sfi_faultsim::campaign::{
    run_campaign, run_campaign_static, CampaignConfig, Ieee754Corruption,
};
use sfi_faultsim::fault::Fault;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::Model;
use sfi_obs::Probe;
use sfi_stats::sample_size::SampleSpec;
use sfi_stats::sampling::sample_without_replacement;

fn bench_campaign(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Smoke);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);

    // Raw campaign throughput: 128 stuck-at faults sampled from layer 7.
    let sub = space.layer_subpopulation(7).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let indices = sample_without_replacement(sub.size(), 128, &mut rng).unwrap();
    let faults = sub.faults_at(&indices).unwrap();
    let cfg = CampaignConfig::default();

    let mut g = c.benchmark_group("table3_campaign");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("128_faults_layer7", |b| {
        b.iter(|| run_campaign(model, data, &golden, &faults, &cfg, &Ieee754Corruption).unwrap())
    });

    // Full plan execution: layer-wise at a loose margin.
    let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    g.bench_function("layer_wise_plan_e20pct", |b| {
        b.iter(|| {
            execute_plan_traced_any(
                model,
                data,
                &golden,
                &plan,
                CampaignSpace::Weight(&space),
                5,
                &cfg,
                &Ieee754Corruption,
                Probe::disabled(),
                &mut |_| {},
            )
            .unwrap()
        })
    });

    // The golden-reference build (per-image caches) amortised per campaign.
    g.bench_function("golden_reference_build", |b| {
        b.iter(|| GoldenReference::build(model, data).unwrap())
    });
    g.finish();
}

/// A bit-level fault list with deliberately uneven per-fault cost: high
/// exponent bits early-exit as critical, mantissa bits evaluate the whole
/// set as non-critical, and stuck-at-0 on cleared bits is masked (free) —
/// the workload shape that makes static shards straggle.
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

fn bench_executor_vs_static(c: &mut Criterion) {
    let setup = resnet20_setup(Scale::Smoke);
    let (model, data) = (&setup.model, &setup.data);
    let golden = GoldenReference::build(model, data).unwrap();
    let space = FaultSpace::stuck_at(model);
    let faults = bit_level_faults(&space, 7, 8);

    let mut g = c.benchmark_group("executor_vs_static");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for workers in [1usize, 2, 4] {
        let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
        g.bench_function(BenchmarkId::new("work_stealing", workers), |b| {
            b.iter(|| run_campaign(model, data, &golden, &faults, &cfg, &Ieee754Corruption))
        });
        g.bench_function(BenchmarkId::new("static_shards", workers), |b| {
            b.iter(|| run_campaign_static(model, data, &golden, &faults, &cfg, &Ieee754Corruption))
        });
    }
    g.finish();

    // Machine-readable comparison (full bench runs only, so `cargo test`
    // smoke runs stay read-only).
    if std::env::args().any(|a| a == "--bench") {
        emit_bench_json(model, data, &golden, &faults);
    }
}

/// Measures both schedulers per worker count and writes the comparison to
/// `BENCH_campaign.json` at the workspace root.
fn emit_bench_json(model: &Model, data: &Dataset, golden: &GoldenReference, faults: &[Fault]) {
    const ITERS: usize = 10;
    let mut entries = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let cfg = CampaignConfig { workers, ..CampaignConfig::default() };
        let stealing = mean_secs(
            || {
                run_campaign(model, data, golden, faults, &cfg, &Ieee754Corruption).unwrap();
            },
            ITERS,
        );
        let static_ = mean_secs(
            || {
                run_campaign_static(model, data, golden, faults, &cfg, &Ieee754Corruption).unwrap();
            },
            ITERS,
        );
        entries.push(format!(
            "    {{\"workers\": {workers}, \"work_stealing_mean_s\": {stealing:.6}, \
             \"static_shards_mean_s\": {static_:.6}, \"speedup\": {:.3}, \
             \"pooled_no_slower\": {}}}",
            static_ / stealing,
            stealing <= static_ * 1.05
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"executor_vs_static\",\n  \"host\": {},\n  \"workload\": \
         \"bit-level plan, {} faults, layer 7, {} eval images\",\n  \"iters_per_point\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        host_fingerprint(),
        faults.len(),
        data.len(),
        ITERS,
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(path, &json).expect("write BENCH_campaign.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_campaign, bench_executor_vs_static);
criterion_main!(benches);
