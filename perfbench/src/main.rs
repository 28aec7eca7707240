//! SFI campaign benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --emit <benchmark-json|glossary>
//! ```
//!
//! Sets a workload up the way `sfi run` does, runs its campaign through the
//! library's public entry points for `--seconds`, checks the
//! classifications against an all-engines-off reference, and prints one
//! JSON result line last on stdout. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer ledger from traced campaigns
//! interleaved with untraced ones. Metric names, units and meanings live
//! in `metrics.rs`.

#![forbid(unsafe_code)]

mod check;
mod host;
mod metrics;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sfi_faultsim::golden::GoldenReference;
use sfi_nn::NodeOp;
use sfi_obs::{Probe, TraceLevel};
use sfi_tensor::ops;

use check::{SliceCheck, DEFAULT_SEED};
use workload::{Campaign, Res, Setup, Workload, WORKERS};

/// `run_seconds` written to `BENCHMARK.json`.
const RUN_SECONDS: u64 = 25;

/// Set-ups per run: at least `SETUP_REPS.0`, more while the set-ups
/// have taken under `SETUP_REPS_SECS`, at most `SETUP_REPS.1`. The median
/// is reported.
const SETUP_REPS: (usize, usize) = (3, 9);
const SETUP_REPS_SECS: f64 = 2.0;

/// Share of the machine's CPU time stolen by the hypervisor above which a
/// campaign is flagged contended: on a shared host, steal stretches wall
/// time by tens of percent for minutes at a time.
const CONTENDED_STEAL_FRAC: f64 = 0.05;

fn contended(c: &Campaign) -> bool {
    c.steal_frac() > CONTENDED_STEAL_FRAC
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, what] = args.as_slice() {
        if flag == "--emit" {
            match what.as_str() {
                "benchmark-json" => print!("{}", metrics::benchmark_json(RUN_SECONDS)),
                "glossary" => print!("{}", metrics::glossary()),
                other => {
                    eprintln!("perfbench: unknown --emit target `{other}`");
                    return ExitCode::from(2);
                }
            }
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workdir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let result =
        std::fs::create_dir_all(&workdir).map_err(Into::into).and_then(|()| run(&args, &workdir));
    // Best effort: the directory only ever holds this run's journals.
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Metric values in report order.
type Metrics = Vec<(&'static str, f64)>;

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Builds the workload several times (see [`SETUP_REPS`]), dropping each
/// set-up before the next, and reports the times of the set-up whose total
/// is the median (every repetition builds identical inputs).
fn setup_median(w: &'static Workload) -> Res<Setup> {
    let mut kept: Option<Setup> = None;
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < SETUP_REPS.0
        || (times.len() < SETUP_REPS.1 && start.elapsed().as_secs_f64() < SETUP_REPS_SECS)
    {
        drop(kept.take());
        let s = workload::setup(w)?;
        times.push(s.times);
        kept = Some(s);
    }
    times.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
    let mut s = kept.expect("at least one set-up ran");
    s.times = times[times.len() / 2];
    Ok(s)
}

/// Everything the output checks found in one run.
struct Checked {
    attempted: u64,
    failed: u64,
    /// Digest of the first campaign (sampled with the run's seed).
    digest: u64,
    /// One reference comparison per untraced campaign.
    slices: Vec<SliceCheck>,
}

/// Checks the run's campaigns: execution failures, a reference slice of
/// every untraced campaign, each traced campaign against its untraced twin
/// (same fault sample) and, for the default seed, the first campaign's
/// recorded digest.
fn check_campaigns(
    setup: &Setup,
    seed: u64,
    plain: &[Campaign],
    traced: &[(Campaign, Probe)],
    workdir: &Path,
) -> Res<Checked> {
    let golden = GoldenReference::build(&setup.model, &setup.data)?;
    let (mut attempted, mut failed) = (0, 0);
    let mut slices = Vec::with_capacity(plain.len());
    for c in plain {
        attempted += c.outcome.injections();
        failed += check::exec_failures(&c.outcome);
        let slice = check::reference_slice(setup, &golden, c, workdir)?;
        failed += slice.mismatched;
        slices.push(slice);
    }
    for ((t, _), twin) in traced.iter().zip(plain) {
        attempted += t.outcome.injections();
        failed += check::exec_failures(&t.outcome);
        if check::digest(&t.outcome) != check::digest(&twin.outcome) {
            eprintln!("traced campaign (seed {}) disagrees with its untraced twin", t.seed);
            failed += t.outcome.injections();
        }
    }
    let first = &plain[0];
    let digest = check::digest(&first.outcome);
    if seed == DEFAULT_SEED {
        match check::recorded_digest(setup.workload.name) {
            Some(want) if want == digest => {}
            Some(want) => {
                eprintln!(
                    "digest {digest:016x} differs from the recorded {want:016x} for seed {seed}"
                );
                failed += first.outcome.injections();
            }
            None => eprintln!("no recorded digest for {}; got {digest:016x}", setup.workload.name),
        }
    }
    Ok(Checked { attempted, failed: failed.min(attempted), digest, slices })
}

fn run(args: &Args, workdir: &Path) -> Res<()> {
    let w = args.workload;
    let setup = setup_median(w)?;
    // Kernel timings come first, on a quiet process.
    let kernels = if args.trace { Some(forward_and_gemm(&setup)?) } else { None };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Campaign> = Vec::new();
    let mut traced: Vec<(Campaign, Probe)> = Vec::new();
    while plain.is_empty() || start.elapsed() < budget {
        let seed = workload::campaign_seed(args.seed, plain.len());
        let run = |probe: &Probe| workload::run_campaign(&setup, seed, probe, workdir);
        // Traced runs alternate which side of each pair goes first.
        if args.trace && plain.len() % 2 == 1 {
            let probe = Probe::new(TraceLevel::Spans, None)?;
            traced.push((run(&probe)?, probe));
            plain.push(run(Probe::disabled())?);
        } else {
            plain.push(run(Probe::disabled())?);
            if args.trace {
                let probe = Probe::new(TraceLevel::Spans, None)?;
                traced.push((run(&probe)?, probe));
            }
        }
    }
    let checked = check_campaigns(&setup, args.seed, &plain, &traced, workdir)?;
    let all: Vec<&Campaign> = plain.iter().chain(traced.iter().map(|(c, _)| c)).collect();
    print_record(&setup, args.seed, &all, &checked);
    let metrics = if args.trace {
        let untraced = median(&plain.iter().map(|c| c.wall_s).collect::<Vec<_>>());
        let (c, probe) = traced.last().expect("a traced campaign ran");
        let traced_median = median(&traced.iter().map(|(c, _)| c.wall_s).collect::<Vec<_>>());
        let kernels = kernels.expect("kernels are timed in traced runs");
        per_layer(&setup, c, probe, kernels, traced_median / untraced - 1.0)?
    } else {
        // Contended campaigns are flagged in the record and left out of the
        // medians, unless every campaign of the run was contended.
        let calm: Vec<&Campaign> = plain.iter().filter(|c| !contended(c)).collect();
        let measured: Vec<&Campaign> = if calm.is_empty() { plain.iter().collect() } else { calm };
        let per_campaign =
            |f: fn(&Campaign) -> f64| median(&measured.iter().map(|c| f(c)).collect::<Vec<_>>());
        vec![
            ("faults_per_s", per_campaign(|c| c.outcome.injections() as f64 / c.wall_s)),
            ("faults_per_cpu_s", per_campaign(|c| c.outcome.injections() as f64 / c.sched.cpu_s)),
            ("setup_s", setup.times.total_s),
            ("peak_rss_mib", host::peak_rss_mib().ok_or("VmHWM unavailable")?),
        ]
    };
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number").into());
    }
    print_result(&checked, &metrics);
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .expect("every reported metric is registered")
}

fn print_result(checked: &Checked, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(name)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checked.failed == 0,
        checked.attempted,
        checked.failed,
        body.join(", ")
    );
}

/// One line beside the result: host, contention, engine mix and
/// calibration, so runs can be compared and contended ones discounted.
fn print_record(setup: &Setup, seed: u64, campaigns: &[&Campaign], checked: &Checked) {
    let reps: Vec<String> = campaigns
        .iter()
        .map(|c| {
            let t = c.outcome.stratum_telemetry();
            let sum = |f: fn(&sfi_faultsim::executor::CampaignTelemetry) -> u64| -> u64 {
                t.iter().map(f).sum()
            };
            format!(
                "{{\"seed\": {}, \"wall_s\": {}, \"cpu_s\": {}, \"wait_s\": {}, \"steal_s\": {}, \"sched\": \"{}\", \
                 \"steal_frac\": {}, \"contended\": {}, \"faults\": {}, \"inferences\": {}, \"engines\": [{}, {}, {}]}}",
                c.seed,
                c.wall_s,
                c.sched.cpu_s,
                c.sched.wait_s,
                c.sched.steal_s,
                c.sched.source,
                c.steal_frac(),
                contended(c),
                c.outcome.injections(),
                c.outcome.inferences(),
                sum(|t| t.engine_dense),
                sum(|t| t.engine_delta),
                sum(|t| t.engine_batched),
            )
        })
        .collect();
    let plan = setup.golden.plan();
    let calibration = match plan.calibration() {
        Some(cal) => {
            let rows: Vec<String> = (0..plan.len())
                .map(|id| {
                    format!(
                        "[{}, {}, {}]",
                        cal.dense_suffix_secs(id),
                        cal.batched_suffix_secs(id),
                        cal.panel_secs(id)
                    )
                })
                .collect();
            format!(
                "{{\"images\": {}, \"dense_batched_panel_secs\": [{}]}}",
                cal.images(),
                rows.join(", ")
            )
        }
        None => "null".to_string(),
    };
    let slices: Vec<String> = checked
        .slices
        .iter()
        .map(|c| format!("\"{} ({} faults, {} mismatched)\"", c.what, c.faults, c.mismatched))
        .collect();
    println!(
        "record {{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"workers\": {WORKERS}, \
         \"digest\": \"{:016x}\", \"reference\": [{}], \"campaigns\": [{}], \"calibration\": {}}}",
        setup.workload.name,
        seed,
        sfi_bench::host_fingerprint(),
        checked.digest,
        slices.join(", "),
        reps.join(", "),
        calibration
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer ledger of one traced campaign.
fn per_layer(
    setup: &Setup,
    c: &Campaign,
    probe: &Probe,
    (forward_s, gemm_s, gemm_flops): (f64, f64, f64),
    trace_overhead: f64,
) -> Res<Metrics> {
    const MIB: f64 = 1024.0 * 1024.0;
    let t = c.outcome.stratum_telemetry();
    let sum = |f: fn(&sfi_faultsim::executor::CampaignTelemetry) -> u64| -> f64 {
        t.iter().map(f).sum::<u64>() as f64
    };
    let snap = probe.snapshot();
    let faults = c.outcome.injections() as f64;
    let inferences = c.outcome.inferences() as f64;
    let times = &setup.times;
    let golden = &setup.golden;

    let mut quartile_s = [0.0f64; 4];
    let layers = setup.space.layers().max(1);
    for &(idx, secs) in &c.strata_spans {
        if let (true, Some(layer)) = (setup.workload.is_weight(), setup.plan.strata()[idx].layer) {
            quartile_s[(layer * 4 / layers).min(3)] += secs;
        }
    }
    let spans_total: f64 = c.strata_spans.iter().map(|&(_, s)| s).sum();
    let engines = sum(|t| t.engine_dense) + sum(|t| t.engine_delta) + sum(|t| t.engine_batched);
    let delta_nodes = sum(|t| t.delta_sparse_nodes) + sum(|t| t.delta_fallbacks);
    let arena_peak = t.iter().map(|t| t.arena_peak_bytes).max().unwrap_or(0) as f64;
    let hits = sum(|t| t.lowering_hits);
    let journal_kib = c.journal.as_ref().map_or(0.0, |(_, bytes)| *bytes as f64 / 1024.0);
    print_spans(setup, c);
    Ok(vec![
        ("dataset.generate_s", times.dataset_generate_s),
        ("nn.model_build_s", times.model_build_s),
        ("faultsim.golden_build_s", times.golden_build_s),
        ("faultsim.lowering_build_s", times.lowering_build_s),
        ("stats.plan_s", times.plan_s),
        (
            "bench.setup_unaccounted_frac",
            ratio((times.total_s - times.parts_sum()).abs(), times.total_s),
        ),
        (
            "faultsim.golden_mib",
            (golden.memory_bytes() - golden.lowering_bytes() - golden.batched_bytes()) as f64 / MIB,
        ),
        ("faultsim.lowering_mib", golden.lowering_bytes() as f64 / MIB),
        ("faultsim.batched_mib", golden.batched_bytes() as f64 / MIB),
        ("tensor.arena_peak_mib", arena_peak / MIB),
        ("core.campaign_s", c.wall_s),
        ("core.wall_share.q0", ratio(quartile_s[0], c.wall_s)),
        ("core.wall_share.q1", ratio(quartile_s[1], c.wall_s)),
        ("core.wall_share.q2", ratio(quartile_s[2], c.wall_s)),
        ("core.wall_share.q3", ratio(quartile_s[3], c.wall_s)),
        ("bench.strata_unaccounted_frac", ratio((c.wall_s - spans_total).abs(), c.wall_s)),
        ("faultsim.masked_frac", ratio(sum(|t| t.masked), faults)),
        ("faultsim.inferences_per_fault", ratio(inferences, faults)),
        ("faultsim.inferences_per_cpu_s", ratio(inferences, c.sched.cpu_s)),
        ("faultsim.inference_p50_us", latency_quantile_us(&snap.latency_buckets, 0.5)),
        ("faultsim.inference_p99_us", latency_quantile_us(&snap.latency_buckets, 0.99)),
        ("faultsim.converged_frac", ratio(sum(|t| t.converged), faults - sum(|t| t.masked))),
        ("faultsim.nodes_skipped_per_inference", ratio(sum(|t| t.nodes_skipped), inferences)),
        ("faultsim.lowering_hit_rate", ratio(hits, hits + sum(|t| t.lowering_misses))),
        ("tensor.arena_reuse_frac", ratio(snap.arena_reuses as f64, snap.arena_takes as f64)),
        ("faultsim.engine_dense_frac", ratio(sum(|t| t.engine_dense), engines)),
        ("faultsim.engine_delta_frac", ratio(sum(|t| t.engine_delta), engines)),
        ("faultsim.engine_batched_frac", ratio(sum(|t| t.engine_batched), engines)),
        ("nn.delta.sparse_nodes_per_fault", ratio(sum(|t| t.delta_sparse_nodes), faults)),
        ("nn.delta.fallback_frac", ratio(sum(|t| t.delta_fallbacks), delta_nodes)),
        ("nn.delta.dirty_blocks_per_fault", ratio(sum(|t| t.delta_dirty_blocks), faults)),
        ("faultsim.journal.fsyncs", snap.fsyncs as f64),
        ("faultsim.journal.fsync_frac", ratio(snap.fsync_ns as f64 / 1e9, c.wall_s)),
        ("faultsim.journal.kib", journal_kib),
        (
            "faultsim.worker_idle_frac",
            1.0 - ratio(snap.inference_ns as f64 / 1e9, WORKERS as f64 * c.wall_s),
        ),
        ("faultsim.requeues", snap.requeues as f64),
        ("nn.forward_ms", forward_s * 1e3),
        ("tensor.gemm_gflops", ratio(gemm_flops, gemm_s) / 1e9),
        ("tensor.gemm_share_of_forward", ratio(gemm_s, forward_s)),
        ("sched.cpu_s", c.sched.cpu_s),
        ("sched.runqueue_wait_frac", ratio(c.sched.wait_s, c.sched.cpu_s + c.sched.wait_s)),
        ("obs.trace_overhead_frac", trace_overhead),
    ])
}

/// Quantile `q` of the probe's latency histogram, where bucket `b` counts
/// latencies in `[2^(b-1), 2^b)` ns, interpolated log-linearly inside the
/// bucket that holds the rank.
fn latency_quantile_us(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    let rank = q * total as f64;
    let mut below = 0.0;
    for (b, &n) in buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && below + n >= rank {
            if b == 0 {
                return 0.0;
            }
            let lo = (1u64 << (b - 1)) as f64;
            return lo * 2f64.powf((rank - below) / n) / 1e3;
        }
        below += n;
    }
    0.0
}

/// The benchmark's own spans of the traced run, written once at the end:
/// set-up calls, then one span per stratum that ran faults.
fn print_spans(setup: &Setup, c: &Campaign) {
    let t = &setup.times;
    let mut spans = vec![
        format!("[\"nn.model_build\", {}]", t.model_build_s),
        format!("[\"dataset.generate\", {}]", t.dataset_generate_s),
        format!("[\"faultsim.golden_build\", {}]", t.golden_build_s),
        format!("[\"faultsim.lowering_build\", {}]", t.lowering_build_s),
        format!("[\"stats.plan\", {}]", t.plan_s),
    ];
    spans.extend(c.strata_spans.iter().map(|(idx, s)| format!("[\"stratum.{idx}\", {s}]")));
    println!("spans [{}]", spans.join(", "));
}

/// Times a dense forward of one image, and the dispatched GEMM of every
/// lowerable conv's im2col shape. Returns `(forward seconds, GEMM seconds
/// per forward, GEMM flops per forward)`.
fn forward_and_gemm(setup: &Setup) -> Res<(f64, f64, f64)> {
    let image = setup.data.image(0);
    let forward_s = median_time(Duration::from_millis(200), || {
        std::hint::black_box(setup.model.forward(std::hint::black_box(image)))
            .expect("golden forward succeeded during set-up");
    });
    let model = &setup.model;
    let cache = setup.golden.cache(0);
    let (mut gemm_s, mut flops) = (0.0, 0.0);
    for (id, node) in model.nodes().iter().enumerate() {
        let NodeOp::Conv { weight, cfg, .. } = node.op else { continue };
        let weight = &model.store().get(weight).ok_or("conv weight missing")?.tensor;
        let input = cache.get(node.inputs[0]).ok_or("golden cache misses a conv input")?;
        if !ops::conv2d_uses_lowering(input, weight, cfg) {
            continue;
        }
        let out = cache.get(id).ok_or("golden cache misses a conv output")?;
        let (wshape, oshape) = (weight.shape(), out.shape());
        let (wd, od) = (wshape.dims(), oshape.dims());
        let g = cfg.groups.max(1);
        let (m, k, n) = (wd[0] / g, wd[1] * wd[2] * wd[3], od[2] * od[3]);
        let a = &weight.as_slice()[..m * k];
        let b = vec![0.5f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let s = median_time(Duration::from_millis(30), || {
            ops::gemm_blocked(m, k, n, std::hint::black_box(a), std::hint::black_box(&b), &mut c);
            std::hint::black_box(&c);
        });
        gemm_s += s * g as f64;
        flops += 2.0 * (m * k * n * g) as f64;
    }
    Ok((forward_s, gemm_s, flops))
}

/// Median seconds of `f` over repetitions totalling at least `window`
/// (and at least five), after one warm-up call.
fn median_time(window: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < window {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}
