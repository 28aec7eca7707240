//! Every metric the benchmark reports: name, unit, owning module, which
//! end-to-end metric it should move on which workload, and its meaning.
//! `BENCHMARK.json` and `GLOSSARY.md` are generated from these tables
//! (`--emit benchmark-json`, `--emit glossary`).

use crate::workload::WORKLOADS;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: Option<f64>,
    /// Module that owns the work measured.
    pub owner: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    owner: &'static str,
    meaning: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: Some(bound), owner, moves: "-", meaning }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    owner: &'static str,
    moves: &'static str,
    meaning: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: None, owner, moves, meaning }
}

/// Measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e(
        "faults_per_s",
        "faults/s",
        "higher",
        0.25,
        "core",
        "classified faults / wall seconds of the campaign call; median over the run's \
         campaigns, each on its own fault sample, leaving out contended ones (more than 5% of \
         the machine's CPU time stolen by the hypervisor) unless all are",
    ),
    e2e(
        "faults_per_cpu_s",
        "faults/CPU-s",
        "higher",
        0.25,
        "core",
        "classified faults / on-CPU seconds of every process thread during the campaign \
         (schedstat); median over the same campaigns as faults_per_s",
    ),
    e2e(
        "setup_s",
        "s",
        "lower",
        0.25,
        "nn, dataset, faultsim, stats",
        "model build + data + golden caches + lowering/calibration + fault space + plan, i.e. \
         everything before the first fault; median of 3 to 9 set-ups in the run",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        "lower",
        0.2,
        "faultsim, tensor",
        "VmHWM of the process after the run (set-ups are dropped before the next is built); \
         moves by up to 15% with the calibrated engine mix, as batched faults hold larger panels",
    ),
];

const SETUP: &str = "setup_s, all workloads (largest on mbv2-weight-dataaware)";
const MEMORY: &str = "peak_rss_mib, mainly mbv2-weight-dataaware";
const WEIGHT_WALL: &str = "faults_per_s, rn20-weight-bitlevel and mbv2-weight-dataaware";
const WEIGHT_CPU: &str = "faults_per_cpu_s, rn20-weight-bitlevel and mbv2-weight-dataaware";
const DELTA: &str = "faults_per_s, rn20-transient-journal (no change on rn20-weight-bitlevel)";
const JOURNAL: &str = "faults_per_s, rn20-transient-journal only";
const GAP: &str = "gap between faults_per_s and faults_per_cpu_s, all workloads";
const GEMM: &str = "faults_per_cpu_s, mbv2-weight-dataaware (non-GEMM-heavy) vs \
                    rn20-weight-bitlevel (GEMM-heavy)";

/// Measured in one traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("dataset.generate_s", "s", "lower", "dataset", SETUP, "SynthCifarConfig::generate"),
    layer("nn.model_build_s", "s", "lower", "nn", SETUP, "build_seeded of the topology"),
    layer("faultsim.golden_build_s", "s", "lower", "faultsim", SETUP, "GoldenReference::build"),
    layer(
        "faultsim.lowering_build_s",
        "s",
        "lower",
        "faultsim, nn::plan",
        SETUP,
        "GoldenReference::with_lowering, including the batched golden stack and \
         CompiledPlan::calibrate",
    ),
    layer(
        "stats.plan_s",
        "s",
        "lower",
        "stats, core::plan",
        SETUP,
        "fault space, WeightBitAnalysis or ActivationSpace, and the plan",
    ),
    layer(
        "bench.setup_unaccounted_frac",
        "ratio",
        "lower",
        "bench",
        SETUP,
        "|setup_s - sum of the five setup metrics| / setup_s; the ledger reconciles when < 0.05",
    ),
    layer(
        "faultsim.golden_mib",
        "MiB",
        "lower",
        "faultsim::golden",
        MEMORY,
        "per-image golden activation caches",
    ),
    layer(
        "faultsim.lowering_mib",
        "MiB",
        "lower",
        "faultsim::golden",
        MEMORY,
        "im2col lowering cache",
    ),
    layer(
        "faultsim.batched_mib",
        "MiB",
        "lower",
        "faultsim::golden",
        MEMORY,
        "stacked eval-image golden cache (duplicates the per-image caches)",
    ),
    layer(
        "tensor.arena_peak_mib",
        "MiB",
        "lower",
        "tensor::scratch",
        MEMORY,
        "high-water of the workers' scratch arenas",
    ),
    layer(
        "core.campaign_s",
        "s",
        "lower",
        "core::execute",
        WEIGHT_WALL,
        "wall seconds of the traced campaign call",
    ),
    layer(
        "core.wall_share.q0",
        "ratio",
        "lower",
        "core::execute",
        WEIGHT_WALL,
        "share of campaign wall in strata whose struck layer is in the first depth quartile \
         (weight workloads; 0 for the network-wise transient plan)",
    ),
    layer("core.wall_share.q1", "ratio", "lower", "core::execute", WEIGHT_WALL, "second quartile"),
    layer("core.wall_share.q2", "ratio", "lower", "core::execute", WEIGHT_WALL, "third quartile"),
    layer("core.wall_share.q3", "ratio", "lower", "core::execute", WEIGHT_WALL, "fourth quartile"),
    layer(
        "bench.strata_unaccounted_frac",
        "ratio",
        "lower",
        "bench",
        WEIGHT_WALL,
        "|core.campaign_s - sum of per-stratum spans| / core.campaign_s; reconciles when < 0.05",
    ),
    layer(
        "faultsim.masked_frac",
        "ratio",
        "higher",
        "faultsim::executor",
        WEIGHT_CPU,
        "faults classified masked (no inference run) / faults",
    ),
    layer(
        "faultsim.inferences_per_fault",
        "count",
        "lower",
        "faultsim::executor",
        WEIGHT_CPU,
        "single-image inferences / faults",
    ),
    layer(
        "faultsim.inferences_per_cpu_s",
        "inferences/CPU-s",
        "higher",
        "faultsim::executor, nn",
        WEIGHT_CPU,
        "single-image inferences / on-CPU seconds of the traced campaign",
    ),
    layer(
        "faultsim.inference_p50_us",
        "us",
        "lower",
        "faultsim::executor, nn",
        WEIGHT_CPU,
        "median per-fault evaluation time from the probe's log2 latency histogram, \
         interpolated log-linearly inside the bucket",
    ),
    layer(
        "faultsim.inference_p99_us",
        "us",
        "lower",
        "faultsim::executor, nn",
        WEIGHT_CPU,
        "99th percentile of the same histogram",
    ),
    layer(
        "faultsim.converged_frac",
        "ratio",
        "higher",
        "nn::model",
        WEIGHT_CPU,
        "faults with at least one golden-convergence early exit / unmasked faults",
    ),
    layer(
        "faultsim.nodes_skipped_per_inference",
        "count",
        "higher",
        "nn::model",
        WEIGHT_CPU,
        "graph nodes skipped by convergence early exit / inference",
    ),
    layer(
        "faultsim.lowering_hit_rate",
        "ratio",
        "higher",
        "faultsim::golden",
        WEIGHT_CPU,
        "lowering-cache hits / lookups",
    ),
    layer(
        "tensor.arena_reuse_frac",
        "ratio",
        "higher",
        "tensor::scratch",
        WEIGHT_CPU,
        "arena takes served from recycled buffers / takes",
    ),
    layer(
        "faultsim.engine_dense_frac",
        "ratio",
        "lower",
        "nn::plan dispatch",
        WEIGHT_CPU,
        "faults run by the dense engine / engine-dispatched faults (reported, never gated: \
         dispatch is wall-clock calibrated)",
    ),
    layer(
        "faultsim.engine_delta_frac",
        "ratio",
        "higher",
        "nn::plan dispatch",
        WEIGHT_CPU,
        "faults run by the delta engine / engine-dispatched faults (never gated)",
    ),
    layer(
        "faultsim.engine_batched_frac",
        "ratio",
        "higher",
        "nn::plan dispatch",
        WEIGHT_CPU,
        "faults run by the batched engine / engine-dispatched faults (never gated)",
    ),
    layer(
        "nn.delta.sparse_nodes_per_fault",
        "count",
        "higher",
        "nn::delta",
        DELTA,
        "nodes recomputed by sparse delta kernels / fault",
    ),
    layer(
        "nn.delta.fallback_frac",
        "ratio",
        "lower",
        "nn::delta",
        DELTA,
        "delta nodes that saturated and fell back to dense / delta nodes",
    ),
    layer(
        "nn.delta.dirty_blocks_per_fault",
        "count",
        "lower",
        "nn::delta",
        DELTA,
        "dirty 4x4 blocks summed over delta node masks / fault",
    ),
    layer(
        "faultsim.journal.fsyncs",
        "count",
        "lower",
        "faultsim::journal",
        JOURNAL,
        "journal fsync calls in the traced campaign",
    ),
    layer(
        "faultsim.journal.fsync_frac",
        "ratio",
        "lower",
        "faultsim::journal",
        JOURNAL,
        "seconds inside journal fsyncs / core.campaign_s (0 without a journal)",
    ),
    layer(
        "faultsim.journal.kib",
        "KiB",
        "lower",
        "faultsim::journal",
        JOURNAL,
        "journal bytes on disk after the campaign",
    ),
    layer(
        "faultsim.worker_idle_frac",
        "ratio",
        "lower",
        "faultsim::executor",
        GAP,
        "1 - summed per-fault evaluation time / (workers x core.campaign_s)",
    ),
    layer(
        "faultsim.requeues",
        "count",
        "lower",
        "faultsim::executor",
        GAP,
        "faults re-queued after a worker panic",
    ),
    layer(
        "nn.forward_ms",
        "ms",
        "lower",
        "nn::model",
        GEMM,
        "dense Model::forward of one image; median of repetitions",
    ),
    layer(
        "tensor.gemm_gflops",
        "GFLOP/s",
        "higher",
        "tensor::ops",
        GEMM,
        "dispatched gemm_blocked on every lowerable conv's im2col shape (m=C_out/g, \
         k=C_in/g*K*K, n=H*W); 2mkn per call",
    ),
    layer(
        "tensor.gemm_share_of_forward",
        "ratio",
        "lower",
        "tensor::ops",
        GEMM,
        "those GEMM calls' time per image / nn.forward_ms (timed in isolation, so an upper \
         bound on the forward's GEMM share)",
    ),
    layer(
        "sched.cpu_s",
        "s",
        "lower",
        "host",
        GAP,
        "on-CPU seconds of every process thread during the traced campaign (schedstat)",
    ),
    layer(
        "sched.runqueue_wait_frac",
        "ratio",
        "lower",
        "host",
        GAP,
        "run-queue wait / (on-CPU + run-queue wait) during the traced campaign (three threads \
         share two CPUs, so about 0.1 is the program's own)",
    ),
    layer(
        "obs.trace_overhead_frac",
        "ratio",
        "lower",
        "obs",
        "faults_per_s, all workloads (should stay near 0)",
        "median traced campaign_s / median untraced campaign_s - 1, same engines and setup, \
         interleaved in one run",
    ),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The `BENCHMARK.json` manifest.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The metric glossary (`GLOSSARY.md`).
pub fn glossary() -> String {
    let mut out = String::from(
        "# SFI campaign benchmark: glossary\n\n\
         Generated by `cargo run --release --manifest-path perfbench/Cargo.toml -- --emit \
         glossary`; edit `perfbench/src/metrics.rs` and regenerate.\n\n\
         Run one workload from the repository root:\n\n\
         ```\ncargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \\\n    \
         --workload rn20-weight-bitlevel --seed 42 --seconds 25 --trace 0\n```\n\n\
         Each run builds its workload, then runs whole campaigns until `--seconds` have passed; \
         campaign k draws its fault sample with a seed derived from `--seed` and k, while the \
         network weights and evaluation images stay fixed (seed 42), as in a reliability study \
         of one network. `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer \
         ones. The last stdout line is the JSON result; the `record` line before it carries the host \
         fingerprint, per-campaign scheduler times, the engine mix and the calibration table.\n\n\
         ## Workloads\n\n| name | plan | why |\n|---|---|---|\n",
    );
    for w in &WORKLOADS {
        out.push_str(&format!(
            "| `{}` | {:?} {:?}, e = {}, {} images{} | {} |\n",
            w.name,
            w.arch,
            w.plan,
            w.error,
            w.images,
            if w.journal { ", checkpoint journal" } else { "" },
            w.why
        ));
    }
    out.push_str(
        "\n## End-to-end metrics (tracing off)\n\n\
         | name | unit | better | bound | owner | meaning |\n|---|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0),
            m.owner,
            m.meaning
        ));
    }
    out.push_str(
        "\nFailures are the result line's `failed` / `attempted`: faults recorded as \
         `ExecutionFailure`, plus faults whose classification disagrees with the reference \
         slice, the run's first campaign, or (seed 42) the recorded digest.\n\n\
         ## Per-layer metrics (one traced run)\n\n\
         | name | unit | owner | should move | meaning |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.owner, m.moves, m.meaning
        ));
    }
    out
}
