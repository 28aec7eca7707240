//! The three workloads and the calls that set up and run one campaign,
//! made exactly as `sfi run` makes them.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sfi_core::checkpoint::{execute_plan_checkpointed_traced_any, CampaignRun, CheckpointConfig};
use sfi_core::execute::{execute_plan_traced_any, CampaignSpace, PlanProgress, SfiOutcome};
use sfi_core::plan::{plan_data_aware, plan_data_unaware, plan_transient, SchemeKind, SfiPlan};
use sfi_dataset::{Dataset, SynthCifarConfig};
use sfi_faultsim::activation::ActivationSpace;
use sfi_faultsim::campaign::{CampaignConfig, Ieee754Corruption};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::journal::{recover, JournalRecord};
use sfi_faultsim::multi::FaultTarget;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::mobilenet::MobileNetV2Config;
use sfi_nn::resnet::ResNetConfig;
use sfi_nn::Model;
use sfi_obs::Probe;
use sfi_stats::bit_analysis::{DataAwareConfig, WeightBitAnalysis};
use sfi_stats::sample_size::SampleSpec;

use crate::host::{SchedSampler, SchedTotals};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Campaign worker threads (the benchmark host has two cores).
pub const WORKERS: usize = 2;

/// CIFAR-scale input side for both topologies.
const INPUT_SIZE: usize = 32;

/// Seed of the network's weights and of its evaluation images. A
/// reliability study assesses one given network on one evaluation set;
/// what SFI draws at random is the fault sample, and that is what `--seed`
/// varies. (Across weight and image seeds the critical-fault rate, and with
/// it the inferences per fault, swings by a factor of two on MobileNetV2.)
const MODEL_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    ResNet20,
    MobileNetV2,
}

/// How a workload plans its campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Data-unaware `(layer, bit)` weight plan at p = 0.5.
    WeightBitLevel,
    /// Data-aware `(layer, bit)` weight plan, Eq. 4–5 `p(i)`.
    WeightDataAware,
    /// One network-wise stratum over the activation tensors.
    TransientNetworkWise,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub arch: Arch,
    pub plan: PlanKind,
    /// Planned error margin `e`.
    pub error: f64,
    /// Evaluation images.
    pub images: usize,
    /// Campaigns go through the checkpoint journal.
    pub journal: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rn20-weight-bitlevel",
        why: "ResNet-20 bit-level weight plan: dense and batched suffixes, GEMM, batching and \
              early exit carry the cost; half the faults are masked for free",
        arch: Arch::ResNet20,
        plan: PlanKind::WeightBitLevel,
        error: 0.75,
        images: 4,
        journal: false,
    },
    Workload {
        name: "mbv2-weight-dataaware",
        why: "MobileNetV2 data-aware weight plan: depthwise/pointwise GEMMs with BN/ReLU6 \
              epilogues, Eq. 4-5 bit analysis in setup, the largest golden store",
        arch: Arch::MobileNetV2,
        plan: PlanKind::WeightDataAware,
        error: 0.6,
        images: 2,
        journal: false,
    },
    Workload {
        name: "rn20-transient-journal",
        why: "ResNet-20 network-wise transient activation plan with the checkpoint journal: \
              cheap delta faults, so executor, classify and journal writes dominate",
        arch: Arch::ResNet20,
        plan: PlanKind::TransientNetworkWise,
        error: 0.02,
        images: 8,
        journal: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn spec(&self) -> SampleSpec {
        SampleSpec { error_margin: self.error, ..SampleSpec::paper_default() }
    }

    pub fn is_weight(&self) -> bool {
        self.plan != PlanKind::TransientNetworkWise
    }
}

/// Seconds spent in each setup call, in call order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub model_build_s: f64,
    pub dataset_generate_s: f64,
    pub golden_build_s: f64,
    /// `with_lowering`, which also builds the batched golden stack and
    /// runs `CompiledPlan::calibrate`.
    pub lowering_build_s: f64,
    /// Fault space, bit or activation analysis, and the plan.
    pub plan_s: f64,
    /// Wall time of the whole setup, glue included.
    pub total_s: f64,
}

impl SetupTimes {
    pub fn parts_sum(&self) -> f64 {
        self.model_build_s
            + self.dataset_generate_s
            + self.golden_build_s
            + self.lowering_build_s
            + self.plan_s
    }
}

/// Everything a campaign needs, built before the first fault.
pub struct Setup {
    pub workload: &'static Workload,
    pub model: Model,
    pub data: Dataset,
    pub golden: GoldenReference,
    pub space: FaultSpace,
    pub acts: Option<ActivationSpace>,
    pub plan: SfiPlan,
    /// Per-bit p the weight plan was drawn with (0.5 everywhere when
    /// data-unaware); `None` for transient plans.
    pub bit_p: Option<Vec<f64>>,
    pub times: SetupTimes,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_secs_f64();
    out
}

/// Builds the model, data, golden caches and plan.
pub fn setup(workload: &'static Workload) -> Res<Setup> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let model = timed(&mut times.model_build_s, || match workload.arch {
        Arch::ResNet20 => ResNetConfig::resnet20().build_seeded(MODEL_SEED),
        Arch::MobileNetV2 => MobileNetV2Config::cifar().build_seeded(MODEL_SEED),
    })?;
    let data = timed(&mut times.dataset_generate_s, || {
        SynthCifarConfig::new()
            .with_size(INPUT_SIZE)
            .with_samples(workload.images)
            .with_seed(MODEL_SEED)
            .generate()
    });
    let golden = timed(&mut times.golden_build_s, || GoldenReference::build(&model, &data))?;
    let golden = timed(&mut times.lowering_build_s, || golden.with_lowering(&model))?;
    let plan_start = Instant::now();
    let space = FaultSpace::stuck_at(&model);
    let spec = workload.spec();
    let (plan, acts, bit_p) = match workload.plan {
        PlanKind::WeightBitLevel => {
            (plan_data_unaware(&space, &spec), None, Some(vec![spec.p; space.bits() as usize]))
        }
        PlanKind::WeightDataAware => {
            let analysis = WeightBitAnalysis::from_weights(model.store().all_weights())?;
            let plan =
                plan_data_aware(&space, &analysis, &spec, &DataAwareConfig::paper_default())?;
            let p = plan_bit_p(&plan);
            (plan, None, Some(p))
        }
        PlanKind::TransientNetworkWise => {
            let acts = ActivationSpace::build_for(&model, &data, FaultTarget::Activation)?;
            let plan = plan_transient(
                &acts,
                FaultTarget::Activation,
                SchemeKind::NetworkWise,
                None,
                &spec,
            )?;
            (plan, Some(acts), None)
        }
    };
    times.plan_s = plan_start.elapsed().as_secs_f64();
    times.total_s = start.elapsed().as_secs_f64();
    Ok(Setup { workload, model, data, golden, space, acts, plan, bit_p, times })
}

/// The per-bit `p` a `(layer, bit)` weight plan was drawn with.
fn plan_bit_p(plan: &SfiPlan) -> Vec<f64> {
    let bits = plan.strata().iter().filter_map(|s| s.bit).max().map_or(0, |b| b as usize + 1);
    let mut p = vec![0.0; bits];
    for s in plan.strata() {
        if let Some(b) = s.bit {
            p[b as usize] = s.p;
        }
    }
    p
}

impl Setup {
    pub fn campaign_space(&self) -> CampaignSpace<'_> {
        match &self.acts {
            Some(acts) => CampaignSpace::Transient(acts),
            None => CampaignSpace::Weight(&self.space),
        }
    }
}

/// The sampling seed of a run's `rep`-th campaign: the run's seed for the
/// first, fresh draws after it, so a run's median averages over several
/// fault samples.
pub fn campaign_seed(seed: u64, rep: usize) -> u64 {
    seed ^ (rep as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One timed campaign call.
pub struct Campaign {
    /// Seed the plan's faults were sampled with.
    pub seed: u64,
    pub outcome: SfiOutcome,
    /// Wall seconds of the campaign call.
    pub wall_s: f64,
    pub sched: SchedTotals,
    /// `(stratum, seconds)` per stratum that ran faults, in plan order:
    /// each span runs from the previous stratum's last classification (or
    /// the call) to this stratum's last one.
    pub strata_spans: Vec<(usize, f64)>,
    /// Journal records and bytes, for journaled workloads.
    pub journal: Option<(Vec<JournalRecord>, u64)>,
}

impl Campaign {
    /// Share of the machine's CPU time the hypervisor gave to other guests
    /// during the campaign.
    pub fn steal_frac(&self) -> f64 {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.sched.steal_s / (self.wall_s * cores as f64)
    }
}

/// Runs the plan once, sampled with `seed`, under `probe`, timing it from
/// outside.
pub fn run_campaign(setup: &Setup, seed: u64, probe: &Probe, workdir: &Path) -> Res<Campaign> {
    // The engines `sfi run` uses by default.
    let cfg = CampaignConfig { workers: WORKERS, ..CampaignConfig::default() };
    let journal_dir: Option<PathBuf> = setup.workload.journal.then(|| workdir.join("journal"));
    if let Some(dir) = &journal_dir {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
    }
    let mut sampler = SchedSampler::start();
    let mut spans: Vec<(usize, f64)> = Vec::new();
    let start = Instant::now();
    let mut mark = start;
    let mut progress = |p: PlanProgress| {
        let last = p.plan_completed == p.plan_total;
        sampler.poll(last);
        if p.completed == p.total {
            let now = Instant::now();
            spans.push((p.stratum, (now - mark).as_secs_f64()));
            mark = now;
        }
    };
    let (model, data, golden, plan, space) =
        (&setup.model, &setup.data, &setup.golden, &setup.plan, setup.campaign_space());
    let outcome = match &journal_dir {
        None => execute_plan_traced_any(
            model,
            data,
            golden,
            plan,
            space,
            seed,
            &cfg,
            &Ieee754Corruption,
            probe,
            &mut progress,
        )?,
        Some(dir) => {
            let checkpoint = CheckpointConfig::new(dir);
            match execute_plan_checkpointed_traced_any(
                model,
                data,
                golden,
                plan,
                space,
                seed,
                &cfg,
                &Ieee754Corruption,
                &checkpoint,
                None,
                probe,
                &mut progress,
            )? {
                CampaignRun::Complete { outcome, .. } => outcome,
                CampaignRun::Interrupted { .. } => {
                    return Err("journaled campaign reported an interruption".into())
                }
            }
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let sched = sampler.finish();
    let journal = match &journal_dir {
        Some(dir) => {
            let bytes = dir_bytes(dir)?;
            let records = recover(dir)?.records;
            std::fs::remove_dir_all(dir)?;
            Some((records, bytes))
        }
        None => None,
    };
    Ok(Campaign { seed, outcome, wall_s, sched, strata_spans: spans, journal })
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}
