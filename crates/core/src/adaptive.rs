//! Adaptive (sequential) sampling: stop injecting as soon as the estimate
//! is tight enough.
//!
//! Eq. 1 sizes a sample *before* seeing any outcome, so it must assume the
//! worst-case `p = 0.5` (or the data-aware prior). But the margin that
//! matters is the one realised at the *observed* proportion — and critical
//! rates in CNN weight memories are far below 0.5, so a fixed plan
//! routinely overshoots. The adaptive sampler draws faults in growing
//! chunks from a uniformly random enumeration of the subpopulation and
//! stops when the Wilson half-width (robust where the Wald margin
//! degenerates) reaches the target — typically several-fold cheaper at the
//! same precision. This extends the paper's methodology in the direction
//! its §II machinery already points.

use serde::{Deserialize, Serialize};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sfi_dataset::Dataset;
use sfi_faultsim::campaign::{run_campaign, CampaignConfig, Corruption};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::Subpopulation;
use sfi_nn::Model;
use sfi_stats::confidence::Confidence;
use sfi_stats::estimate::StratumResult;
use sfi_stats::sampling::sample_without_replacement;

use crate::SfiError;

/// Stopping rule and chunking of an adaptive campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Stop when the Wilson half-width falls to (or below) this value.
    pub target_margin: f64,
    /// Confidence level of the interval.
    pub confidence: Confidence,
    /// Faults injected in the first round; rounds double in size.
    pub initial_chunk: u64,
    /// Hard cap on total injections (`None`: the subpopulation size).
    pub max_total: Option<u64>,
}

impl AdaptiveConfig {
    /// The paper-flavoured default: 1% margin at 99% confidence, starting
    /// with 64-fault rounds.
    pub fn new(target_margin: f64) -> Self {
        Self { target_margin, confidence: Confidence::C99, initial_chunk: 64, max_total: None }
    }
}

/// Outcome of an adaptive campaign on one subpopulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// Final tallies (population, injected sample, critical successes).
    pub result: StratumResult,
    /// Number of sampling rounds executed.
    pub rounds: u32,
    /// Single-image inferences spent.
    pub inferences: u64,
    /// Whether the target margin was reached (false: the population or the
    /// cap was exhausted first).
    pub converged: bool,
}

impl AdaptiveOutcome {
    /// The achieved Wilson half-width.
    pub fn achieved_margin(&self, confidence: Confidence) -> f64 {
        self.result.wilson_half_width(confidence)
    }
}

/// Runs an adaptive campaign over `subpop` until the Wilson half-width
/// reaches `cfg.target_margin`. `corruption` produces each fault's faulty
/// weight value ([`Ieee754Corruption`](sfi_faultsim::campaign::Ieee754Corruption)
/// for the paper's IEEE-754 setting, a reduced-precision format's
/// corruption otherwise).
///
/// The fault order is a uniformly random permutation prefix (sparse
/// Fisher–Yates), so after any round the injected set is a simple random
/// sample — each intermediate estimate is unbiased.
///
/// # Errors
///
/// Propagates sampling and campaign failures.
///
/// # Example
///
/// ```
/// use sfi_core::adaptive::{run_adaptive, AdaptiveConfig};
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::campaign::{CampaignConfig, Ieee754Corruption};
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_faultsim::population::FaultSpace;
/// use sfi_nn::resnet::ResNetConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// let subpop = FaultSpace::stuck_at(&model).layer_subpopulation(0)?;
/// let cfg = AdaptiveConfig::new(0.05);
/// let ccfg = CampaignConfig::default();
/// let outcome =
///     run_adaptive(&model, &data, &golden, &subpop, &cfg, 7, &ccfg, &Ieee754Corruption)?;
/// assert!(outcome.converged);
/// # Ok(())
/// # }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run_adaptive<C: Corruption>(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    subpop: &Subpopulation,
    cfg: &AdaptiveConfig,
    seed: u64,
    campaign_cfg: &CampaignConfig,
    corruption: &C,
) -> Result<AdaptiveOutcome, SfiError> {
    let population = subpop.size();
    let cap = cfg.max_total.unwrap_or(population).min(population);
    // One uniformly random order; prefixes of a Fisher–Yates shuffle are
    // simple random samples, so the adaptive prefix stays unbiased.
    let mut rng = StdRng::seed_from_u64(seed);
    let order = sample_without_replacement(population, cap, &mut rng)?;

    let mut injected = 0u64;
    let mut successes = 0u64;
    let mut inferences = 0u64;
    let mut rounds = 0u32;
    let mut chunk = cfg.initial_chunk.max(1);
    while injected < cap {
        let take = chunk.min(cap - injected);
        let indices = &order[injected as usize..(injected + take) as usize];
        let faults = subpop.faults_at(indices)?;
        let res = run_campaign(model, data, golden, &faults, campaign_cfg, corruption)?;
        injected += res.injections;
        successes += res.critical();
        inferences += res.inferences;
        rounds += 1;
        let result = StratumResult { population, sample: injected, successes };
        if result.wilson_half_width(cfg.confidence) <= cfg.target_margin {
            return Ok(AdaptiveOutcome { result, rounds, inferences, converged: true });
        }
        chunk = chunk.saturating_mul(2);
    }
    let result = StratumResult { population, sample: injected, successes };
    let converged =
        result.wilson_half_width(cfg.confidence) <= cfg.target_margin || injected == population;
    Ok(AdaptiveOutcome { result, rounds, inferences, converged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_dataset::SynthCifarConfig;
    use sfi_faultsim::campaign::Ieee754Corruption;
    use sfi_faultsim::population::FaultSpace;
    use sfi_nn::resnet::ResNetConfig;
    use sfi_stats::sample_size::{sample_size, SampleSpec};

    fn setup() -> (Model, Dataset, GoldenReference) {
        let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
            .build_seeded(18)
            .unwrap();
        let data = SynthCifarConfig::new().with_size(8).with_samples(3).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        (model, data, golden)
    }

    #[test]
    fn adaptive_reaches_target_margin() {
        let (model, data, golden) = setup();
        let subpop = FaultSpace::stuck_at(&model).layer_subpopulation(4).unwrap();
        let cfg = AdaptiveConfig::new(0.04);
        let out = run_adaptive(
            &model,
            &data,
            &golden,
            &subpop,
            &cfg,
            3,
            &CampaignConfig::default(),
            &Ieee754Corruption,
        )
        .unwrap();
        assert!(out.converged);
        assert!(out.achieved_margin(Confidence::C99) <= 0.04 + 1e-12);
        assert!(out.result.sample <= subpop.size());
        assert!(out.rounds >= 1);
    }

    #[test]
    fn adaptive_beats_fixed_worst_case_plan_on_rare_events() {
        // Critical rates are far below 0.5, so the adaptive sample should
        // be well below the Eq.-1 worst-case size at the same target.
        let (model, data, golden) = setup();
        let subpop = FaultSpace::stuck_at(&model).layer_subpopulation(4).unwrap();
        let target = 0.04;
        let fixed = sample_size(
            subpop.size(),
            &SampleSpec { error_margin: target, ..SampleSpec::paper_default() },
        );
        let out = run_adaptive(
            &model,
            &data,
            &golden,
            &subpop,
            &AdaptiveConfig::new(target),
            3,
            &CampaignConfig::default(),
            &Ieee754Corruption,
        )
        .unwrap();
        assert!(out.result.sample * 2 < fixed, "adaptive {} vs fixed {fixed}", out.result.sample);
    }

    #[test]
    fn adaptive_is_deterministic_per_seed() {
        let (model, data, golden) = setup();
        let subpop = FaultSpace::stuck_at(&model).layer_subpopulation(2).unwrap();
        let cfg = AdaptiveConfig::new(0.06);
        let ccfg = CampaignConfig::default();
        let a = run_adaptive(&model, &data, &golden, &subpop, &cfg, 9, &ccfg, &Ieee754Corruption)
            .unwrap();
        let b = run_adaptive(&model, &data, &golden, &subpop, &cfg, 9, &ccfg, &Ieee754Corruption)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_respects_cap() {
        let (model, data, golden) = setup();
        let subpop = FaultSpace::stuck_at(&model).layer_subpopulation(0).unwrap();
        let cfg = AdaptiveConfig {
            target_margin: 1e-9, // unreachable
            max_total: Some(100),
            ..AdaptiveConfig::new(0.01)
        };
        let out = run_adaptive(
            &model,
            &data,
            &golden,
            &subpop,
            &cfg,
            1,
            &CampaignConfig::default(),
            &Ieee754Corruption,
        )
        .unwrap();
        assert_eq!(out.result.sample, 100);
        assert!(!out.converged);
    }

    #[test]
    fn exhausting_population_counts_as_converged() {
        let (model, data, golden) = setup();
        // Bit subpopulation of layer 0: only 108 faults.
        let subpop = FaultSpace::stuck_at(&model).bit_subpopulation(0, 5).unwrap();
        let cfg = AdaptiveConfig { target_margin: 1e-9, ..AdaptiveConfig::new(0.01) };
        let out = run_adaptive(
            &model,
            &data,
            &golden,
            &subpop,
            &cfg,
            1,
            &CampaignConfig::default(),
            &Ieee754Corruption,
        )
        .unwrap();
        assert_eq!(out.result.sample, subpop.size());
        assert!(out.converged, "a census is exact by definition");
    }
}
