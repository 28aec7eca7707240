//! Validating statistical campaigns against exhaustive ground truth —
//! the analysis behind paper Table III and Figs. 5–7.

use serde::{Deserialize, Serialize};

use sfi_stats::confidence::Confidence;
use sfi_stats::estimate::StratifiedEstimate;

use crate::execute::SfiOutcome;
use crate::exhaustive::ExhaustiveTruth;
use crate::plan::SchemeKind;

/// One layer's comparison: statistical estimate vs exhaustive truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerValidation {
    /// Weight layer index.
    pub layer: usize,
    /// Exact critical rate from the exhaustive campaign.
    pub exhaustive_rate: f64,
    /// The statistical estimate and its error margin.
    pub estimate: StratifiedEstimate,
    /// Whether the exhaustive rate falls inside `estimate ± margin` — the
    /// paper's validity criterion for a statistical campaign.
    pub within_margin: bool,
    /// Whether the estimate is *degenerate*: the sample observed zero (or
    /// only) successes, so the Eq.-1 (Wald) margin collapses to zero and
    /// says nothing. The paper's campaigns never reach this regime (their
    /// per-layer samples are ≥10⁴ at e = 1%); reduced-scale runs can.
    pub degenerate: bool,
}

/// Summary of one SFI scheme's validation run (one row of paper Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeValidation {
    /// The scheme validated.
    pub scheme: SchemeKind,
    /// Total faults injected by the statistical campaign.
    pub injections: u64,
    /// Injected faults as a percentage of the exhaustive population.
    pub injected_percent: f64,
    /// Error margin averaged over all layers (Table III's
    /// "Avg Error Margin").
    pub avg_error_margin: f64,
    /// Per-layer detail.
    pub layers: Vec<LayerValidation>,
}

impl SchemeValidation {
    /// Fraction of layers whose exhaustive rate fell inside the margin.
    pub fn coverage(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        let hits = self.layers.iter().filter(|l| l.within_margin).count();
        hits as f64 / self.layers.len() as f64
    }

    /// Coverage over non-degenerate layers only (see
    /// [`LayerValidation::degenerate`]); `None` when every layer is
    /// degenerate.
    pub fn coverage_non_degenerate(&self) -> Option<f64> {
        let eligible: Vec<_> = self.layers.iter().filter(|l| !l.degenerate).collect();
        if eligible.is_empty() {
            return None;
        }
        let hits = eligible.iter().filter(|l| l.within_margin).count();
        Some(hits as f64 / eligible.len() as f64)
    }

    /// Whether every layer's margin respected the planned bound `e`.
    pub fn margins_within(&self, e: f64) -> bool {
        self.layers.iter().all(|l| l.estimate.error_margin <= e + 1e-12)
    }
}

/// Compares an executed SFI outcome against exhaustive ground truth,
/// layer by layer.
///
/// Layers for which the outcome provides no estimate (possible for a
/// network-wise sample that missed a tiny layer entirely) are skipped; the
/// paper's Fig. 7 bars are simply absent in that case too.
pub fn validate_against_exhaustive(
    outcome: &SfiOutcome,
    truth: &ExhaustiveTruth,
    confidence: Confidence,
) -> SchemeValidation {
    let mut layers = Vec::new();
    for (layer, exhaustive) in truth.layers().iter().enumerate() {
        let Some(estimate) = outcome.layer_estimate(layer, confidence) else {
            continue;
        };
        let rate = exhaustive.proportion();
        let within = (estimate.proportion - rate).abs() <= estimate.error_margin + 1e-12;
        let degenerate = estimate.sample > 0
            && (estimate.successes == 0 || estimate.successes == estimate.sample);
        layers.push(LayerValidation {
            layer,
            exhaustive_rate: rate,
            estimate,
            within_margin: within,
            degenerate,
        });
    }
    let avg_error_margin = if layers.is_empty() {
        0.0
    } else {
        layers.iter().map(|l| l.estimate.error_margin).sum::<f64>() / layers.len() as f64
    };
    let population = truth.injections().max(1);
    SchemeValidation {
        scheme: outcome.scheme(),
        injections: outcome.injections(),
        injected_percent: outcome.injections() as f64 / population as f64 * 100.0,
        avg_error_margin,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{execute_untraced, CampaignSpace};
    use crate::plan::plan_layer_wise;
    use sfi_dataset::SynthCifarConfig;
    use sfi_faultsim::campaign::CampaignConfig;
    use sfi_faultsim::golden::GoldenReference;
    use sfi_faultsim::population::FaultSpace;
    use sfi_nn::resnet::ResNetConfig;
    use sfi_stats::sample_size::SampleSpec;

    /// A ResNet-8 small enough for full exhaustive truth inside a test.
    fn tiny_resnet() -> sfi_nn::Model {
        ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
            .build_seeded(14)
            .unwrap()
    }

    /// End-to-end: statistical layer-wise SFI must bracket the exhaustive
    /// truth on every non-degenerate layer. This is the paper's central
    /// claim in miniature.
    #[test]
    fn layer_wise_estimates_bracket_exhaustive_truth() {
        let model = tiny_resnet();
        let data = SynthCifarConfig::new().with_size(8).with_samples(4).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let cfg = CampaignConfig::default();

        let truth = ExhaustiveTruth::build(&model, &data, &golden, &cfg).unwrap();
        assert!(truth.network_rate() > 0.0, "some faults must be critical");

        // Statistical campaign at e = 5%. The seed must bracket under the
        // vendored StdRng stream (vendor/README.md) — at C99 per stratum a
        // random seed still misses some layer ~8% of the time.
        let spec = SampleSpec { error_margin: 0.05, ..SampleSpec::paper_default() };
        let plan = plan_layer_wise(&space, &spec);
        let outcome =
            execute_untraced(&model, &data, &golden, &plan, CampaignSpace::Weight(&space), 1, &cfg)
                .unwrap();
        let validation = validate_against_exhaustive(&outcome, &truth, Confidence::C99);

        let non_degenerate: Vec<_> = validation.layers.iter().filter(|l| !l.degenerate).collect();
        assert!(
            non_degenerate.len() >= validation.layers.len() / 2,
            "most layers should observe some criticality"
        );
        for l in &non_degenerate {
            assert!(
                l.within_margin,
                "layer {}: estimate {} ± {} vs truth {}",
                l.layer, l.estimate.proportion, l.estimate.error_margin, l.exhaustive_rate
            );
            // The realised margin respects the planned bound (p̂ < 0.5
            // makes it strictly tighter).
            assert!(l.estimate.error_margin <= 0.05 + 1e-9);
        }
    }

    #[test]
    fn validation_summary_shape() {
        let model = tiny_resnet();
        let data = SynthCifarConfig::new().with_size(8).with_samples(4).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let cfg = CampaignConfig::default();
        let truth = ExhaustiveTruth::build(&model, &data, &golden, &cfg).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let spec = SampleSpec { error_margin: 0.05, ..SampleSpec::paper_default() };
        let plan = plan_layer_wise(&space, &spec);
        let outcome =
            execute_untraced(&model, &data, &golden, &plan, CampaignSpace::Weight(&space), 1, &cfg)
                .unwrap();
        let validation = validate_against_exhaustive(&outcome, &truth, Confidence::C99);
        assert_eq!(validation.scheme, SchemeKind::LayerWise);
        assert_eq!(validation.layers.len(), 8, "ResNet-8 has 8 weight layers");
        assert!(validation.injected_percent > 0.0 && validation.injected_percent < 100.0);
        assert!(validation.avg_error_margin > 0.0);
        let coverage = validation.coverage_non_degenerate().expect("some layers non-degenerate");
        assert!(coverage > 0.7, "coverage {coverage}");
        assert!(validation.margins_within(0.05));
    }
}
