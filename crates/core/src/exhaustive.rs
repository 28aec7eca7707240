//! Exhaustive fault-injection campaigns — the ground truth the statistical
//! schemes are validated against (paper §V).

use serde::{Deserialize, Serialize};

use sfi_dataset::Dataset;
use sfi_faultsim::campaign::{run_campaign, CampaignConfig, Ieee754Corruption};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::Model;
use sfi_stats::estimate::StratumResult;

use crate::SfiError;

/// Exhaustive per-layer ground truth: the exact critical-fault rate of
/// every weight layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExhaustiveTruth {
    layers: Vec<StratumResult>,
    inferences: u64,
}

impl ExhaustiveTruth {
    /// Runs an exhaustive stuck-at campaign over every weight layer of
    /// `model`.
    ///
    /// The cost is `Σ_l N_l` injections (the paper burned 37 days of GPU
    /// time on full ResNet-20; use the `*_micro` topologies and small
    /// evaluation sets to keep this tractable — see DESIGN.md §2).
    ///
    /// # Errors
    ///
    /// Propagates campaign failures.
    pub fn build(
        model: &Model,
        data: &Dataset,
        golden: &GoldenReference,
        cfg: &CampaignConfig,
    ) -> Result<Self, SfiError> {
        let space = FaultSpace::stuck_at(model);
        let mut layers = Vec::with_capacity(space.layers());
        let mut inferences = 0u64;
        for l in 0..space.layers() {
            let (result, inf) = exhaustive_layer(model, data, golden, &space, l, cfg)?;
            layers.push(result);
            inferences += inf;
        }
        Ok(Self { layers, inferences })
    }

    /// Exhaustive result of one layer.
    pub fn layer(&self, layer: usize) -> Option<&StratumResult> {
        self.layers.get(layer)
    }

    /// Exhaustive results of all layers, in order.
    pub fn layers(&self) -> &[StratumResult] {
        &self.layers
    }

    /// The exact critical rate of layer `layer`.
    pub fn layer_rate(&self, layer: usize) -> Option<f64> {
        self.layer(layer).map(StratumResult::proportion)
    }

    /// The exact whole-network critical rate.
    pub fn network_rate(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.sample).sum();
        let critical: u64 = self.layers.iter().map(|l| l.successes).sum();
        if total == 0 {
            0.0
        } else {
            critical as f64 / total as f64
        }
    }

    /// Total faults injected.
    pub fn injections(&self) -> u64 {
        self.layers.iter().map(|l| l.sample).sum()
    }

    /// Total single-image inferences executed.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }
}

/// Runs one layer's exhaustive campaign, returning `(tallies, inferences)`.
///
/// # Errors
///
/// Propagates enumeration and campaign failures.
pub fn exhaustive_layer(
    model: &Model,
    data: &Dataset,
    golden: &GoldenReference,
    space: &FaultSpace,
    layer: usize,
    cfg: &CampaignConfig,
) -> Result<(StratumResult, u64), SfiError> {
    let subpop = space.layer_subpopulation(layer)?;
    let faults: Vec<_> = subpop.iter().collect();
    let result = run_campaign(model, data, golden, &faults, cfg, &Ieee754Corruption)?;
    Ok((
        StratumResult {
            population: subpop.size(),
            sample: result.injections,
            successes: result.critical(),
        },
        result.inferences,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_dataset::SynthCifarConfig;
    use sfi_nn::resnet::ResNetConfig;

    #[test]
    fn exhaustive_layer_covers_full_population() {
        let model = ResNetConfig::resnet20_micro().build_seeded(3).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        // Layer 0 of the micro net: 54 weights -> 3,456 faults.
        let (result, inferences) =
            exhaustive_layer(&model, &data, &golden, &space, 0, &CampaignConfig::default())
                .unwrap();
        assert_eq!(result.sample, 54 * 64);
        assert_eq!(result.sample, result.population);
        assert!(result.successes > 0, "some stuck-at faults must be critical");
        assert!(result.successes < result.sample, "not all faults are critical");
        assert!(inferences > 0);
        // Exhaustive estimates carry no sampling error.
        assert_eq!(result.error_margin(sfi_stats::confidence::Confidence::C99), 0.0);
    }

    #[test]
    fn exhaustive_is_deterministic() {
        let model = ResNetConfig::resnet20_micro().build_seeded(3).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let cfg = CampaignConfig::default();
        let (a, _) = exhaustive_layer(&model, &data, &golden, &space, 19, &cfg).unwrap();
        let (b, _) = exhaustive_layer(&model, &data, &golden, &space, 19, &cfg).unwrap();
        assert_eq!(a, b);
    }
}
