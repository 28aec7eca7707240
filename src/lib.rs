//! # sfi — Statistical Fault Injection for CNN Reliability
//!
//! A from-scratch Rust reproduction of *"Assessing Convolutional Neural
//! Networks Reliability through Statistical Fault Injections"* (Ruospo et
//! al., DATE 2023, DOI 10.23919/DATE56975.2023.10136998).
//!
//! This facade crate re-exports the workspace's layers:
//!
//! | crate | re-export | role |
//! |---|---|---|
//! | `sfi-tensor` | [`tensor`] | f32 NCHW tensors + CNN operators |
//! | `sfi-nn` | [`nn`] | model graphs, ResNet-20 / MobileNetV2 |
//! | `sfi-dataset` | [`dataset`] | seeded synthetic CIFAR-10-like data |
//! | `sfi-faultsim` | [`faultsim`] | fault models, populations, campaigns |
//! | `sfi-stats` | [`stats`] | Eq. 1 sample sizes, margins, Eq. 4–5 `p(i)` |
//! | `sfi-core` | [`core`] | the four SFI planners + validation |
//!
//! # Quickstart
//!
//! ```
//! use sfi::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Build a model and an evaluation set.
//! let model = ResNetConfig::resnet20_micro().build_seeded(42)?;
//! let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
//! let golden = GoldenReference::build(&model, &data)?;
//!
//! // 2. Plan a layer-wise statistical campaign (paper Eq. 1 per layer).
//! let space = FaultSpace::stuck_at(&model);
//! let spec = SampleSpec { error_margin: 0.1, ..SampleSpec::paper_default() };
//! let plan = plan_layer_wise(&space, &spec);
//!
//! // 3. Execute and read the per-layer criticality estimates.
//! let outcome = execute_plan_traced_any(
//!     &model,
//!     &data,
//!     &golden,
//!     &plan,
//!     CampaignSpace::Weight(&space),
//!     7,
//!     &CampaignConfig::default(),
//!     &Ieee754Corruption,
//!     Probe::disabled(),
//!     &mut |_| {},
//! )?;
//! let est = outcome.layer_estimate(0, Confidence::C99).unwrap();
//! println!("layer 0: {:.2}% ± {:.2}%", est.proportion * 100.0, est.error_margin * 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sfi_core as core;
pub use sfi_dataset as dataset;
pub use sfi_faultsim as faultsim;
pub use sfi_nn as nn;
pub use sfi_obs as obs;
pub use sfi_repr as repr;
pub use sfi_stats as stats;
pub use sfi_tensor as tensor;

pub mod cli;

/// The names most programs need, in one import.
pub mod prelude {
    pub use sfi_core::adaptive::{run_adaptive, AdaptiveConfig, AdaptiveOutcome};
    pub use sfi_core::bits::{bit_ranking, layer_bit_matrix, BitVulnerability};
    pub use sfi_core::checkpoint::{
        execute_plan_checkpointed_traced_any, plan_fingerprint_any, CampaignRun, CheckpointConfig,
        ResumeStats,
    };
    pub use sfi_core::execute::{execute_plan_traced_any, CampaignSpace, SfiOutcome};
    pub use sfi_core::exhaustive::ExhaustiveTruth;
    pub use sfi_core::plan::{
        activation_bit_analysis, plan_accumulated, plan_data_aware, plan_data_aware_with_p,
        plan_data_unaware, plan_layer_wise, plan_network_wise, plan_neyman, plan_transient,
        SchemeKind, SfiPlan,
    };
    pub use sfi_core::validation::validate_against_exhaustive;
    pub use sfi_core::SfiError;
    pub use sfi_dataset::{evaluate, Dataset, SynthCifarConfig};
    pub use sfi_faultsim::activation::{ActivationFault, ActivationSpace};
    pub use sfi_faultsim::campaign::{
        run_campaign, CampaignConfig, Criterion, FaultClass, Ieee754Corruption,
    };
    pub use sfi_faultsim::executor::CancelToken;
    pub use sfi_faultsim::fault::{Fault, FaultModel, FaultSite};
    pub use sfi_faultsim::golden::GoldenReference;
    pub use sfi_faultsim::journal::{FaultId, JournalRecord, JournalRecovery, JournalWriter};
    pub use sfi_faultsim::multi::{AccumulatedFault, CampaignFault, FaultTarget};
    pub use sfi_faultsim::population::FaultSpace;
    pub use sfi_nn::mobilenet::MobileNetV2Config;
    pub use sfi_nn::resnet::ResNetConfig;
    pub use sfi_nn::vgg::VggConfig;
    pub use sfi_nn::Model;
    pub use sfi_obs::Probe;
    pub use sfi_repr::{
        data_aware_p_format, quantize_weights, Format, FormatBitAnalysis, FormatCorruption,
    };
    pub use sfi_stats::bit_analysis::{data_aware_p, DataAwareConfig, WeightBitAnalysis};
    pub use sfi_stats::confidence::Confidence;
    pub use sfi_stats::estimate::{stratified_estimate, StratumResult};
    pub use sfi_stats::sample_size::{sample_size, SampleSpec};
    pub use sfi_tensor::{Shape, Tensor};
}
