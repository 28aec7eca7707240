//! Weight-level fault injection for CNN reliability campaigns.
//!
//! This crate is the PyTorchFI-equivalent substrate of the SFI workspace:
//!
//! - [`fault`] — the fault models of the paper (permanent stuck-at-0/1 on
//!   weight bits, plus transient bit-flips) and fault-site addressing;
//! - [`population`] — enumeration of the complete fault space of a model
//!   and of the paper's subpopulations (whole network, per layer, per
//!   bit-position-within-layer), with index ⇄ fault decoding so samples
//!   drawn by `sfi-stats` map directly onto injectable faults;
//! - [`injector`] — apply/revert of faults on a model's parameter store;
//! - [`golden`] — the fault-free reference: golden top-1 predictions and
//!   per-image activation caches for incremental re-execution;
//! - [`campaign`] — the (optionally multi-threaded) campaign runner that
//!   injects each fault, re-runs inference **from the faulted layer
//!   onwards**, classifies the fault as Critical / Non-critical exactly as
//!   the paper does (top-1 change against the golden prediction), and
//!   reverts;
//! - [`executor`] — the persistent work-stealing worker pool behind the
//!   campaign runner: one model clone per worker amortised across every
//!   stratum of a plan, dynamic fault distribution, per-campaign
//!   telemetry, worker-panic isolation, and cooperative cancellation;
//! - [`journal`] — the append-only, checksummed checkpoint journal that
//!   makes long campaigns crash-tolerant: every classification is logged
//!   as it completes, and a resumed campaign replays the journal to skip
//!   already-classified faults.
//!
//! # Example
//!
//! ```
//! use sfi_dataset::SynthCifarConfig;
//! use sfi_faultsim::campaign::{run_campaign, CampaignConfig, Ieee754Corruption};
//! use sfi_faultsim::golden::GoldenReference;
//! use sfi_faultsim::population::FaultSpace;
//! use sfi_nn::resnet::ResNetConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
//! let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
//! let golden = GoldenReference::build(&model, &data)?;
//!
//! // Exhaustively inject every stuck-at fault of bit 30 in layer 0.
//! let space = FaultSpace::stuck_at(&model);
//! let subpop = space.bit_subpopulation(0, 30)?;
//! let faults: Vec<_> = subpop.iter().collect();
//! let cfg = CampaignConfig::default();
//! let result = run_campaign(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption)?;
//! assert_eq!(result.injections, subpop.size());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod activation;
pub mod campaign;
pub mod executor;
pub mod fault;
pub mod golden;
pub mod injector;
pub mod journal;
pub mod multi;
pub mod population;
pub mod taxonomy;

pub use error::FaultSimError;
