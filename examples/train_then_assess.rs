//! The full paper workflow on *trained* weights: train a CNN on the
//! synthetic task, confirm the accuracy gain, then run the data-aware SFI
//! methodology against the trained golden weights.
//!
//! Run with: `cargo run --release --example train_then_assess`

use sfi::nn::train::{fit, SgdConfig, TrainConfig};
use sfi::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A separable synthetic task: per-class prototypes with mild noise.
    let data = SynthCifarConfig::new()
        .with_size(16)
        .with_samples(60)
        .with_noise(0.3)
        .with_seed(3)
        .generate();
    let (images, labels): (Vec<_>, Vec<_>) =
        data.iter().map(|(img, label)| (img.clone(), label)).unzip();

    let mut model =
        ResNetConfig { base_width: 4, blocks_per_stage: 1, classes: 10, input_size: 16 }
            .build_seeded(42)?;
    println!("before training: {}", evaluate(&model, &data)?);

    let cfg = TrainConfig {
        epochs: 30,
        batch_size: 10,
        seed: 9,
        sgd: SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 1e-4 },
    };
    let report = fit(&mut model, &images, &labels, &cfg)?;
    println!(
        "after {} epochs: {}  (loss {:.3} -> {:.3})",
        cfg.epochs,
        evaluate(&model, &data)?,
        report.epoch_losses[0],
        report.final_loss()
    );

    // The paper's pipeline, now on trained golden weights: the data-aware
    // prior is derived from the distribution SGD actually produced.
    let eval = data.truncated(8);
    let golden = GoldenReference::build(&model, &eval)?;
    let space = FaultSpace::stuck_at(&model);
    let analysis = WeightBitAnalysis::from_weights(model.store().all_weights())?;
    let spec = SampleSpec { error_margin: 0.02, ..SampleSpec::paper_default() };
    let plan = plan_data_aware(&space, &analysis, &spec, &DataAwareConfig::paper_default())?;
    println!(
        "\ndata-aware plan on trained weights: {} of {} faults ({:.2}%)",
        plan.total_sample(),
        plan.total_population(),
        plan.injected_percent()
    );
    let outcome = execute_plan_traced_any(
        &model,
        &eval,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        7,
        &CampaignConfig::default(),
        &Ieee754Corruption,
        Probe::disabled(),
        &mut |_| {},
    )?;
    let est = outcome.network_estimate(Confidence::C99)?;
    println!(
        "trained network criticality: {:.3}% ± {:.3}% ({} injections in {:.2?})",
        est.proportion * 100.0,
        est.error_margin * 100.0,
        outcome.injections(),
        outcome.elapsed()
    );
    println!("\nmost critical bits of the trained weight distribution:");
    let du_plan = plan_data_unaware(&space, &SampleSpec { error_margin: 0.05, ..spec });
    let du = execute_plan_traced_any(
        &model,
        &eval,
        &golden,
        &du_plan,
        CampaignSpace::Weight(&space),
        7,
        &CampaignConfig::default(),
        &Ieee754Corruption,
        Probe::disabled(),
        &mut |_| {},
    )?;
    for v in bit_ranking(&du, Confidence::C99).iter().take(5) {
        println!(
            "  bit {:2}: {:6.2}% ± {:.2}%",
            v.bit,
            v.estimate.proportion * 100.0,
            v.estimate.error_margin * 100.0
        );
    }
    Ok(())
}
