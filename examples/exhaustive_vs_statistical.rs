//! The paper's validation experiment in miniature (Table III): run an
//! exhaustive campaign on a reduced-scale ResNet-20, then all four
//! statistical SFI schemes, and compare cost vs accuracy.
//!
//! Run with: `cargo run --release --example exhaustive_vs_statistical`

use sfi::core::report::{group_digits, percent, TextTable};
use sfi::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ResNet-8 at width 2 keeps the exhaustive campaign around a minute.
    let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 16 }
        .build_seeded(42)?;
    let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
    let golden = GoldenReference::build(&model, &data)?;
    let space = FaultSpace::stuck_at(&model);
    let cfg = CampaignConfig::default();

    println!("exhaustive campaign over {} faults...", group_digits(space.total()));
    let truth = ExhaustiveTruth::build(&model, &data, &golden, &cfg)?;
    println!(
        "exhaustive: {:.3}% of faults are critical ({} injections)\n",
        truth.network_rate() * 100.0,
        group_digits(truth.injections())
    );

    // All four schemes, planned at e = 2.5% for demo speed (paper: 1%).
    let spec = SampleSpec { error_margin: 0.025, ..SampleSpec::paper_default() };
    let analysis = WeightBitAnalysis::from_weights(model.store().all_weights())?;
    let plans = vec![
        plan_network_wise(&space, &spec),
        plan_layer_wise(&space, &spec),
        plan_data_unaware(&space, &spec),
        plan_data_aware(&space, &analysis, &spec, &DataAwareConfig::paper_default())?,
    ];

    let mut table = TextTable::new(vec![
        "scheme".into(),
        "faults (n)".into(),
        "injected %".into(),
        "avg margin".into(),
        "coverage".into(),
    ]);
    for plan in plans {
        let outcome = execute_plan_traced_any(
            &model,
            &data,
            &golden,
            &plan,
            CampaignSpace::Weight(&space),
            11,
            &cfg,
            &Ieee754Corruption,
            Probe::disabled(),
            &mut |_| {},
        )?;
        let validation = validate_against_exhaustive(&outcome, &truth, Confidence::C99);
        table.add_row(vec![
            plan.scheme().to_string(),
            group_digits(validation.injections),
            format!("{:.2}", validation.injected_percent),
            percent(validation.avg_error_margin, 3),
            validation
                .coverage_non_degenerate()
                .map(|c| percent(c, 0))
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    println!("{}", table.render());
    println!("(coverage = share of non-degenerate layers whose exhaustive rate");
    println!(" falls inside the statistical error margin, as in paper Figs. 5-7)");
    Ok(())
}
