//! The paper's future-work direction, implemented: data-aware SFI over
//! reduced-precision weight memories (FP16, bfloat16, int8 fixed point),
//! comparing per-format criticality and campaign cost.
//!
//! Run with: `cargo run --release --example quantized_formats`

use sfi::core::report::{group_digits, TextTable};
use sfi::prelude::*;

fn assess(format: Format) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    // Quantise the weights onto the format's grid; inference stays f32, as
    // in dequantise-on-load weight memories.
    let mut model =
        ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 16 }
            .build_seeded(42)?;
    quantize_weights(model.store_mut(), format);
    let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
    let golden = GoldenReference::build(&model, &data)?;

    // The format's own fault space: bits() faults per weight per polarity.
    let space = FaultSpace::stuck_at(&model).with_bits(u64::from(format.bits()));
    let spec = SampleSpec { error_margin: 0.02, ..SampleSpec::paper_default() };

    // Data-aware p(i) over the format's bit positions (Eq. 4-5).
    let analysis = FormatBitAnalysis::from_weights(format, model.store().all_weights())?;
    let p = data_aware_p_format(&analysis, &DataAwareConfig::paper_default())?;
    let plan = plan_data_aware_with_p(&space, &p, &spec)?;

    let corruption = FormatCorruption::new(format);
    let outcome = execute_plan_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        7,
        &CampaignConfig::default(),
        &corruption,
        Probe::disabled(),
        &mut |_| {},
    )?;
    let est = outcome.network_estimate(Confidence::C99)?;
    Ok(vec![
        format.to_string(),
        format.bits().to_string(),
        group_digits(space.total()),
        group_digits(outcome.injections()),
        format!("{:.2}", plan.injected_percent()),
        format!("{:.3} ± {:.3}", est.proportion * 100.0, est.error_margin * 100.0),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("data-aware SFI across weight representations (reduced ResNet, 4 images)\n");
    let mut table = TextTable::new(vec![
        "format".into(),
        "bits".into(),
        "fault space".into(),
        "injected".into(),
        "inj %".into(),
        "critical % (99% CI)".into(),
    ]);
    for format in [Format::F16, Format::Bf16, Format::fixed(8, 6)?, Format::fixed(16, 12)?] {
        table.add_row(assess(format)?);
    }
    println!("{}", table.render());
    println!("reading: float formats concentrate criticality in the exponent MSB,");
    println!("fixed point spreads it across the high magnitude bits — and the");
    println!("data-aware planner adapts p(i) to each encoding automatically.");
    Ok(())
}
