//! End-to-end SFI campaigns over reduced-precision weight memories.

use sfi_core::execute::{execute_plan_traced_any, CampaignSpace};
use sfi_core::plan::{
    plan_accumulated, plan_data_aware_with_p, plan_data_unaware, plan_layer_wise,
};
use sfi_dataset::SynthCifarConfig;
use sfi_faultsim::activation::ActivationSpace;
use sfi_faultsim::campaign::{run_campaign, CampaignConfig};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::multi::FaultTarget;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::resnet::ResNetConfig;
use sfi_obs::Probe;
use sfi_repr::{
    data_aware_p_format, quantize_weights, Format, FormatBitAnalysis, FormatCorruption,
};
use sfi_stats::bit_analysis::DataAwareConfig;
use sfi_stats::confidence::Confidence;
use sfi_stats::sample_size::SampleSpec;

fn quantized_setup(format: Format) -> (sfi_nn::Model, sfi_dataset::Dataset, GoldenReference) {
    let mut model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(33)
        .unwrap();
    quantize_weights(model.store_mut(), format);
    let data = SynthCifarConfig::new().with_size(8).with_samples(3).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    (model, data, golden)
}

#[test]
fn int8_campaign_produces_sane_classification() {
    let format = Format::fixed(8, 6).unwrap();
    let (model, data, golden) = quantized_setup(format);
    let space = FaultSpace::stuck_at(&model).with_bits(8);
    assert_eq!(space.total(), model.store().total_weights() as u64 * 16);

    // Exhaustive over layer 0's 8-bit fault space (54 weights x 16 faults).
    let sub = space.layer_subpopulation(0).unwrap();
    let faults: Vec<_> = sub.iter().collect();
    let corruption = FormatCorruption::new(format);
    let res =
        run_campaign(&model, &data, &golden, &faults, &CampaignConfig::default(), &corruption)
            .unwrap();
    assert_eq!(res.injections, sub.size());
    // Exactly half of all stuck-at faults are masked (one polarity per bit
    // always matches the stored value).
    assert_eq!(res.masked(), sub.size() / 2);
    assert!(res.critical() > 0, "sign/MSB faults must disturb the top-1");
    assert!(res.critical() < res.injections);
}

#[test]
fn quantized_statistical_campaign_brackets_quantized_truth() {
    let format = Format::fixed(8, 6).unwrap();
    let (model, data, golden) = quantized_setup(format);
    let space = FaultSpace::stuck_at(&model).with_bits(8);
    let corruption = FormatCorruption::new(format);
    let cfg = CampaignConfig::default();

    // Exhaustive truth for layer 4.
    let sub = space.layer_subpopulation(4).unwrap();
    let faults: Vec<_> = sub.iter().collect();
    let exhaustive = run_campaign(&model, &data, &golden, &faults, &cfg, &corruption).unwrap();
    let truth = exhaustive.critical_rate();

    // Layer-wise statistical estimate at e = 4%.
    let spec = SampleSpec { error_margin: 0.04, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec).restricted_to_layer(4, &space);
    let outcome = execute_plan_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        5,
        &cfg,
        &corruption,
        Probe::disabled(),
        &mut |_| {},
    )
    .unwrap();
    let est = outcome.layer_estimate(4, Confidence::C99).unwrap();
    assert!(
        (est.proportion - truth).abs() <= est.error_margin.max(0.04) + 1e-9,
        "estimate {} ± {} vs truth {truth}",
        est.proportion,
        est.error_margin
    );
}

#[test]
fn data_aware_plan_over_f16_space_shrinks_cost() {
    let format = Format::F16;
    let (model, _, _) = quantized_setup(format);
    let space = FaultSpace::stuck_at(&model).with_bits(16);
    let spec = SampleSpec { error_margin: 0.02, ..SampleSpec::paper_default() };
    let unaware = plan_data_unaware(&space, &spec);
    assert_eq!(unaware.strata().len(), 8 * 16, "8 layers x 16 bits");
    let analysis = FormatBitAnalysis::from_weights(format, model.store().all_weights()).unwrap();
    let p = data_aware_p_format(&analysis, &DataAwareConfig::paper_default()).unwrap();
    let aware = plan_data_aware_with_p(&space, &p, &spec).unwrap();
    assert!(aware.total_sample() < unaware.total_sample());
    assert_eq!(aware.total_population(), unaware.total_population());
}

#[test]
fn plan_with_short_p_vector_rejected() {
    let model = ResNetConfig::resnet20_micro().build_seeded(1).unwrap();
    let space = FaultSpace::stuck_at(&model).with_bits(16);
    let spec = SampleSpec::paper_default();
    assert!(plan_data_aware_with_p(&space, &[0.5; 8], &spec).is_err());
    assert!(plan_data_aware_with_p(&space, &[2.0; 16], &spec).is_err());
    assert!(plan_data_aware_with_p(&space, &[0.25; 16], &spec).is_ok());
}

#[test]
fn accumulated_faults_over_quantized_weights_are_deterministic() {
    // k simultaneous faults composed over a reduced-precision weight
    // memory (int8 stuck-at weight components through the format's
    // corruption) plus transient f32 activation components: the campaign
    // must classify and tally identically at any worker count.
    let format = Format::fixed(8, 6).unwrap();
    let (model, data, golden) = quantized_setup(format);
    let space = FaultSpace::stuck_at(&model).with_bits(8);
    let acts = ActivationSpace::build_for(&model, &data, FaultTarget::Activation).unwrap();
    let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
    let corruption = FormatCorruption::new(format);
    for k in [2u64, 4] {
        let plan = plan_accumulated(space.total() + acts.total(), k, &spec).unwrap();
        assert_eq!(plan.accumulate(), k);
        let run = |workers: usize| {
            execute_plan_traced_any(
                &model,
                &data,
                &golden,
                &plan,
                CampaignSpace::Accumulated { weights: &space, activations: &acts },
                9,
                &CampaignConfig { workers, ..CampaignConfig::default() },
                &corruption,
                Probe::disabled(),
                &mut |_| {},
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.strata(), four.strata(), "k={k}");
        assert_eq!(one.injections(), four.injections());
        assert!(one.injections() > 0);
    }
}

#[test]
fn formats_rank_by_masked_fraction() {
    // Sanity: under any format, stuck-at campaigns mask exactly half the
    // faults of a fully-enumerated bit subpopulation.
    for format in [Format::F16, Format::Bf16, Format::fixed(8, 6).unwrap()] {
        let (model, data, golden) = quantized_setup(format);
        let space = FaultSpace::stuck_at(&model).with_bits(u64::from(format.bits()));
        let sub = space.bit_subpopulation(0, 0).unwrap();
        let faults: Vec<_> = sub.iter().collect();
        let res = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &CampaignConfig::default(),
            &FormatCorruption::new(format),
        )
        .unwrap();
        assert_eq!(res.masked(), sub.size() / 2, "{format}");
    }
}
