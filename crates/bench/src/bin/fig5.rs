//! Regenerates **paper Fig. 5**: per-layer critical-fault percentage with
//! error margins, layer-wise vs data-aware SFI, against exhaustive ground
//! truth, on the 20-layer ResNet-20 topology (reduced width/images — see
//! DESIGN.md §2).
//!
//! Run with: `cargo run --release -p sfi-bench --bin fig5 [-- --scale smoke|full]`

use sfi_bench::{resnet20_setup, Scale};
use sfi_core::execute::{execute_plan_traced_any, CampaignSpace};
use sfi_core::exhaustive::ExhaustiveTruth;
use sfi_core::plan::{plan_data_aware, plan_layer_wise};
use sfi_core::report::{group_digits, TextTable};
use sfi_faultsim::campaign::{CampaignConfig, Ieee754Corruption};
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::population::FaultSpace;
use sfi_obs::Probe;
use sfi_stats::bit_analysis::{DataAwareConfig, WeightBitAnalysis};
use sfi_stats::confidence::Confidence;

fn main() {
    let setup = resnet20_setup(Scale::from_args());
    let (model, data, spec) = (&setup.model, &setup.data, &setup.spec);
    let golden = GoldenReference::build(model, data).expect("golden reference builds");
    let space = FaultSpace::stuck_at(model);
    let cfg = CampaignConfig::default();

    eprintln!("exhaustive campaign over {} faults...", group_digits(space.total()));
    let truth = ExhaustiveTruth::build(model, data, &golden, &cfg).expect("exhaustive runs");

    let lw_plan = plan_layer_wise(&space, spec);
    let analysis =
        WeightBitAnalysis::from_weights(model.store().all_weights()).expect("model has weights");
    let da_plan = plan_data_aware(&space, &analysis, spec, &DataAwareConfig::paper_default())
        .expect("valid data-aware config");
    eprintln!("layer-wise campaign: {} faults...", group_digits(lw_plan.total_sample()));
    let lw = execute_plan_traced_any(
        model,
        data,
        &golden,
        &lw_plan,
        CampaignSpace::Weight(&space),
        3,
        &cfg,
        &Ieee754Corruption,
        Probe::disabled(),
        &mut |_| {},
    )
    .expect("layer-wise runs");
    eprintln!("data-aware campaign: {} faults...", group_digits(da_plan.total_sample()));
    let da = execute_plan_traced_any(
        model,
        data,
        &golden,
        &da_plan,
        CampaignSpace::Weight(&space),
        3,
        &cfg,
        &Ieee754Corruption,
        Probe::disabled(),
        &mut |_| {},
    )
    .expect("data-aware runs");

    println!(
        "\nFig. 5 — per-layer critical %% (exhaustive | layer-wise ± margin | data-aware ± margin)"
    );
    let mut table = TextTable::new(vec![
        "Layer".into(),
        "Exhaustive %".into(),
        "Layer-wise %".into(),
        "±".into(),
        "n(LW)".into(),
        "Data-aware %".into(),
        "± ".into(),
        "n(DA)".into(),
    ]);
    for l in 0..space.layers() {
        let t = truth.layer_rate(l).expect("truth covers every layer");
        let lw_est = lw.layer_estimate(l, Confidence::C99).expect("layer sampled");
        let da_est = da.layer_estimate(l, Confidence::C99).expect("layer sampled");
        table.add_row(vec![
            format!("L{l}"),
            format!("{:.3}", t * 100.0),
            format!("{:.3}", lw_est.proportion * 100.0),
            format!("{:.3}", lw_est.error_margin * 100.0),
            lw_est.sample.to_string(),
            format!("{:.3}", da_est.proportion * 100.0),
            format!("{:.3}", da_est.error_margin * 100.0),
            da_est.sample.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("expected shape (matches the paper): both schemes bracket the exhaustive");
    println!("rate; the data-aware margins are comparable to layer-wise at fewer FIs.");
}
