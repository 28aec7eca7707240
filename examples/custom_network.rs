//! Assessing a *custom* CNN with the same methodology: build an arbitrary
//! model graph through the public `sfi-nn` API, then run a data-aware SFI
//! on it. Demonstrates that the planners are topology-agnostic — anything
//! exposing weight layers gets the full treatment.
//!
//! Run with: `cargo run --release --example custom_network`

use sfi::nn::{init, Model, Node, NodeOp, ParamKind, ParameterStore};
use sfi::prelude::*;
use sfi::tensor::ops::Conv2dCfg;

/// A small LeNet-style network: two conv/pool stages and two linear layers.
fn build_lenet(seed: u64) -> Result<Model, Box<dyn std::error::Error>> {
    let mut store = ParameterStore::new();
    let w0 =
        store.push("conv1.weight", ParamKind::Weight { layer: 0 }, Tensor::zeros([6, 1, 5, 5]));
    let w1 =
        store.push("conv2.weight", ParamKind::Weight { layer: 1 }, Tensor::zeros([16, 6, 5, 5]));
    let w2 =
        store.push("fc1.weight", ParamKind::Weight { layer: 2 }, Tensor::zeros([32, 16 * 7 * 7]));
    let b2 = store.push("fc1.bias", ParamKind::Bias, Tensor::zeros([32]));
    let w3 = store.push("fc2.weight", ParamKind::Weight { layer: 3 }, Tensor::zeros([10, 32]));
    let b3 = store.push("fc2.bias", ParamKind::Bias, Tensor::zeros([10]));

    let nodes = vec![
        Node { op: NodeOp::Input, inputs: vec![] },
        Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
        Node::unary(NodeOp::Relu, 1),
        Node::unary(NodeOp::AvgPool { kernel: 2 }, 2),
        Node::unary(NodeOp::Conv { weight: w1, bias: None, cfg: Conv2dCfg::same(1) }, 3),
        Node::unary(NodeOp::Relu, 4),
        Node::unary(NodeOp::AvgPool { kernel: 2 }, 5),
        // Linear flattens rank-4 inputs automatically.
        Node::unary(NodeOp::Linear { weight: w2, bias: Some(b2) }, 6),
        Node::unary(NodeOp::Relu, 7),
        Node::unary(NodeOp::Linear { weight: w3, bias: Some(b3) }, 8),
    ];
    let mut model = Model::new("lenet", nodes, store, vec![1, 28, 28])?;
    init::initialize_seeded(model.store_mut(), seed);
    Ok(model)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = build_lenet(3)?;
    println!("custom model: {} with {} weight layers", model.name(), model.weight_layers().len());
    for l in model.weight_layers() {
        println!("  layer {}: {} ({} weights)", l.layer, l.name, l.len);
    }

    // A grayscale 28x28 evaluation set.
    let data = {
        let cfg = SynthCifarConfig {
            channels: 1,
            size: 28,
            classes: 10,
            samples: 6,
            seed: 5,
            noise: 0.2,
        };
        cfg.generate()
    };
    let golden = GoldenReference::build(&model, &data)?;

    // Data-aware SFI, exactly as for the paper's networks.
    let space = FaultSpace::stuck_at(&model);
    let analysis = WeightBitAnalysis::from_weights(model.store().all_weights())?;
    let spec = SampleSpec { error_margin: 0.05, ..SampleSpec::paper_default() };
    let plan = plan_data_aware(&space, &analysis, &spec, &DataAwareConfig::paper_default())?;
    println!(
        "\ndata-aware plan: {} of {} faults ({:.2}%)",
        plan.total_sample(),
        plan.total_population(),
        plan.injected_percent()
    );

    let outcome = execute_plan_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        1,
        &CampaignConfig::default(),
        &Ieee754Corruption,
        Probe::disabled(),
        &mut |_| {},
    )?;
    println!("injected {} faults in {:.2?}\n", outcome.injections(), outcome.elapsed());
    for l in 0..space.layers() {
        if let Some(est) = outcome.layer_estimate(l, Confidence::C99) {
            println!(
                "layer {l}: {:5.2}% ± {:4.2}% critical",
                est.proportion * 100.0,
                est.error_margin * 100.0
            );
        }
    }
    Ok(())
}
