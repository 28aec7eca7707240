//! Engine-dispatch coverage: every execution engine must actually fire, and
//! only on the tier it owns.
//!
//! A cost-model change once silently disabled an engine on a whole
//! workload — nothing asserted that an engine the configuration *enables*
//! is ever *selected*. These tests pin the dispatch outcome per
//! representative fault tier through the
//! `engine_dense`/`engine_delta`/`engine_batched` campaign counters:
//! weight faults run dense-converging or batched, transient faults run the
//! sparse delta engine, accumulated instances run dense.
//! A companion matrix test pins that every joint combination of the
//! `--no-batched`/`--no-delta`/`--no-early-exit` CLI flags parses, falls
//! back to a valid engine, and classifies identically.

#[path = "common/fixtures.rs"]
mod fixtures;

use fixtures::{
    activation_space, campaign_world, micro_resnet, random_accumulated_faults,
    random_transient_faults,
};
use sfi::cli::parse;
use sfi::faultsim::campaign::CampaignResult;
use sfi::prelude::*;
use sfi_faultsim::fault::{FaultModel, FaultSite};
use sfi_faultsim::multi::CampaignFault;
use sfi_nn::BATCHED_HEDGE_CONVERGENT;

fn cli_args(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// Bit-flip weight faults over the first weights of `layer` — never masked,
/// so every one of them must be charged to exactly one engine.
fn weight_faults(layer: usize, bit: u8, n: usize) -> Vec<Fault> {
    (0..n)
        .map(|w| Fault { site: FaultSite { layer, weight: w, bit }, model: FaultModel::BitFlip })
        .collect()
}

/// Every evaluated fault is charged to exactly one engine: the three
/// counters plus the masked and execution-failure counts sum to the
/// injection count.
fn assert_engine_accounting(res: &CampaignResult, ctx: &str) {
    assert_eq!(
        res.engine_dense
            + res.engine_delta
            + res.engine_batched
            + res.masked()
            + res.exec_failures(),
        res.injections,
        "{ctx}: engine counters must partition the injections"
    );
}

/// Representative fault tiers each select the engine that owns them at
/// least once under the default (everything-enabled) configuration:
/// shallow/deep weight faults take the batched eval-image engine, transient
/// activation faults take the sparse-delta engine, and accumulated k=2
/// instances take the dense early-exit engine.
#[test]
fn every_engine_fires_on_the_tier_it_owns() {
    let model = micro_resnet(3);
    // 8 eval images: the batched pass amortizes one suffix over all of
    // them, so the measured cost model selects it robustly for conv faults.
    let (data, golden) = campaign_world(&model, 16, 8);
    let golden = golden.with_lowering(&model).unwrap();
    assert!(golden.has_batched(), "with_lowering builds the batched golden state");
    let cfg = CampaignConfig::default();

    // Weight tier. Mantissa-bit faults rarely mismatch, so dispatch holds
    // the batched pass to the generous `BATCHED_HEDGE_CONVERGENT` bar; the
    // deep layers' measured batched-vs-dense suffix ratios sit far below
    // it, so the calibrated cost model must leave the batched engine
    // *reachable* — and because `batched_profitable` is a pure function of
    // the one-time calibration, faults on a scan-selected layer route
    // batched deterministically.
    let layers = model.weight_layers();
    let deep = layers.len() - 1;
    let batched_layers: Vec<usize> = (0..layers.len())
        .filter(|&l| {
            model
                .node_of_param(layers[l].param)
                .is_some_and(|n| golden.plan().batched_profitable(n, BATCHED_HEDGE_CONVERGENT))
        })
        .collect();
    assert!(
        !batched_layers.is_empty(),
        "the measured cost model disabled the batched engine on every layer \
         (the sparse_nodes:0 failure mode, batched edition)"
    );
    // Exponent-bit sweep: the mismatch-prone hedge makes dense-vs-batched
    // the measured choice.
    let mut faults: Vec<CampaignFault> = Vec::new();
    for layer in [0, deep / 2, deep] {
        faults.extend(weight_faults(layer, 30, 4).into_iter().map(CampaignFault::Weight));
    }
    // Mantissa-bit faults on every batched-profitable layer: each must
    // route through the batched eval-image engine.
    let mantissa: u64 = batched_layers.iter().map(|&l| weight_faults(l, 12, 2).len() as u64).sum();
    for &layer in &batched_layers {
        faults.extend(weight_faults(layer, 12, 2).into_iter().map(CampaignFault::Weight));
    }
    let weights = run_campaign(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption).unwrap();
    assert_engine_accounting(&weights, "weight tier");
    assert!(
        weights.engine_batched >= mantissa,
        "every mantissa-bit fault on a batched-profitable layer must take the \
         batched engine (want >= {mantissa}, got dense={} delta={} batched={})",
        weights.engine_dense,
        weights.engine_delta,
        weights.engine_batched
    );
    assert_eq!(weights.engine_delta, 0, "weight faults must never route through delta");

    // Transient activation tier: the one-element cone is delta's home
    // ground and routes there unconditionally.
    let acts = activation_space(&model, &data);
    let transient: Vec<CampaignFault> =
        random_transient_faults(&acts, 11, 8).into_iter().map(CampaignFault::Activation).collect();
    let transients =
        run_campaign(&model, &data, &golden, &transient, &cfg, &Ieee754Corruption).unwrap();
    assert_engine_accounting(&transients, "transient tier");
    assert!(
        transients.engine_delta > 0,
        "no transient fault took the delta engine (dense={} delta={} batched={})",
        transients.engine_dense,
        transients.engine_delta,
        transients.engine_batched
    );

    // Accumulated k=2 tier: multi-site instances always run the dense
    // per-image path.
    let space = FaultSpace::stuck_at(&model);
    let accumulated: Vec<CampaignFault> = random_accumulated_faults(&space, &acts, 7, 2, 4)
        .into_iter()
        .map(CampaignFault::Accumulated)
        .collect();
    let acc = run_campaign(&model, &data, &golden, &accumulated, &cfg, &Ieee754Corruption).unwrap();
    assert_engine_accounting(&acc, "accumulated tier");
    assert!(
        acc.engine_dense > 0,
        "no accumulated instance took the dense engine (dense={} delta={} batched={})",
        acc.engine_dense,
        acc.engine_delta,
        acc.engine_batched
    );
    assert_eq!(acc.engine_batched, 0, "accumulated instances never batch");
}

/// Weight faults never take the delta engine, even where the old wall-clock
/// dispatch floor routed them there: mantissa-bit faults on the first conv
/// of full-scale ResNet-20, whose dense suffix costs several milliseconds
/// per image. Turning delta off leaves classifications and inference
/// counts unchanged.
#[test]
fn full_scale_mantissa_weight_faults_never_take_delta() {
    let model = ResNetConfig::resnet20().build_seeded(42).unwrap();
    let data = SynthCifarConfig::new().with_samples(1).generate();
    let golden = GoldenReference::build(&model, &data).unwrap().with_lowering(&model).unwrap();
    let faults: Vec<Fault> = (0..23u8)
        .flat_map(|bit| {
            [bit as usize, 200 + bit as usize].map(|weight| Fault {
                site: FaultSite { layer: 0, weight, bit },
                model: FaultModel::BitFlip,
            })
        })
        .collect();
    let on = run_campaign(
        &model,
        &data,
        &golden,
        &faults,
        &CampaignConfig::default(),
        &Ieee754Corruption,
    )
    .unwrap();
    let off = CampaignConfig { delta: false, ..CampaignConfig::default() };
    let off = run_campaign(&model, &data, &golden, &faults, &off, &Ieee754Corruption).unwrap();
    assert_engine_accounting(&on, "delta on");
    assert_eq!(
        on.engine_delta, 0,
        "layer-0 mantissa faults took delta (dense={} delta={} batched={})",
        on.engine_dense, on.engine_delta, on.engine_batched
    );
    assert_eq!(on.classes, off.classes, "the delta flag changed weight-fault classes");
    assert_eq!(on.inferences, off.inferences, "the delta flag changed inference counts");
}

/// Every joint combination of `--no-batched`, `--no-delta` and
/// `--no-early-exit` parses through the real CLI, maps to a campaign
/// configuration that falls back to a valid engine, and produces
/// classifications identical to the all-engines-off reference.
#[test]
fn cli_engine_flag_matrix_composes() {
    let model = micro_resnet(5);
    let (data, golden) = campaign_world(&model, 16, 4);
    let golden = golden.with_lowering(&model).unwrap();
    let deep = model.weight_layers().len() - 1;
    let mut faults = weight_faults(0, 30, 3);
    faults.extend(weight_faults(deep, 12, 3));
    faults.extend(weight_faults(deep / 2, 22, 3));

    let reference = run_campaign(
        &model,
        &data,
        &golden,
        &faults,
        &CampaignConfig {
            convergence: false,
            delta: false,
            batched: false,
            ..CampaignConfig::default()
        },
        &Ieee754Corruption,
    )
    .unwrap();

    for no_batched in [false, true] {
        for no_delta in [false, true] {
            for no_early_exit in [false, true] {
                let mut line = String::from("run");
                if no_batched {
                    line.push_str(" --no-batched");
                }
                if no_delta {
                    line.push_str(" --no-delta");
                }
                if no_early_exit {
                    line.push_str(" --no-early-exit");
                }
                let opts = parse(&cli_args(&line))
                    .unwrap_or_else(|e| panic!("`sfi {line}` must parse: {e:?}"));
                assert_eq!(opts.batched, !no_batched, "`sfi {line}`");
                assert_eq!(opts.delta, !no_delta, "`sfi {line}`");
                assert_eq!(opts.early_exit, !no_early_exit, "`sfi {line}`");
                // The exact flag→config mapping the `run` subcommand uses.
                let cfg = CampaignConfig {
                    convergence: opts.early_exit,
                    delta: opts.delta,
                    batched: opts.batched,
                    ..CampaignConfig::default()
                };
                let res = run_campaign(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption)
                    .unwrap_or_else(|e| panic!("`sfi {line}` must fall back cleanly: {e:?}"));
                assert_eq!(res.classes, reference.classes, "`sfi {line}` changed classifications");
                assert_eq!(
                    res.inferences, reference.inferences,
                    "`sfi {line}` changed inference counts"
                );
                assert_engine_accounting(&res, &format!("`sfi {line}`"));
                if no_batched {
                    assert_eq!(res.engine_batched, 0, "`sfi {line}` still batched");
                }
                if no_delta {
                    assert_eq!(res.engine_delta, 0, "`sfi {line}` still ran delta");
                }
            }
        }
    }
}
