//! Differential harness pinning the sparse delta-propagation path.
//!
//! The delta engine's contract is *bitwise* equivalence: on any graph and
//! any single-element activation upset — including NaN payloads and ±Inf —
//! `forward_delta_site` must observe exactly the inference dense patched
//! re-execution observes, and a campaign classified with the engine on must
//! be byte-identical to the no-early-exit and golden-convergence paths at
//! any worker count. These properties are what let `delta` default on
//! without a fingerprint bump. Weight faults never take the delta engine;
//! the campaign-level tests pin that toggling it leaves them unchanged.

#[path = "common/fixtures.rs"]
mod fixtures;

use fixtures::{
    activation_space, assert_forward_equiv, assert_site_delta_exact, assert_site_forward_equiv,
    campaign_world, fingerprint, input_space, micro_resnet, random_accumulated_faults,
    random_faults, random_small_input, random_small_model, random_transient_faults, tiny_resnet,
    unique_tmp_dir,
};
use proptest::prelude::*;
use sfi::core::checkpoint::{CampaignRun, CheckpointConfig};
use sfi::faultsim::campaign::Ieee754Corruption;
use sfi::prelude::*;
use sfi_nn::{ParamKind, DELTA_SATURATION_DEFAULT};

/// ParamIds of every fault-injectable weight tensor in `model`.
fn weight_params(model: &Model) -> Vec<usize> {
    (0..model.store().len())
        .filter(|&p| matches!(model.store().get(p).unwrap().kind, ParamKind::Weight { .. }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `forward_delta_site` is bitwise-equal to the dense patched forward
    /// on random small conv/bn/relu/add/pool graphs under a random
    /// single-element upset at any node, the input included — with
    /// guaranteed NaN (quiet and signalling, random payloads) and ±Inf
    /// coverage on top of uniform bit flips — at the default, forced-dense
    /// (0.0) and forced-sparse (1.1) saturation thresholds. A random
    /// single-bit weight fault on the same graph pins the dense converging
    /// pass that weight faults run instead, with and without its
    /// single-unit probe.
    #[test]
    fn delta_is_bitwise_equal_on_random_graphs(
        seed in 0u64..1_000_000,
        node_pick in 0usize..64,
        param_pick in 0usize..8,
        elem_pick in 0usize..4096,
        bit in 0u32..32,
        force_special in 0u32..8,
        payload in 1u32..0x40_0000,
    ) {
        let model = random_small_model(seed);
        let input = random_small_input(seed, &model);
        let cache = model.forward_cached(&input).unwrap();

        let node = node_pick % cache.len();
        let element = elem_pick % cache.get(node).unwrap().len();
        let golden = cache.get(node).unwrap().as_slice()[element].to_bits();
        let faulty_bits = match force_special {
            0 => 0x7fc0_0000 | payload,
            1 => 0xff80_0000 | payload,
            2 => f32::INFINITY.to_bits(),
            3 => f32::NEG_INFINITY.to_bits(),
            _ => golden ^ (1u32 << bit),
        };
        for saturation in [DELTA_SATURATION_DEFAULT, 0.0, 1.1] {
            let ctx = format!(
                "seed={seed} node={node} element={element} bits={faulty_bits:#010x} \
                 sat={saturation}"
            );
            assert_site_delta_exact(&model, &cache, node, element, faulty_bits, saturation, &ctx);
        }

        let weights = weight_params(&model);
        let pid = weights[param_pick % weights.len()];
        let len = model.store().get(pid).unwrap().tensor.len();
        let idx = elem_pick % len;
        let mut faulty = model.clone();
        {
            let slot = &mut faulty.store_mut().get_mut(pid).unwrap().tensor.as_mut_slice()[idx];
            *slot = match force_special {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => f32::from_bits(slot.to_bits() ^ (1u32 << bit)),
            };
        }
        let first_dirty = model.node_of_param(pid).unwrap();
        let unit = model.param_output_unit(pid, idx);
        for (dirty_unit, tag) in [(unit, "probe"), (None, "dense-seed")] {
            let ctx = format!("seed={seed} pid={pid} idx={idx} {tag}");
            assert_forward_equiv(&faulty, first_dirty, &cache, dirty_unit, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign classifications and inference counts match pairwise across
    /// the no-early-exit, golden-convergence, and delta re-execution paths
    /// at workers ∈ {1, 4, 8}.
    #[test]
    fn campaign_classes_match_across_paths_and_workers(
        fault_seed in 0u64..1_000_000,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 12);

        let base =
            CampaignConfig { workers: 1, convergence: false, delta: false, ..Default::default() };
        let reference = run_campaign(
            &model,
            &data,
            &golden,
            &faults,
            &base,
            &Ieee754Corruption,
        )
        .unwrap();
        for workers in [1usize, 4, 8] {
            for (convergence, delta, label) in [
                (false, false, "no-early-exit"),
                (true, false, "early-exit"),
                (false, true, "delta"),
                (true, true, "delta+early-exit"),
            ] {
                let cfg = CampaignConfig { workers, convergence, delta, ..Default::default() };
                let res = run_campaign(
                    &model,
                    &data,
                    &golden,
                    &faults,
                    &cfg,
                    &Ieee754Corruption,
                )
                .unwrap();
                prop_assert_eq!(
                    &res.classes, &reference.classes,
                    "{} workers={}", label, workers
                );
                prop_assert_eq!(
                    res.inferences, reference.inferences,
                    "{} workers={}", label, workers
                );
            }
        }
    }

    /// Transient activation and input faults classify identically on the
    /// dense patched path, the early-exit-equivalent delta pass
    /// (saturation 0), and full sparse delta propagation — per injected
    /// site and for whole campaigns at any worker count, with and without
    /// convergence/delta enabled.
    #[test]
    fn transient_site_paths_agree(fault_seed in 0u64..1_000_000) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        for (name, space) in
            [("activation", activation_space(&model, &data)), ("input", input_space(&model, &data))]
        {
            let faults = random_transient_faults(&space, fault_seed, 8);
            for fault in &faults {
                let img = fault.site.image;
                assert_site_forward_equiv(
                    &model,
                    golden.cache(img),
                    golden.prediction(img),
                    fault,
                    &format!("{name} seed {fault_seed}"),
                );
            }
            let generic: Vec<CampaignFault> =
                faults.iter().map(|&f| CampaignFault::Activation(f)).collect();
            let base = CampaignConfig {
                workers: 1,
                convergence: false,
                delta: false,
                ..Default::default()
            };
            let reference = run_campaign(
                &model,
                &data,
                &golden,
                &generic,
                &base,
                &Ieee754Corruption,
            )
            .unwrap();
            for workers in [1usize, 4, 8] {
                for (convergence, delta) in [(true, false), (false, true), (true, true)] {
                    let cfg =
                        CampaignConfig { workers, convergence, delta, ..Default::default() };
                    let res = run_campaign(
                        &model,
                        &data,
                        &golden,
                        &generic,
                        &cfg,
                        &Ieee754Corruption,
                    )
                    .unwrap();
                    prop_assert_eq!(
                        &res.classes, &reference.classes,
                        "{} workers={} convergence={} delta={}", name, workers, convergence, delta
                    );
                }
            }
        }
    }

    /// Accumulated multi-fault instances (k simultaneous weight +
    /// activation faults) classify identically across worker counts and
    /// fast-path configurations.
    #[test]
    fn accumulated_instances_classify_identically_across_paths(
        fault_seed in 0u64..1_000_000,
        k in 2usize..5,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let space = FaultSpace::stuck_at(&model);
        let acts = activation_space(&model, &data);
        let instances = random_accumulated_faults(&space, &acts, fault_seed, k, 6);
        let generic: Vec<CampaignFault> =
            instances.into_iter().map(CampaignFault::Accumulated).collect();
        let base =
            CampaignConfig { workers: 1, convergence: false, delta: false, ..Default::default() };
        let reference = run_campaign(
            &model,
            &data,
            &golden,
            &generic,
            &base,
            &Ieee754Corruption,
        )
        .unwrap();
        for workers in [1usize, 4, 8] {
            for (convergence, delta) in [(true, false), (true, true)] {
                let cfg = CampaignConfig { workers, convergence, delta, ..Default::default() };
                let res = run_campaign(
                    &model,
                    &data,
                    &golden,
                    &generic,
                    &cfg,
                    &Ieee754Corruption,
                )
                .unwrap();
                prop_assert_eq!(
                    &res.classes, &reference.classes,
                    "k={} workers={} convergence={} delta={}", k, workers, convergence, delta
                );
            }
        }
    }

    /// Interrupting a checkpointed campaign mid-plan on one re-execution
    /// path and resuming on the other (delta → convergence and vice versa)
    /// merges to an outcome byte-identical to an uninterrupted dense run:
    /// `delta`, like `convergence`, is excluded from the plan fingerprint,
    /// so the journal must accept the switch.
    #[test]
    fn interrupted_campaign_resumes_across_delta_and_dense_paths(
        stop_frac in 0.1f64..0.9,
        delta_first in any::<bool>(),
    ) {
        let model = tiny_resnet(5, 8);
        let (data, golden) = campaign_world(&model, 8, 2);
        let space = FaultSpace::stuck_at(&model);
        let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
        let plan = plan_layer_wise(&space, &spec);
        let seed = 11u64;
        let dense_cfg = CampaignConfig { convergence: false, delta: false, ..Default::default() };
        let clean = execute_plan_traced_any(
            &model,
            &data,
            &golden,
            &plan,
            CampaignSpace::Weight(&space),
            seed,
            &dense_cfg,
            &Ieee754Corruption,
            Probe::disabled(),
            &mut |_| {},
        )
        .unwrap();
        let reference = fingerprint(&clean);

        let dir = unique_tmp_dir("delta-cross-path");
        let first_cfg = CampaignConfig {
            workers: 2,
            delta: delta_first,
            convergence: !delta_first,
            ..Default::default()
        };
        let stop_at = ((clean.injections() as f64 * stop_frac) as u64).max(1);
        let token = CancelToken::new();
        let first = execute_plan_checkpointed_traced_any(
            &model,
            &data,
            &golden,
            &plan,
            CampaignSpace::Weight(&space),
            seed,
            &first_cfg,
            &Ieee754Corruption,
            &CheckpointConfig::new(&dir),
            Some(&token),
            Probe::disabled(),
            &mut |p| { if p.plan_completed >= stop_at { token.cancel(); } },
        )
        .unwrap();
        let outcome = match first {
            // Cancellation is cooperative; a fast pool may finish first.
            CampaignRun::Complete { outcome, .. } => outcome,
            CampaignRun::Interrupted { stats } => {
                prop_assert!(stats.completed >= stop_at);
                let resume_cfg = CampaignConfig {
                    workers: 4,
                    delta: !delta_first,
                    convergence: delta_first,
                    ..Default::default()
                };
                let checkpoint =
                    CheckpointConfig { dir: dir.clone(), resume: true, checkpoint_every: 16 };
                let resumed = execute_plan_checkpointed_traced_any(
                    &model,
                    &data,
                    &golden,
                    &plan,
                    CampaignSpace::Weight(&space),
                    seed,
                    &resume_cfg,
                    &Ieee754Corruption,
                    &checkpoint,
                    None,
                    Probe::disabled(),
                    &mut |_| {},
                )
                .unwrap();
                match resumed {
                    CampaignRun::Complete { outcome, stats } => {
                        prop_assert!(
                            stats.resumed > 0,
                            "the journal must carry work across the path switch"
                        );
                        outcome
                    }
                    CampaignRun::Interrupted { .. } => {
                        prop_assert!(false, "resume did not complete");
                        unreachable!()
                    }
                }
            }
        };
        prop_assert_eq!(fingerprint(&outcome), reference);
        std::fs::remove_dir_all(&dir).ok();
    }
}
