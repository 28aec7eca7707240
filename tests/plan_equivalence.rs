//! Differential harness pinning the compiled-plan execution path.
//!
//! The compiled plan re-expresses what the legacy forward passes derived
//! per call — topological step order, tensor lifetime, fusion, dispatch —
//! and adds the batched eval-image engine. Its contract is *bitwise*
//! equivalence: on any graph and any weight fault (NaN/Inf exponent flips
//! included) the batched suffix must reproduce every per-image inference
//! exactly, and a campaign classified through it must be byte-identical
//! to the per-image path at any worker count, for all three fault models.
//! These properties are what let `batched` default on without a
//! checkpoint-fingerprint bump.

#[path = "common/fixtures.rs"]
mod fixtures;

use fixtures::{
    activation_space, campaign_world, micro_resnet, random_accumulated_faults, random_faults,
    random_small_model, random_transient_faults,
};
use proptest::prelude::*;
use sfi::prelude::*;
use sfi_nn::{BatchedOutcome, Model, NodeOp};
use sfi_nn::{CompiledPlan, ForwardOptions, ForwardOutcome, ParamKind};
use sfi_tensor::ops::{self, Conv2dCfg};
use sfi_tensor::{ScratchArena, Tensor};

/// ParamIds of every fault-injectable weight tensor in `model`.
fn weight_params(model: &Model) -> Vec<usize> {
    (0..model.store().len())
        .filter(|&p| matches!(model.store().get(p).unwrap().kind, ParamKind::Weight { .. }))
        .collect()
}

/// Stacks `images` (each `[1, c, h, w]`) into one `[n, c, h, w]` batch.
fn stack(images: &[Tensor]) -> Tensor {
    let dims = images[0].shape().dims().to_vec();
    let mut stacked = Vec::new();
    for img in images {
        stacked.extend_from_slice(img.as_slice());
    }
    let shape = [images.len(), dims[1], dims[2], dims[3]];
    Tensor::from_vec(shape, stacked).unwrap()
}

/// Per-image deterministic inputs for `model` (batch 1 each).
fn per_image_inputs(model: &Model, n: usize, seed: u64) -> Vec<Tensor> {
    let dims = model.input_dims();
    (0..n)
        .map(|img| {
            Tensor::from_fn([1, dims[0], dims[1], dims[2]], |i| {
                ((i as u64 * 37 + img as u64 * 101 + seed * 13) % 997) as f32 * 0.002 - 1.0
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched suffix pass is bitwise-equal to the per-image dense
    /// re-execution on random small conv/bn/relu/add/pool graphs under
    /// random single-bit weight faults — with guaranteed NaN/±Inf coverage
    /// on top of uniform flips — with and without the single-unit probe,
    /// cached lowered panels, and convergence checking.
    #[test]
    fn batched_suffix_is_bitwise_equal_on_random_graphs(
        seed in 0u64..1_000_000,
        param_pick in 0usize..8,
        elem_pick in 0usize..4096,
        bit in 0u32..32,
        force_special in 0u32..8,
    ) {
        let model = random_small_model(seed);
        let images = per_image_inputs(&model, 2 + (seed % 2) as usize, seed);
        let batched_input = stack(&images);
        let bcache = model.forward_cached(&batched_input).unwrap();
        let caches: Vec<_> =
            images.iter().map(|img| model.forward_cached(img).unwrap()).collect();
        let plan = CompiledPlan::compile(&model, &bcache).unwrap();

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

        // The per-image reference: dense incremental re-execution, exactly
        // what the per-image campaign path computes.
        let dense: Vec<Tensor> =
            caches.iter().map(|c| faulty.forward_from(first_dirty, c).unwrap()).collect();

        // Batched golden im2col panels of the first dirty conv, as the
        // campaign executor would feed them from the golden reference.
        let node = &faulty.nodes()[first_dirty];
        let lowered = match &node.op {
            NodeOp::Conv { weight, cfg, .. } if plan.is_lowerable_conv(first_dirty) => {
                let input = bcache.get(node.inputs[0]).unwrap();
                let w = &faulty.store().get(*weight).unwrap().tensor;
                let _: &Conv2dCfg = cfg;
                Some(ops::im2col_lower_batched(input, w, *cfg, None).unwrap())
            }
            _ => None,
        };

        let mut arena = ScratchArena::new();
        for check_convergence in [false, true] {
            for (dirty_unit, tag) in [(unit, "probe"), (None, "dense-seed")] {
                for use_lowered in [lowered.is_some(), false] {
                    let ctx = format!(
                        "seed={seed} pid={pid} idx={idx} {tag} conv={check_convergence} \
                         lowered={use_lowered}"
                    );
                    let out = plan
                        .forward_batched_from(
                            &faulty,
                            first_dirty,
                            &bcache,
                            if use_lowered { lowered.as_ref() } else { None },
                            if check_convergence { dirty_unit } else { None },
                            check_convergence,
                            &mut arena,
                        )
                        .unwrap();
                    match out {
                        BatchedOutcome::Logits(logits) => {
                            let classes = logits.len() / images.len();
                            for (i, d) in dense.iter().enumerate() {
                                let row = &logits.as_slice()[i * classes..][..classes];
                                prop_assert_eq!(row.len(), d.len(), "{} image {}", &ctx, i);
                                for (a, b) in row.iter().zip(d.as_slice()) {
                                    prop_assert_eq!(
                                        a.to_bits(), b.to_bits(),
                                        "{} image {} diverges", &ctx, i
                                    );
                                }
                            }
                        }
                        BatchedOutcome::Converging { converged_at, logits, classes } => {
                            // Per image: a converged image is only sound if
                            // its dense inference is bit-golden; a survivor's
                            // logits row must bit-equal its dense inference.
                            prop_assert_eq!(converged_at.len(), images.len(), "{}", &ctx);
                            let survivors = converged_at.iter().filter(|c| c.is_none()).count();
                            prop_assert_eq!(logits.len(), survivors * classes, "{}", &ctx);
                            let mut cursor = 0usize;
                            for (i, d) in dense.iter().enumerate() {
                                match converged_at[i] {
                                    Some(at_node) => {
                                        let c = &caches[i];
                                        let golden = c.get(c.len() - 1).unwrap();
                                        for (a, b) in d.as_slice().iter().zip(golden.as_slice()) {
                                            prop_assert_eq!(
                                                a.to_bits(), b.to_bits(),
                                                "{} image {} spuriously converged at {}",
                                                &ctx, i, at_node
                                            );
                                        }
                                    }
                                    None => {
                                        let row = &logits[cursor * classes..][..classes];
                                        cursor += 1;
                                        prop_assert_eq!(row.len(), d.len(), "{} image {}", &ctx, i);
                                        for (a, b) in row.iter().zip(d.as_slice()) {
                                            prop_assert_eq!(
                                                a.to_bits(), b.to_bits(),
                                                "{} survivor image {} diverges", &ctx, i
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Routing the legacy converging forward through the compiled plan's
    /// global last-reader table (`ForwardOptions::plan`) changes nothing:
    /// outcome and bits match the per-call lifetime computation on random
    /// graphs under random weight faults.
    #[test]
    fn plan_routed_forward_matches_legacy_on_random_graphs(
        seed in 0u64..1_000_000,
        param_pick in 0usize..8,
        elem_pick in 0usize..4096,
        bit in 0u32..32,
    ) {
        let model = random_small_model(seed);
        let images = per_image_inputs(&model, 1, seed);
        let cache = model.forward_cached(&images[0]).unwrap();
        let plan = CompiledPlan::compile(&model, &cache).unwrap();

        let weights = weight_params(&model);
        let pid = weights[param_pick % weights.len()];
        let len = model.store().get(pid).unwrap().tensor.len();
        let idx = elem_pick % len;
        let mut faulty = model.clone();
        {
            let slot = &mut faulty.store_mut().get_mut(pid).unwrap().tensor.as_mut_slice()[idx];
            *slot = f32::from_bits(slot.to_bits() ^ (1u32 << bit));
        }
        let first_dirty = model.node_of_param(pid).unwrap();

        let mut legacy_opts = ForwardOptions::default();
        let legacy =
            faulty.forward_from_converging(first_dirty, &cache, &mut legacy_opts).unwrap();
        let mut plan_opts = ForwardOptions { plan: Some(&plan), ..Default::default() };
        let routed =
            faulty.forward_from_converging(first_dirty, &cache, &mut plan_opts).unwrap();
        match (&legacy, &routed) {
            (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => {
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "seed={} plan changed bits", seed);
                }
            }
            (a, b) => prop_assert_eq!(a, b, "seed={} plan changed the outcome", seed),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign classifications and inference counts are identical with the
    /// batched engine on and off, at workers ∈ {1, 4, 8}, across the
    /// convergence/delta configuration matrix — on a golden reference with
    /// the batched cache built (the only configuration that can take the
    /// batched branch).
    #[test]
    fn batched_campaign_is_invisible_across_workers(
        fault_seed in 0u64..1_000_000,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let golden = golden.with_lowering(&model).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let faults = random_faults(&space, fault_seed, 12);

        // The flag matrix below must demonstrably run on the register-tiled
        // microkernel layer, not on a naive-only dispatch: the batched
        // engine's interleaved panels (n = images * spatial) are exactly
        // the shapes the `micro` tier owns. Pin the dispatch decision for a
        // representative batched conv GEMM of this setup (c_out=4 x
        // k_len=36 x 2 images * 256 spatial) so a future threshold change
        // that silently drops the hot path back to naive fails here.
        prop_assert_eq!(ops::gemm_selected_kernel(4, 36, 2 * 256), "micro");

        let base = CampaignConfig {
            workers: 1,
            convergence: false,
            delta: false,
            batched: false,
            ..Default::default()
        };
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
            for (convergence, delta) in [(false, false), (true, false), (true, true)] {
                for batched in [false, true] {
                    let cfg = CampaignConfig {
                        workers,
                        convergence,
                        delta,
                        batched,
                        ..Default::default()
                    };
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
                        "workers={} convergence={} delta={} batched={}",
                        workers, convergence, delta, batched
                    );
                    prop_assert_eq!(
                        res.inferences, reference.inferences,
                        "workers={} convergence={} delta={} batched={}",
                        workers, convergence, delta, batched
                    );
                }
            }
        }
    }

    /// The `batched` flag is invisible on the transient and accumulated
    /// fault models too (their classification goes through the per-site
    /// paths, but the flag must not disturb them), at any worker count.
    #[test]
    fn batched_flag_is_invisible_on_transient_and_accumulated(
        fault_seed in 0u64..1_000_000,
    ) {
        let model = micro_resnet(3);
        let (data, golden) = campaign_world(&model, 16, 2);
        let golden = golden.with_lowering(&model).unwrap();
        let space = FaultSpace::stuck_at(&model);
        let acts = activation_space(&model, &data);

        let transient: Vec<CampaignFault> = random_transient_faults(&acts, fault_seed, 6)
            .into_iter()
            .map(CampaignFault::Activation)
            .collect();
        let accumulated: Vec<CampaignFault> =
            random_accumulated_faults(&space, &acts, fault_seed, 3, 4)
                .into_iter()
                .map(CampaignFault::Accumulated)
                .collect();
        for (name, generic) in [("transient", transient), ("accumulated", accumulated)] {
            let base = CampaignConfig { workers: 1, batched: false, ..Default::default() };
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
                let cfg = CampaignConfig { workers, batched: true, ..Default::default() };
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
                    "{} workers={}", name, workers
                );
                prop_assert_eq!(
                    res.inferences, reference.inferences,
                    "{} workers={}", name, workers
                );
            }
        }
    }
}
