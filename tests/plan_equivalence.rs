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
use sfi_nn::{BatchedOutcome, Model, SessionState};
use sfi_nn::{CompiledPlan, ForwardOptions, ForwardOutcome, ParamKind};
use sfi_tensor::ops;
use sfi_tensor::{ScratchArena, Tensor};

/// ParamIds of every fault-injectable weight tensor in `model`.
fn weight_params(model: &Model) -> Vec<usize> {
    (0..model.store().len())
        .filter(|&p| matches!(model.store().get(p).unwrap().kind, ParamKind::Weight { .. }))
        .collect()
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
        let caches: Vec<_> =
            images.iter().map(|img| model.forward_cached(img).unwrap()).collect();
        let plan = CompiledPlan::compile(&model, &caches[0]).unwrap();

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
        let dense: Vec<Tensor> = caches
            .iter()
            .map(|c| {
                let opts = &mut ForwardOptions::default();
                faulty.forward_from(Some(first_dirty), c, &[], opts).unwrap().into_logits(c)
            })
            .collect();

        // Batched golden im2col panel of the first dirty conv, gathered
        // from the per-image caches exactly as the campaign executor's
        // session builds it.
        let mut session = SessionState::new();
        session.ensure_panel(&faulty, &plan, &caches, first_dirty).unwrap();
        let lowered = session.arena_and_panel(first_dirty).1;

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
                            &caches,
                            if use_lowered { lowered } else { None },
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

    /// The converging `forward_from` observes exactly what a from-scratch
    /// `forward_cached` of the faulted model computes, on random graphs
    /// under random weight faults: bit-identical logits on divergence, and
    /// on convergence at node `k` a faulted activation at `k` and faulted
    /// logits that both equal the golden bits.
    #[test]
    fn converging_forward_matches_forward_cached_on_random_graphs(
        seed in 0u64..1_000_000,
        param_pick in 0usize..8,
        elem_pick in 0usize..4096,
        bit in 0u32..32,
    ) {
        let model = random_small_model(seed);
        let images = per_image_inputs(&model, 1, seed);
        let cache = model.forward_cached(&images[0]).unwrap();

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

        let oracle = faulty.forward_cached(&images[0]).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let opts = &mut ForwardOptions { converge: true, ..Default::default() };
        match faulty.forward_from(Some(first_dirty), &cache, &[], opts).unwrap() {
            ForwardOutcome::Logits(l) => {
                let want = oracle.get(oracle.len() - 1).unwrap();
                prop_assert_eq!(bits(&l), bits(want), "seed={} logits diverge", seed);
            }
            ForwardOutcome::Converged { at_node } => {
                for id in [at_node, oracle.len() - 1] {
                    let (got, want) = (oracle.get(id).unwrap(), cache.get(id).unwrap());
                    prop_assert_eq!(bits(got), bits(want), "seed={} node {} not golden", seed, id);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign classifications and inference counts are identical with the
    /// batched engine on and off, at workers ∈ {1, 4, 8}, across the
    /// convergence/delta configuration matrix — on a golden reference built
    /// `with_lowering` (the only configuration that can take the batched
    /// branch).
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

/// Whether two per-image outcomes are identical: the same convergence
/// node, or bit-identical logits.
fn same_outcome(a: &ForwardOutcome, b: &ForwardOutcome) -> bool {
    match (a, b) {
        (ForwardOutcome::Logits(x), ForwardOutcome::Logits(y)) => x.bits_equal(y),
        (x, y) => x == y,
    }
}

/// Whether two batched outcomes are identical: per-image convergence
/// nodes and bit-identical surviving logits.
fn same_batched(a: &BatchedOutcome, b: &BatchedOutcome) -> bool {
    let bits_eq = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    match (a, b) {
        (BatchedOutcome::Logits(x), BatchedOutcome::Logits(y)) => x.bits_equal(y),
        (
            BatchedOutcome::Converging { converged_at: ca, logits: la, classes: na },
            BatchedOutcome::Converging { converged_at: cb, logits: lb, classes: nb },
        ) => ca == cb && na == nb && bits_eq(la, lb),
        _ => false,
    }
}

/// The one-channel depthwise probe on the paper's second network. Weight
/// faults in every depthwise layer of the micro MobileNetV2 — mantissa,
/// exponent and sign bits, on a centre tap and on a corner tap that padded
/// border pixels skip — give per-image outcomes identical with the probe
/// on and off, through the dense per-image pass and the batched engine,
/// and campaigns classify them identically (classes and inference counts)
/// on the dense and batched engines with convergence, and so the probe,
/// on and off. A change in a channel the probe is not told about shows the
/// probe arm is the one taken: only the probe can declare the node golden
/// without evaluating that channel.
#[test]
fn depthwise_probe_is_invisible_on_mobilenet() {
    let model = MobileNetV2Config::cifar_micro().build_seeded(5).unwrap();
    let (data, golden) = campaign_world(&model, 16, 3);
    let golden = golden.with_lowering(&model).unwrap();
    let caches: Vec<_> = (0..golden.len()).map(|i| golden.cache(i).clone()).collect();
    let plan = CompiledPlan::compile(&model, &caches[0]).unwrap();
    let depthwise: Vec<(usize, usize)> = model
        .weight_layers()
        .iter()
        .filter_map(|wl| {
            let node = model.node_of_param(wl.param)?;
            let sfi_nn::NodeOp::Conv { cfg, .. } = &model.nodes()[node].op else { return None };
            let channels = model.store().get(wl.param).unwrap().tensor.shape().n();
            (cfg.groups > 1 && cfg.groups == channels).then_some((wl.layer, channels))
        })
        .collect();
    assert_eq!(depthwise.len(), 17, "MobileNetV2 has one depthwise conv per block");

    let mut arena = ScratchArena::new();
    let mut faults = Vec::new();
    let mut probe_converged = 0usize;
    for &(layer, channels) in &depthwise {
        let param = model.weight_layers()[layer].param;
        let first_dirty = model.node_of_param(param).unwrap();
        for channel in [0, channels - 1] {
            for tap in [0usize, 4] {
                for bit in [2u8, 22, 23, 30, 31] {
                    let weight = channel * 9 + tap;
                    let fault = Fault {
                        site: FaultSite { layer, weight, bit },
                        model: FaultModel::BitFlip,
                    };
                    faults.push(fault);
                    let mut faulty = model.clone();
                    let slot =
                        &mut faulty.store_mut().get_mut(param).unwrap().tensor.as_mut_slice()
                            [weight];
                    *slot = fault.apply_to(*slot);
                    let unit = model.param_output_unit(param, weight);
                    assert_eq!(unit, Some(channel));
                    let ctx = format!("layer {layer} channel {channel} tap {tap} bit {bit}");
                    for cache in &caches {
                        let mut run = |dirty_unit| {
                            let opts = &mut ForwardOptions {
                                arena: Some(&mut arena),
                                dirty_unit,
                                converge: true,
                                ..Default::default()
                            };
                            faulty.forward_from(Some(first_dirty), cache, &[], opts).unwrap()
                        };
                        let (probed, full) = (run(unit), run(None));
                        assert!(same_outcome(&probed, &full), "{ctx}: dense outcome");
                        if probed == (ForwardOutcome::Converged { at_node: first_dirty }) {
                            probe_converged += 1;
                        }
                    }
                    let mut batched = |dirty_unit| {
                        plan.forward_batched_from(
                            &faulty,
                            first_dirty,
                            &caches,
                            None,
                            dirty_unit,
                            true,
                            &mut arena,
                        )
                        .unwrap()
                    };
                    let (probed, full) = (batched(unit), batched(None));
                    assert!(same_batched(&probed, &full), "{ctx}: batched outcome");
                }
            }
        }
    }
    assert!(probe_converged > 0, "no depthwise fault converged at its own node");

    // The probe arm is taken: channel 1 changes, the probe is told channel
    // 0 — it declares the node golden at once; a full evaluation does not.
    let (layer, _) = depthwise[0];
    let param = model.weight_layers()[layer].param;
    let first_dirty = model.node_of_param(param).unwrap();
    let mut changed = model.clone();
    changed.store_mut().get_mut(param).unwrap().tensor.as_mut_slice()[9 + 4] += 1.0;
    let converged_at_node = ForwardOutcome::Converged { at_node: first_dirty };
    for cache in &caches {
        let run = |dirty_unit| {
            let opts = &mut ForwardOptions { dirty_unit, converge: true, ..Default::default() };
            changed.forward_from(Some(first_dirty), cache, &[], opts).unwrap()
        };
        assert_eq!(run(Some(0)), converged_at_node, "dense probe");
        assert_ne!(run(None), converged_at_node, "dense full evaluation");
    }
    let mut converged_at = |dirty_unit| match plan
        .forward_batched_from(&changed, first_dirty, &caches, None, dirty_unit, true, &mut arena)
        .unwrap()
    {
        BatchedOutcome::Converging { converged_at, .. } => converged_at,
        BatchedOutcome::Logits(_) => unreachable!("a converging pass"),
    };
    assert_eq!(converged_at(Some(0)), vec![Some(first_dirty); caches.len()], "batched probe");
    assert_ne!(converged_at(None), vec![Some(first_dirty); caches.len()], "batched full");

    // Campaign level: dense and batched engines, convergence (and so the
    // probe) on and off, classify identically.
    let run = |convergence, batched| {
        let cfg = CampaignConfig { workers: 1, convergence, batched, ..Default::default() };
        run_campaign(&model, &data, &golden, &faults, &cfg, &Ieee754Corruption).unwrap()
    };
    let reference = run(false, false);
    for (convergence, batched) in [(true, false), (true, true), (false, true)] {
        let res = run(convergence, batched);
        assert_eq!(res.classes, reference.classes, "convergence={convergence} batched={batched}");
        assert_eq!(
            res.inferences, reference.inferences,
            "convergence={convergence} batched={batched}"
        );
    }
}
