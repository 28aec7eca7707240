//! Compiled execution plans: the explicit, analyzable form of a forward
//! pass.
//!
//! The per-image dense pass ([`Model::forward_from`]) derives scheduling
//! facts on every call — topological order is implicit in node ids, and
//! tensor lifetime (who reads an activation last) is computed per pass.
//! [`CompiledPlan`] hoists what the batched engine needs to compile time,
//! once per `(model, eval set)`:
//!
//! - **last readers and flush lists** — per node, who reads it last and
//!   which activations die after each step, driving per-image live-dirty
//!   tracking and arena recycling at the earliest sound point;
//! - **measured engine costs** ([`CompiledPlan::calibrate`]) — per-node
//!   dense and batched suffix timings that turn the batched-vs-per-image
//!   choice into a per-plan decision
//!   ([`CompiledPlan::batched_profitable`]) instead of a runtime floor;
//! - **conv+bn(+relu) fusion groups** — batch-norm folds to a per-channel
//!   `mul`+`add` whose coefficients come from the *same*
//!   [`bn_channel_scale_shift`](sfi_tensor::ops::bn_channel_scale_shift)
//!   helper the unfused kernel uses, so the fused epilogue is bit-identical
//!   by construction. BN parameters are not fault-injectable (only weights
//!   are), so folding at compile time is always sound;
//! - the **batched eval-image engine**
//!   ([`CompiledPlan::forward_batched_from`]) — all E eval images stacked
//!   into one im2col panel so each suffix node costs one GEMM per fault
//!   instead of E, with golden-convergence checks and single-unit probing
//!   expressed as plan transforms (a dirty suffix start, an early-exit
//!   rewrite) rather than forward-pass flags.
//!
//! # Bit-identity of the batched pass
//!
//! Every operator in the graph treats the batch dimension as fully
//! independent: image `i`'s output elements depend only on image `i`'s
//! inputs, and each output element accumulates its `k` products in the same
//! increasing-`ki` order on the per-image and batched paths (the batched
//! im2col panel concatenates images along the *column* axis, which never
//! reorders any single element's accumulation chain). The batched suffix is
//! therefore bit-identical, image by image, to E per-image suffixes — the
//! invariant the differential proptests in `tests/plan_equivalence.rs` pin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sfi_tensor::ops::{self, BatchNormParams, BatchedLowered, ConvEpilogue, FusedActivation};
use sfi_tensor::{ScratchArena, Shape, Tensor};

use crate::model::NodeValues;
use crate::{ActivationCache, ForwardOptions, Model, NnError, NodeId, NodeOp, ParamId};

/// One conv+bn(+relu) fusion group: the conv head, the folded batch-norm
/// coefficients, and the optional activation, emitted as a single fused
/// kernel by the batched engine.
#[derive(Debug, Clone)]
struct FusedGroup {
    /// The conv node heading the group.
    conv: NodeId,
    /// The batch-norm node folded into the epilogue.
    bn: NodeId,
    /// The activation node closing the group, when present.
    act: Option<NodeId>,
    /// Epilogue activation (`None` when the group is conv+bn only).
    activation: FusedActivation,
    /// Folded per-channel scale, from `bn_channel_scale_shift`.
    scale: Vec<f32>,
    /// Folded per-channel shift, from `bn_channel_scale_shift`.
    shift: Vec<f32>,
}

impl FusedGroup {
    /// The node whose activation the fused kernel produces.
    fn output(&self) -> NodeId {
        self.act.unwrap_or(self.bn)
    }
}

/// Batched-engine hedge for faults that are *likely to mismatch* (sign and
/// exponent bit flips): a critical fault under `AnyMismatch` stops the
/// per-image loop after one mismatching image, while the batched pass
/// computes every surviving row to the output — so the batched suffix must
/// beat half the per-image bill before a calibrated plan selects it. The
/// converging pass recovers convergence drop-outs on both sides; the hedge
/// prices only the per-image loop's critical-fault breaks.
pub const BATCHED_HEDGE_MISMATCH: f64 = 0.5;

/// Batched-engine hedge for faults that *rarely mismatch* (mantissa bit
/// flips, whose perturbation usually converges back to golden within a few
/// nodes): the per-image loop almost never early-exits on these, so it pays
/// close to the full `images * dense_suffix` bill and the batched pass only
/// needs a small safety margin. Measured batched-vs-dense suffix ratios sit
/// at 0.67-0.90 on the reduced scales and lower at full CIFAR scale, so
/// 0.95 routes mantissa strata batched nearly everywhere the panel GEMM
/// measurably wins.
pub const BATCHED_HEDGE_CONVERGENT: f64 = 0.95;

/// Repetitions per step when measuring calibration timings (min-of, after
/// one warmup) — the same discipline the benches use.
const CALIBRATION_REPS: usize = 3;

/// A compiled execution plan for one [`Model`]: explicit topological step
/// order, tensor lifetime, fusion groups, and (once calibrated) measured
/// per-node engine costs. Built once per `(model, eval set)` (shapes come
/// from a golden activation cache) and shared read-only across campaign
/// workers.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    n_nodes: usize,
    /// `last_reader[i]` — the last node that reads node `i`'s activation
    /// (`i` itself when nothing does).
    last_reader: Vec<NodeId>,
    /// `flush[id]` — nodes whose activation dies once step `id` has run.
    flush: Vec<Vec<NodeId>>,
    /// Fusion group index a conv node heads, if any.
    head: Vec<Option<usize>>,
    groups: Vec<FusedGroup>,
    /// Conv nodes whose golden input lowers to im2col panels (depthwise
    /// convs dispatch to a direct kernel and never lower).
    lowerable: Vec<bool>,
    /// Measured per-node engine costs, when [`CompiledPlan::calibrate`] ran.
    calibration: Option<Calibration>,
}

/// Measured per-node engine costs attached to a plan by
/// [`CompiledPlan::calibrate`]: wall-clock suffix costs of the dense
/// per-image path and the batched eval-image path against the campaign's
/// own golden caches. When present, the engine-dispatch predicate
/// [`CompiledPlan::batched_profitable`] uses these instead of the
/// hand-tuned flop constant, so each engine owns the tiers it measurably
/// wins on *this* model at *this* scale. Dispatch is result-invariant
/// (every engine produces byte-identical classifications and inference
/// counts), so timing noise in the measurement can only shift performance
/// and telemetry, never results.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    /// `dense_suffix_s[id]` — measured seconds to re-execute nodes `id..`
    /// densely for **one** image (min-of-reps per step, summed).
    dense_suffix_s: Vec<f64>,
    /// `batched_suffix_s[id]` — measured seconds to re-execute nodes `id..`
    /// batched over **all** images, including per-step im2col panel builds
    /// (the lazy-panel cost a real fault pays at non-seed nodes).
    batched_suffix_s: Vec<f64>,
    /// `panel_s[id]` — measured seconds to build node `id`'s batched
    /// im2col panel from its golden input (zero for non-lowerable nodes).
    /// The executor shares one panel across every same-stratum fault on a
    /// worker, so the *marginal* batched cost of a fault excludes it.
    panel_s: Vec<f64>,
    /// Batch size the batched timings were taken at.
    images: usize,
}

impl Calibration {
    /// Measured seconds of the dense per-image suffix from `id` (one image).
    pub fn dense_suffix_secs(&self, id: NodeId) -> f64 {
        self.dense_suffix_s.get(id).copied().unwrap_or(0.0)
    }

    /// Measured seconds of the batched suffix from `id` (all images).
    pub fn batched_suffix_secs(&self, id: NodeId) -> f64 {
        self.batched_suffix_s.get(id).copied().unwrap_or(0.0)
    }

    /// Measured seconds to build node `id`'s batched golden-input panel
    /// (zero when the node does not lower).
    pub fn panel_secs(&self, id: NodeId) -> f64 {
        self.panel_s.get(id).copied().unwrap_or(0.0)
    }

    /// Batch size the batched timings were measured at.
    pub fn images(&self) -> usize {
        self.images
    }
}

/// Result of a single-unit probe of the first dirty node on the batched
/// path (mirrors the per-image probe of a converging [`Model::forward_from`]).
enum BatchedProbe {
    /// No single-unit kernel for this node/op; fall back to full eval.
    Unsupported,
    /// Per-image probe verdicts: `clean[i]` — image `i`'s probed unit
    /// recomputed to golden bits (that image is provably golden from here
    /// on). `dirty` is the node's materialized batched activation
    /// restricted to the non-clean images (rows in ascending image order,
    /// golden clone with the probed unit overwritten per image), `None`
    /// when every image probed clean.
    Probed { clean: Vec<bool>, dirty: Option<Tensor> },
}

/// Outcome of a batched suffix execution
/// ([`CompiledPlan::forward_batched_from`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchedOutcome {
    /// Per-image converging outcome (`check_convergence` was set): each
    /// image either went bitwise-golden at `converged_at[i]` (its
    /// prediction provably equals the golden one, exactly as the per-image
    /// loop would conclude) or survived to the output — `logits` holds the
    /// survivors' rows in **ascending image order**, bit-identical to
    /// their per-image forward passes.
    Converging {
        /// Per image: the step its rows went golden with no live dirty
        /// values, `None` when it reached the output.
        converged_at: Vec<Option<NodeId>>,
        /// `[survivors, classes]` logits rows, ascending image order.
        logits: Vec<f32>,
        /// Row width of `logits`.
        classes: usize,
    },
    /// Batched logits, `[images, classes]`; per-image rows are
    /// bit-identical to the per-image forward passes.
    Logits(Tensor),
}

impl CompiledPlan {
    /// Compiles `model` against the activation shapes recorded in `cache`
    /// (any golden cache of the model — shapes, not values, are read; the
    /// batch dimension of the cache does not matter).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when `cache` does not cover the
    /// model's nodes.
    pub fn compile(model: &Model, cache: &ActivationCache) -> Result<Self, NnError> {
        let nodes = model.nodes();
        let n = nodes.len();
        if cache.len() != n {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "plan compile: cache holds {} activations, model has {n} nodes",
                    cache.len()
                ),
            });
        }
        let mut last_reader: Vec<NodeId> = (0..n).collect();
        let mut readers: Vec<u32> = vec![0; n];
        for (id, node) in nodes.iter().enumerate().skip(1) {
            for &inp in &node.inputs {
                last_reader[inp] = id;
                readers[inp] += 1;
            }
        }
        let mut flush: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for i in 1..n.saturating_sub(1) {
            flush[last_reader[i]].push(i);
        }
        let param = |p: ParamId| &model.store().get(p).expect("validated at construction").tensor;
        let mut lowerable = vec![false; n];
        for (id, node) in nodes.iter().enumerate().skip(1) {
            if let NodeOp::Conv { weight, cfg, .. } = &node.op {
                let input = cache.get(node.inputs[0]).expect("cache covers all nodes");
                lowerable[id] = ops::conv2d_uses_lowering(input, param(*weight), *cfg);
            }
        }

        // Fusion grouping: conv -> bn (-> relu/relu6) chains whose
        // intermediates have exactly one reader, in consecutive id order
        // (how every builder emits them). Single-reader is what makes it
        // sound to never materialize the intermediate activations.
        let mut head = vec![None; n];
        let mut groups = Vec::new();
        for id in 1..n {
            if !lowerable[id] {
                continue;
            }
            if !matches!(nodes[id].op, NodeOp::Conv { .. }) {
                continue;
            }
            let Some(bn_node) = nodes.get(id + 1) else { continue };
            let NodeOp::BatchNorm { gamma, beta, mean, var, eps } = &bn_node.op else { continue };
            if bn_node.inputs != [id] || readers[id] != 1 {
                continue;
            }
            let bn = id + 1;
            let channels = cache.get(bn).expect("cache covers all nodes").shape().dims()[1];
            let params = BatchNormParams {
                gamma: param(*gamma),
                beta: param(*beta),
                mean: param(*mean),
                var: param(*var),
                eps: *eps,
            };
            let mut scale = Vec::with_capacity(channels);
            let mut shift = Vec::with_capacity(channels);
            for c in 0..channels {
                let (s, t) = ops::bn_channel_scale_shift(&params, c);
                scale.push(s);
                shift.push(t);
            }
            let act = nodes.get(bn + 1).and_then(|cand| {
                if cand.inputs != [bn] || readers[bn] != 1 {
                    return None;
                }
                match cand.op {
                    NodeOp::Relu => Some((bn + 1, FusedActivation::Relu)),
                    NodeOp::Relu6 => Some((bn + 1, FusedActivation::Relu6)),
                    _ => None,
                }
            });
            let (act_node, activation) = match act {
                Some((a, f)) => (Some(a), f),
                None => (None, FusedActivation::None),
            };
            let gi = groups.len();
            groups.push(FusedGroup { conv: id, bn, act: act_node, activation, scale, shift });
            head[id] = Some(gi);
        }
        Ok(Self { n_nodes: n, last_reader, flush, head, groups, lowerable, calibration: None })
    }

    /// Measures per-node dense and batched execution costs against the
    /// campaign's own per-image golden caches (one per eval image) and
    /// attaches them to the plan, switching
    /// [`batched_profitable`](Self::batched_profitable) from the static flop
    /// threshold to measured wall-clock costs. The dense steps run on
    /// `caches[0]`; the batched steps run over all images, with each step's
    /// golden input rows gathered from the caches *before* its timer
    /// starts, so a measured step cost is the step alone. Every step takes
    /// the min of `CALIBRATION_REPS` repetitions after one warmup; fused
    /// groups are timed as the one fused kernel the batched engine actually
    /// runs, attributed to the head conv.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when `caches` is empty or a cache
    /// does not cover the model, or the first operator failure.
    pub fn calibrate(&mut self, model: &Model, caches: &[ActivationCache]) -> Result<(), NnError> {
        let n = self.n_nodes;
        if caches.is_empty() || model.nodes().len() != n || caches.iter().any(|c| c.len() != n) {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "calibrate: plan covers {n} nodes, model has {}, {} caches must each cover it",
                    model.nodes().len(),
                    caches.len()
                ),
            });
        }
        let images = caches.len();
        let mut arena = ScratchArena::new();
        let empty: Vec<Tensor> = Vec::new();
        let mut dense_step = vec![0f64; n];
        for (id, step) in dense_step.iter_mut().enumerate().skip(1) {
            let mut best = f64::INFINITY;
            for rep in 0..=CALIBRATION_REPS {
                let vals = NodeValues {
                    prefix: caches[0].activations(),
                    over: &[],
                    suffix_base: n,
                    suffix: &empty,
                };
                let mut opts =
                    ForwardOptions { arena: Some(&mut arena), ..ForwardOptions::default() };
                let t0 = Instant::now();
                let out = model.eval_node_with(id, &vals, &mut opts)?;
                let dt = t0.elapsed().as_secs_f64();
                arena.recycle(out.into_vec());
                if rep > 0 {
                    best = best.min(dt);
                }
            }
            *step = best;
        }
        let mut batched_step = vec![0f64; n];
        let rows: Vec<usize> = (0..images).collect();
        let mut id = 1;
        while id < n {
            let group = self.head[id].and_then(|gi| {
                let g = &self.groups[gi];
                (g.output() < n).then_some(g)
            });
            let out_node = group.map_or(id, FusedGroup::output);
            // The step's golden inputs, gathered untimed into a suffix that
            // starts at the earliest of them (unread slots hold
            // placeholders), so the step reads every operand as a fresh
            // suffix tensor.
            let inputs = &model.nodes()[id].inputs;
            let base = inputs.iter().copied().min().unwrap_or(id);
            let mut fresh: Vec<Tensor> = (base..id).map(|_| Tensor::zeros([1])).collect();
            for &inp in inputs {
                fresh[inp - base] = gather_rows(caches, inp, &rows, &mut arena);
            }
            let mut best = f64::INFINITY;
            for rep in 0..=CALIBRATION_REPS {
                let t0 = Instant::now();
                let out =
                    match group {
                        Some(g) => self
                            .eval_fused(model, g, base, caches, &fresh, None, &rows, &mut arena)?,
                        None => self
                            .eval_step(model, id, base, caches, &fresh, None, &rows, &mut arena)?,
                    };
                let dt = t0.elapsed().as_secs_f64();
                arena.recycle(out.into_vec());
                if rep > 0 {
                    best = best.min(dt);
                }
            }
            for t in fresh {
                arena.recycle(t.into_vec());
            }
            batched_step[id] = best;
            id = out_node + 1;
        }
        // Per-node panel-build cost: the executor's session shares one
        // first-dirty panel across every same-stratum fault on a worker,
        // so dispatch prices the batched suffix *net* of this build.
        let mut panel_s = vec![0f64; n];
        for (id, slot) in panel_s.iter_mut().enumerate().skip(1) {
            if !self.is_lowerable_conv(id) {
                continue;
            }
            let NodeOp::Conv { weight, cfg, .. } = &model.nodes()[id].op else { continue };
            let w = &model.store().get(*weight).expect("validated at construction").tensor;
            let input = gather_rows(caches, model.nodes()[id].inputs[0], &rows, &mut arena);
            let mut best = f64::INFINITY;
            for rep in 0..=CALIBRATION_REPS {
                let t0 = Instant::now();
                let built = ops::im2col_lower_batched(&input, w, *cfg, Some(&mut arena))
                    .map_err(|source| NnError::Op { node: id, source })?;
                let dt = t0.elapsed().as_secs_f64();
                arena.recycle(built.into_cols());
                if rep > 0 {
                    best = best.min(dt);
                }
            }
            arena.recycle(input.into_vec());
            *slot = best;
        }
        let mut dense_suffix_s = vec![0f64; n + 1];
        let mut batched_suffix_s = vec![0f64; n + 1];
        for id in (0..n).rev() {
            dense_suffix_s[id] = dense_suffix_s[id + 1] + dense_step[id];
            batched_suffix_s[id] = batched_suffix_s[id + 1] + batched_step[id];
        }
        dense_suffix_s.pop();
        batched_suffix_s.pop();
        self.calibration = Some(Calibration { dense_suffix_s, batched_suffix_s, panel_s, images });
        Ok(())
    }

    /// The measured calibration attached by [`calibrate`](Self::calibrate),
    /// when one ran.
    pub fn calibration(&self) -> Option<&Calibration> {
        self.calibration.as_ref()
    }

    /// Number of nodes the plan covers.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.n_nodes
    }

    /// Whether node `id` is a conv whose input lowers to im2col panels.
    pub fn is_lowerable_conv(&self, id: NodeId) -> bool {
        self.lowerable.get(id).copied().unwrap_or(false)
    }

    /// Number of conv+bn(+relu) fusion groups in the plan.
    pub fn fused_groups(&self) -> usize {
        self.groups.len()
    }

    /// The compile-time batched-vs-per-image decision for a fault whose
    /// first dirty node is `first_dirty`. On a calibrated plan the batched
    /// engine is selected when one measured batched suffix costs less than
    /// the dense per-image suffixes the per-image loop is expected to pay
    /// (`hedge * images`). The caller picks the hedge by how likely the
    /// fault is to mismatch: [`BATCHED_HEDGE_MISMATCH`] for sign/exponent
    /// flips (the per-image loop early-exits after one critical mismatch),
    /// [`BATCHED_HEDGE_CONVERGENT`] for mantissa flips (the loop pays
    /// nearly the full per-image bill). Because both sides are measured —
    /// including the batched pass's own panel-build and scatter overhead —
    /// a last-node fault whose suffix is one cheap classifier GEMM is
    /// selected only if the batched row really beats the per-image rows.
    /// An uncalibrated plan never selects the batched engine (the executor
    /// batches only on a golden reference built `with_lowering`, which
    /// always calibrates). Classifications and inference counts are
    /// identical on both sides of the decision.
    pub fn batched_profitable(&self, first_dirty: NodeId, hedge: f64) -> bool {
        let Some(cal) = &self.calibration else { return false };
        if first_dirty >= self.n_nodes {
            return false;
        }
        // Marginal cost: the session shares the first-dirty panel across a
        // stratum, so all but one fault skip its build.
        let marginal =
            (cal.batched_suffix_secs(first_dirty) - cal.panel_secs(first_dirty)).max(0.0);
        marginal < hedge * cal.images as f64 * cal.dense_suffix_secs(first_dirty)
    }

    /// Runs the batched suffix from `first_dirty` over all evaluation
    /// images at once: one fused GEMM per conv step for the whole batch
    /// instead of one per image. `caches` holds one per-image golden cache
    /// per eval image (each built by [`Model::forward_cached`] on a
    /// one-image input); every golden prefix operand a step reads is
    /// gathered from them into the surviving images' rows, so no stacked
    /// golden cache exists. `lowered` is the batched im2col panel of the
    /// first dirty conv's golden input (see [`SessionState::ensure_panel`]),
    /// and `dirty_unit` the one output unit the weight fault can reach
    /// (arming the batched single-unit probe).
    ///
    /// With `check_convergence` this is a **converging** pass: every step
    /// compares each surviving image's rows against its own golden cache, and
    /// an image whose rows went bitwise-golden with no live dirty values is
    /// dropped out of the panel — all live suffix tensors are compacted to
    /// the surviving rows (`rows` keeps the row→image map), so later steps
    /// shrink as images converge, recovering per image exactly the early
    /// exit the per-image loop takes. Each image's convergence verdict and
    /// surviving logits row are bit-identical to its own per-image pass
    /// (see the module docs and DESIGN.md §5h for the argument); only the
    /// *step* at which convergence is detected may differ by up to one
    /// fusion group (the batched pass checks at group outputs), which
    /// affects the `nodes_skipped` telemetry and nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when `caches` is empty or the
    /// plan or a cache does not match the model, or the first operator
    /// failure.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    pub fn forward_batched_from(
        &self,
        model: &Model,
        first_dirty: NodeId,
        caches: &[ActivationCache],
        lowered: Option<&BatchedLowered>,
        dirty_unit: Option<usize>,
        check_convergence: bool,
        arena: &mut ScratchArena,
    ) -> Result<BatchedOutcome, NnError> {
        let n = self.n_nodes;
        if caches.is_empty() || model.nodes().len() != n || caches.iter().any(|c| c.len() != n) {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "batched forward: plan covers {n} nodes, model has {}, {} caches must each \
                     cover it",
                    model.nodes().len(),
                    caches.len()
                ),
            });
        }
        let batch = caches.len();
        // Per-image converging bookkeeping, indexed by ORIGINAL image id:
        // `rows[r]` maps the panel's surviving row `r` back to its image
        // (always ascending), `expiring[step * batch + img]` counts image
        // `img`'s dirty tensors whose last reader is `step`.
        let mut converged_at: Vec<Option<NodeId>> = vec![None; batch];
        let mut rows: Vec<usize> = (0..batch).collect();
        let first_dirty = first_dirty.max(1);
        if first_dirty >= n {
            return Ok(BatchedOutcome::Logits(gather_rows(caches, n - 1, &rows, arena)));
        }
        let classes = caches[0].get(n - 1).expect("cache covers all nodes").len();
        let mut expiring: Vec<u32> = vec![0; if check_convergence { n * batch } else { 0 }];
        let mut live_dirty: Vec<u32> = vec![0; batch];
        let mut fresh: Vec<Tensor> = Vec::with_capacity(n - first_dirty);
        let mut start = first_dirty;
        if check_convergence {
            if let Some(unit) = dirty_unit {
                match self.probe_batched(model, first_dirty, caches, lowered, unit, arena)? {
                    BatchedProbe::Unsupported => {}
                    BatchedProbe::Probed { clean, dirty } => {
                        for (img, c) in clean.iter().enumerate() {
                            if *c {
                                converged_at[img] = Some(first_dirty);
                            }
                        }
                        rows.retain(|&img| !clean[img]);
                        let Some(t) = dirty else {
                            return Ok(BatchedOutcome::Converging {
                                converged_at,
                                logits: Vec::new(),
                                classes,
                            });
                        };
                        let lr = self.last_reader[first_dirty];
                        if lr > first_dirty {
                            for &img in &rows {
                                expiring[lr * batch + img] += 1;
                                live_dirty[img] += 1;
                            }
                        }
                        fresh.push(t);
                        start = first_dirty + 1;
                    }
                }
            }
        }
        let placeholder = || Tensor::zeros([1]);
        let mut id = start;
        while id < n {
            // A fused group executes whole only when the suffix enters at
            // (or before) its head; a mid-group suffix start runs the
            // remaining members unfused (the suffix-start transform splits
            // the group).
            let group = self.head[id].map(|gi| &self.groups[gi]);
            let (out_node, mut value) = match group {
                Some(g) if g.output() < n => {
                    let v = self.eval_fused(
                        model,
                        g,
                        first_dirty,
                        caches,
                        &fresh,
                        lowered,
                        &rows,
                        arena,
                    )?;
                    (g.output(), v)
                }
                _ => {
                    let v = self.eval_step(
                        model,
                        id,
                        first_dirty,
                        caches,
                        &fresh,
                        lowered,
                        &rows,
                        arena,
                    )?;
                    (id, v)
                }
            };
            if check_convergence {
                let chunk = caches[0].get(out_node).expect("cache covers all nodes").len();
                let vbits = value.as_slice();
                let lr = self.last_reader[out_node];
                // Surviving row indices into the current panel width.
                let mut keep: Vec<usize> = Vec::with_capacity(rows.len());
                for (r, &img) in rows.iter().enumerate() {
                    // The steps id..=out_node have now read their inputs:
                    // this image's dirty values last read inside the group
                    // can no longer spread.
                    for step in id..=out_node {
                        live_dirty[img] -= expiring[step * batch + img];
                    }
                    let golden = caches[img].get(out_node).expect("cache covers all nodes");
                    let clean = bits_eq(&vbits[r * chunk..][..chunk], golden.as_slice());
                    if clean && live_dirty[img] == 0 {
                        converged_at[img] = Some(out_node);
                        continue;
                    }
                    if !clean && lr > out_node {
                        expiring[lr * batch + img] += 1;
                        live_dirty[img] += 1;
                    }
                    keep.push(r);
                }
                if keep.len() < rows.len() {
                    if keep.is_empty() {
                        arena.recycle(value.into_vec());
                        for t in fresh {
                            if t.len() > 1 {
                                arena.recycle(t.into_vec());
                            }
                        }
                        return Ok(BatchedOutcome::Converging {
                            converged_at,
                            logits: Vec::new(),
                            classes,
                        });
                    }
                    // Compact the new value AND every live suffix tensor to
                    // the surviving rows, so all live tensors always agree
                    // on the panel width (skip connections may read tensors
                    // produced many compactions apart).
                    let kept = take_rows(&value, &keep, arena);
                    arena.recycle(value.into_vec());
                    value = kept;
                    for slot in fresh.iter_mut() {
                        if slot.len() > 1 {
                            let old = std::mem::replace(slot, placeholder());
                            let kept = take_rows(&old, &keep, arena);
                            arena.recycle(old.into_vec());
                            *slot = kept;
                        }
                    }
                    rows = keep.iter().map(|&r| rows[r]).collect();
                }
            }
            // Fused-away intermediates occupy their suffix slots with
            // placeholders; the single-reader fusion condition guarantees
            // nothing outside the group reads them.
            for _ in id..out_node {
                fresh.push(placeholder());
            }
            fresh.push(value);
            // Flush activations whose last reader has now run.
            for step in id..=out_node {
                for &dead in &self.flush[step] {
                    if dead >= first_dirty && dead < out_node {
                        let slot = dead - first_dirty;
                        if slot < fresh.len() && fresh[slot].len() > 1 {
                            let t = std::mem::replace(&mut fresh[slot], placeholder());
                            arena.recycle(t.into_vec());
                        }
                    }
                }
            }
            id = out_node + 1;
        }
        let out = fresh.pop().expect("suffix is nonempty");
        for t in fresh {
            if t.len() > 1 {
                arena.recycle(t.into_vec());
            }
        }
        if check_convergence {
            Ok(BatchedOutcome::Converging { converged_at, logits: out.into_vec(), classes })
        } else {
            Ok(BatchedOutcome::Logits(out))
        }
    }

    /// Evaluates one fused conv+bn(+relu) group over the batched values:
    /// one register-tiled GEMM per conv group (the interleaved
    /// `images * spatial` panels are exactly the wide-`n` shapes the
    /// `micro` dispatch tier owns), bias + folded BN + activation
    /// applied in the scatter epilogue (bit-identical to the unfused
    /// three-pass sequence — see the module docs). A golden prefix input
    /// is gathered from the surviving images' caches before lowering.
    #[allow(clippy::too_many_arguments)]
    fn eval_fused(
        &self,
        model: &Model,
        g: &FusedGroup,
        first_dirty: NodeId,
        caches: &[ActivationCache],
        fresh: &[Tensor],
        lowered: Option<&BatchedLowered>,
        rows: &[usize],
        arena: &mut ScratchArena,
    ) -> Result<Tensor, NnError> {
        let node = &model.nodes()[g.conv];
        let NodeOp::Conv { weight, bias, cfg } = &node.op else {
            unreachable!("fusion heads are conv nodes");
        };
        let param = |p: ParamId| &model.store().get(p).expect("validated at construction").tensor;
        let w = param(*weight);
        let b = bias.map(&param);
        let wrap = |source| NnError::Op { node: g.conv, source };
        let ep = ConvEpilogue { bn: Some((&g.scale, &g.shift)), act: g.activation };
        let out = match lowered {
            // The first dirty conv's golden-input panel is shared across
            // every fault at this node; the converging pass only evaluates
            // the seed node while all rows are still live, so the panel
            // never needs compaction.
            Some(low) if g.conv == first_dirty && low.batch() == rows.len() => {
                ops::conv2d_batched_from_lowered(low, w, b, Some(&ep), Some(arena)).map_err(wrap)?
            }
            _ => {
                let inp = node.inputs[0];
                let gathered = (inp < first_dirty).then(|| gather_rows(caches, inp, rows, arena));
                let input = gathered.as_ref().unwrap_or_else(|| &fresh[inp - first_dirty]);
                let owned = ops::im2col_lower_batched(input, w, *cfg, Some(arena)).map_err(wrap)?;
                let out = ops::conv2d_batched_from_lowered(&owned, w, b, Some(&ep), Some(arena))
                    .map_err(wrap)?;
                arena.recycle(owned.into_cols());
                if let Some(t) = gathered {
                    arena.recycle(t.into_vec());
                }
                out
            }
        };
        Ok(out)
    }

    /// Evaluates one unfused plan step over the batched values. Lowerable
    /// convs still take the batched single-GEMM path (without an epilogue);
    /// everything else dispatches through the model's fast per-op kernels,
    /// which treat the batch dimension natively. Golden prefix inputs are
    /// gathered from the surviving images' caches.
    #[allow(clippy::too_many_arguments)]
    fn eval_step(
        &self,
        model: &Model,
        id: NodeId,
        first_dirty: NodeId,
        caches: &[ActivationCache],
        fresh: &[Tensor],
        lowered: Option<&BatchedLowered>,
        rows: &[usize],
        arena: &mut ScratchArena,
    ) -> Result<Tensor, NnError> {
        let node = &model.nodes()[id];
        if self.lowerable[id] {
            if let NodeOp::Conv { weight, bias, cfg } = &node.op {
                let param =
                    |p: ParamId| &model.store().get(p).expect("validated at construction").tensor;
                let w = param(*weight);
                let b = bias.map(&param);
                let wrap = |source| NnError::Op { node: id, source };
                let out = match lowered {
                    Some(low) if id == first_dirty && low.batch() == rows.len() => {
                        ops::conv2d_batched_from_lowered(low, w, b, None, Some(arena))
                            .map_err(wrap)?
                    }
                    _ => {
                        let inp = node.inputs[0];
                        let gathered =
                            (inp < first_dirty).then(|| gather_rows(caches, inp, rows, arena));
                        let input = gathered.as_ref().unwrap_or_else(|| &fresh[inp - first_dirty]);
                        let owned =
                            ops::im2col_lower_batched(input, w, *cfg, Some(arena)).map_err(wrap)?;
                        let out = ops::conv2d_batched_from_lowered(&owned, w, b, None, Some(arena))
                            .map_err(wrap)?;
                        arena.recycle(owned.into_cols());
                        if let Some(t) = gathered {
                            arena.recycle(t.into_vec());
                        }
                        out
                    }
                };
                return Ok(out);
            }
        }
        // Generic path: every golden prefix input this node reads is
        // gathered into the surviving rows and passed as an override, so
        // every operand agrees on the panel width and the (empty) prefix is
        // never read.
        let mut over_rows: Vec<(NodeId, Tensor)> = Vec::new();
        for &inp in &node.inputs {
            if inp < first_dirty && !over_rows.iter().any(|(held, _)| *held == inp) {
                over_rows.push((inp, gather_rows(caches, inp, rows, arena)));
            }
        }
        let vals =
            NodeValues { prefix: &[], over: &over_rows, suffix_base: first_dirty, suffix: fresh };
        let mut opts = ForwardOptions { arena: Some(arena), ..ForwardOptions::default() };
        let out = model.eval_node_with(id, &vals, &mut opts);
        for (_, t) in over_rows {
            arena.recycle(t.into_vec());
        }
        out
    }

    /// Batched single-unit probe of the first dirty node: evaluates only
    /// the faulted output unit for **all** images — one GEMM row over the
    /// batched panel, or, for a depthwise conv, the one channel plane of
    /// each image's golden input — and compares each image's unit against
    /// its own golden activation bit-for-bit.
    fn probe_batched(
        &self,
        model: &Model,
        id: NodeId,
        caches: &[ActivationCache],
        lowered: Option<&BatchedLowered>,
        unit: usize,
        arena: &mut ScratchArena,
    ) -> Result<BatchedProbe, NnError> {
        let node = &model.nodes()[id];
        let param = |p: ParamId| &model.store().get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let batch = caches.len();
        let vals: Vec<f32> = match &node.op {
            NodeOp::Conv { weight, bias, cfg } => {
                let w = param(*weight);
                if unit >= w.shape().n() {
                    return Ok(BatchedProbe::Unsupported);
                }
                if !self.lowerable[id] {
                    // Depthwise: channel `unit` of each image reads only its
                    // own golden input plane, straight from the image's
                    // cache — no panel, no gather.
                    let spatial =
                        caches[0].get(id).expect("cache covers all nodes").len() / w.shape().n();
                    let mut vals = arena.take(batch * spatial);
                    for (img, dst) in vals.chunks_exact_mut(spatial).enumerate() {
                        let x = caches[img].get(node.inputs[0]).expect("cache covers all nodes");
                        let row = ops::conv2d_channel_depthwise(
                            x,
                            w,
                            bias.map(&param),
                            *cfg,
                            unit,
                            Some(arena),
                        )
                        .map_err(wrap)?;
                        dst.copy_from_slice(&row);
                        arena.recycle(row);
                    }
                    vals
                } else {
                    let Some(low) = lowered else { return Ok(BatchedProbe::Unsupported) };
                    ops::conv2d_channel_batched(low, w, bias.map(&param), unit, Some(arena))
                        .map_err(wrap)?
                }
            }
            NodeOp::Linear { weight, bias } => {
                let w = param(*weight);
                if unit >= w.shape().dims()[0] {
                    return Ok(BatchedProbe::Unsupported);
                }
                let all: Vec<usize> = (0..batch).collect();
                let xv = gather_rows(caches, node.inputs[0], &all, arena);
                let rest = xv.len() / batch;
                let row = xv
                    .reshape([batch, rest])
                    .and_then(|x2| ops::linear_row(&x2, w, bias.map(&param), unit));
                arena.recycle(xv.into_vec());
                row.map_err(wrap)?
            }
            _ => return Ok(BatchedProbe::Unsupported),
        };
        let golden = |img: usize| caches[img].get(id).expect("cache covers all nodes").as_slice();
        let dims = caches[0].get(id).expect("cache covers all nodes").shape().dims().to_vec();
        let units = dims[1];
        let chunk: usize = dims[2..].iter().product();
        let clean: Vec<bool> = (0..batch)
            .map(|n| bits_eq(&golden(n)[unit * chunk..][..chunk], &vals[n * chunk..][..chunk]))
            .collect();
        let survivors: Vec<usize> = (0..batch).filter(|&n| !clean[n]).collect();
        if survivors.is_empty() {
            arena.recycle(vals);
            return Ok(BatchedProbe::Probed { clean, dirty: None });
        }
        // Materialize the node's activation for the dirty images only:
        // their golden rows with the probed unit overwritten, already
        // compacted to the surviving panel width.
        let row = units * chunk;
        let mut data = arena.take(survivors.len() * row);
        for (r, &img) in survivors.iter().enumerate() {
            let dst = &mut data[r * row..][..row];
            dst.copy_from_slice(golden(img));
            dst[unit * chunk..][..chunk].copy_from_slice(&vals[img * chunk..][..chunk]);
        }
        arena.recycle(vals);
        let mut nd = dims;
        nd[0] = survivors.len();
        let t = Tensor::from_vec(Shape::new(&nd), data)
            .expect("materialized activation matches golden row shape");
        Ok(BatchedProbe::Probed { clean, dirty: Some(t) })
    }
}

/// Bitwise f32 slice equality (NaN payloads included), the element-level
/// form of [`Tensor::bits_equal`].
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Copies the given leading-axis rows of `t` into a new arena-backed
/// tensor, preserving the per-row layout. The converging batched pass uses
/// this to drop converged images out of live suffix tensors (`keep` =
/// surviving row indices).
fn take_rows(t: &Tensor, keep: &[usize], arena: &mut ScratchArena) -> Tensor {
    let shape = t.shape();
    let dims = shape.dims();
    let chunk: usize = dims[1..].iter().product();
    let src = t.as_slice();
    let mut data = arena.take(keep.len() * chunk);
    for (r, &row) in keep.iter().enumerate() {
        data[r * chunk..][..chunk].copy_from_slice(&src[row * chunk..][..chunk]);
    }
    let mut nd = dims.to_vec();
    nd[0] = keep.len();
    Tensor::from_vec(Shape::new(&nd), data).expect("row subset preserves the element count")
}

/// Gathers node `id`'s golden activation of `images` (ascending image ids)
/// from their per-image caches into one arena-backed `[images.len(), ..]`
/// tensor: the image-major layout the batched kernels read, so the batched
/// engine needs no stacked golden copy of its own.
fn gather_rows(
    caches: &[ActivationCache],
    id: NodeId,
    images: &[usize],
    arena: &mut ScratchArena,
) -> Tensor {
    let one = caches[0].get(id).expect("cache covers all nodes");
    let chunk = one.len();
    let mut data = arena.take(images.len() * chunk);
    for (r, &img) in images.iter().enumerate() {
        let src = caches[img].get(id).expect("cache covers all nodes").as_slice();
        data[r * chunk..][..chunk].copy_from_slice(src);
    }
    let mut nd = one.shape().dims().to_vec();
    nd[0] = images.len();
    Tensor::from_vec(Shape::new(&nd), data).expect("per-image rows stack into the batch shape")
}

/// NaN-aware argmax over one logits row, identical to
/// [`Tensor::argmax`](sfi_tensor::Tensor::argmax) on a single-image tensor:
/// NaNs are skipped unless the whole row is NaN (then index 0 wins), ties
/// keep the first maximum.
pub fn row_argmax(row: &[f32]) -> Option<usize> {
    if row.is_empty() {
        return None;
    }
    Some(crate::model::argmax_slice(row))
}

/// Reusable per-worker session state: the scratch arena, a high-water
/// mark shared across every worker of a campaign session (so telemetry
/// reports one session-wide arena peak instead of summing — and
/// double-counting — per-worker figures), and a single-slot cache of the
/// batched im2col panel of one conv node's golden input. Faults are
/// dispatched deepest-first within a stratum, so every fault sharing a
/// first dirty conv lands adjacent on one worker and the single slot
/// captures nearly all panel reuse while bounding memory to one panel per
/// worker (the former campaign-wide prebuilt panel map held every conv's
/// panel for the whole run).
#[derive(Debug, Default)]
pub struct SessionState {
    /// The worker's scratch arena; persists across faults and campaigns.
    pub arena: ScratchArena,
    shared_peak: Option<Arc<AtomicU64>>,
    /// The one batched golden-input panel this worker currently holds.
    panel: Option<(NodeId, BatchedLowered)>,
}

impl SessionState {
    /// A fresh state with a private arena and no shared peak.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh state publishing its arena peak into `peak` (shared by
    /// every worker of one session).
    pub fn with_shared_peak(peak: Arc<AtomicU64>) -> Self {
        Self { arena: ScratchArena::new(), shared_peak: Some(peak), panel: None }
    }

    /// Ensures the panel slot holds the batched im2col panel of `node`'s
    /// golden input over all eval images, building it into this worker's
    /// arena when absent: the input rows are gathered from `caches` (one
    /// per-image golden cache per eval image) and lowered image-major,
    /// exactly as [`ops::im2col_lower_batched`] lowers the stacked input.
    /// Returns `true` when the held panel was reused (a sharing hit),
    /// `false` when it was (re)built or the node does not lower. The
    /// faulty weight values never enter the
    /// panel — lowering reads only the node's *input* activation and the
    /// kernel geometry — so one panel serves every fault at the node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when `caches` is empty or a cache
    /// misses the node's input, or the lowering kernel's first failure.
    pub fn ensure_panel(
        &mut self,
        model: &Model,
        plan: &CompiledPlan,
        caches: &[ActivationCache],
        node: NodeId,
    ) -> Result<bool, NnError> {
        if !plan.is_lowerable_conv(node) {
            return Ok(false);
        }
        if self.panel.as_ref().is_some_and(|(held, _)| *held == node) {
            return Ok(true);
        }
        let NodeOp::Conv { weight, cfg, .. } = &model.nodes()[node].op else {
            return Ok(false);
        };
        let w = &model.store().get(*weight).expect("validated at construction").tensor;
        let input_id = model.nodes()[node].inputs[0];
        if caches.is_empty() || caches.iter().any(|c| c.get(input_id).is_none()) {
            return Err(NnError::CacheMismatch {
                reason: format!("panel build: a golden cache misses node {input_id}"),
            });
        }
        if let Some((_, old)) = self.panel.take() {
            self.arena.recycle(old.into_cols());
        }
        let all: Vec<usize> = (0..caches.len()).collect();
        let input = gather_rows(caches, input_id, &all, &mut self.arena);
        let built = ops::im2col_lower_batched(&input, w, *cfg, Some(&mut self.arena));
        self.arena.recycle(input.into_vec());
        let built = built.map_err(|source| NnError::Op { node, source })?;
        self.panel = Some((node, built));
        Ok(false)
    }

    /// Splits the state into the arena and the panel held for `node` (if
    /// any), so a batched forward can borrow both at once.
    pub fn arena_and_panel(
        &mut self,
        node: NodeId,
    ) -> (&mut ScratchArena, Option<&BatchedLowered>) {
        let panel = match &self.panel {
            Some((held, p)) if *held == node => Some(p),
            _ => None,
        };
        (&mut self.arena, panel)
    }

    /// Publishes the arena's current high-water mark into the shared
    /// session peak (monotone `max`), returning the session-wide value.
    pub fn publish_peak(&self) -> u64 {
        let mine = self.arena.peak_bytes() as u64;
        match &self.shared_peak {
            Some(shared) => {
                shared.fetch_max(mine, Ordering::Relaxed);
                shared.load(Ordering::Relaxed)
            }
            None => mine,
        }
    }

    /// The session-wide arena high-water mark (this worker's own peak when
    /// no shared counter was attached).
    pub fn high_water(&self) -> u64 {
        match &self.shared_peak {
            Some(shared) => shared.load(Ordering::Relaxed).max(self.arena.peak_bytes() as u64),
            None => self.arena.peak_bytes() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::ResNetConfig;

    fn setup() -> (Model, ActivationCache, CompiledPlan) {
        let model = ResNetConfig::resnet20_micro().build_seeded(7).unwrap();
        let input = Tensor::from_fn([1, 3, 16, 16], |i| (i as f32 * 0.37).sin());
        let cache = model.forward_cached(&input).unwrap();
        let plan = CompiledPlan::compile(&model, &cache).unwrap();
        (model, cache, plan)
    }

    #[test]
    fn compile_covers_every_node_and_orders_lifetimes() {
        let (model, _, plan) = setup();
        assert_eq!(plan.len(), model.nodes().len());
        for (i, &lr) in plan.last_reader.iter().enumerate() {
            assert!(lr >= i, "a reader never precedes its producer");
        }
        // Every non-final node dies exactly once across the flush lists.
        let mut flushed = vec![0usize; plan.len()];
        for id in 0..plan.len() {
            for &dead in &plan.flush[id] {
                flushed[dead] += 1;
            }
        }
        for (i, &count) in flushed.iter().enumerate().skip(1) {
            if i < plan.len() - 1 {
                assert_eq!(count, 1, "node {i} must be flushed exactly once");
            }
        }
    }

    #[test]
    fn fusion_groups_cover_conv_bn_relu_chains() {
        let (model, _, plan) = setup();
        assert!(plan.fused_groups() > 0, "resnet emits conv+bn+relu chains");
        // Group heads are lowerable convs.
        for (id, node) in model.nodes().iter().enumerate() {
            if plan.head.get(id).copied().flatten().is_some() {
                assert!(matches!(node.op, NodeOp::Conv { .. }));
                assert!(plan.is_lowerable_conv(id));
            }
        }
    }

    /// One golden cache per image of the `[n, c, h, w]` batch `stacked`.
    fn per_image_caches(model: &Model, stacked: &Tensor) -> Vec<ActivationCache> {
        let dims = stacked.shape().dims().to_vec();
        let chunk = stacked.len() / dims[0];
        stacked
            .as_slice()
            .chunks(chunk)
            .map(|row| {
                let img = Tensor::from_vec([1, dims[1], dims[2], dims[3]], row.to_vec()).unwrap();
                model.forward_cached(&img).unwrap()
            })
            .collect()
    }

    #[test]
    fn batched_forward_matches_per_image_bitwise() {
        let (model, _, _) = setup();
        let images: Vec<Tensor> = (0..3)
            .map(|s| Tensor::from_fn([1, 3, 16, 16], |i| ((i + s * 31) as f32 * 0.21).cos()))
            .collect();
        let caches: Vec<ActivationCache> =
            images.iter().map(|img| model.forward_cached(img).unwrap()).collect();
        let plan = CompiledPlan::compile(&model, &caches[0]).unwrap();
        let mut arena = ScratchArena::new();
        // Re-run the whole graph batched (suffix start = 1, no probe, no
        // convergence) and compare per-image rows to per-image passes.
        let out =
            plan.forward_batched_from(&model, 1, &caches, None, None, false, &mut arena).unwrap();
        let BatchedOutcome::Logits(logits) = out else { panic!("no convergence requested") };
        let classes = logits.len() / 3;
        for (i, img) in images.iter().enumerate() {
            let per_image = model.forward(img).unwrap();
            let row = &logits.as_slice()[i * classes..][..classes];
            for (a, b) in row.iter().zip(per_image.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "image {i}");
            }
        }
    }

    #[test]
    fn batched_convergence_detects_golden_recompute() {
        let (model, _, _) = setup();
        let input = Tensor::from_fn([2, 3, 16, 16], |i| (i as f32 * 0.11).sin());
        let caches = per_image_caches(&model, &input);
        let plan = CompiledPlan::compile(&model, &caches[0]).unwrap();
        let mut arena = ScratchArena::new();
        // Nothing is dirty: recomputing from node 1 must converge every
        // image with no surviving logits rows.
        let out =
            plan.forward_batched_from(&model, 1, &caches, None, None, true, &mut arena).unwrap();
        let BatchedOutcome::Converging { converged_at, logits, .. } = out else {
            panic!("convergence was requested");
        };
        assert_eq!(converged_at.len(), 2);
        assert!(converged_at.iter().all(Option::is_some), "golden recompute converges everywhere");
        assert!(logits.is_empty(), "no image survives to the output");
    }

    #[test]
    fn calibration_switches_dispatch_to_measured_costs() {
        let (model, _, mut plan) = setup();
        assert!(plan.calibration().is_none());
        // An uncalibrated plan never selects the batched engine.
        assert!((1..plan.len()).all(|id| !plan.batched_profitable(id, f64::MAX)));
        let input = Tensor::from_fn([2, 3, 16, 16], |i| (i as f32 * 0.11).sin());
        let caches = per_image_caches(&model, &input);
        plan.calibrate(&model, &caches).unwrap();
        let cal = plan.calibration().expect("calibration attached");
        assert_eq!(cal.images(), 2);
        // Suffix costs are monotone decreasing.
        for id in 2..plan.len() {
            assert!(cal.dense_suffix_secs(id - 1) >= cal.dense_suffix_secs(id));
            assert!(cal.batched_suffix_secs(id - 1) >= cal.batched_suffix_secs(id));
        }
        assert!(cal.dense_suffix_secs(1) > 0.0, "a real suffix takes nonzero time");
    }

    #[test]
    fn session_state_panel_slot_hits_on_repeat_node() {
        let (model, _, _) = setup();
        let input = Tensor::from_fn([2, 3, 16, 16], |i| (i as f32 * 0.13).cos());
        let caches = per_image_caches(&model, &input);
        let plan = CompiledPlan::compile(&model, &caches[0]).unwrap();
        let conv = (1..plan.len()).find(|&id| plan.is_lowerable_conv(id)).expect("has convs");
        let other = (conv + 1..plan.len()).find(|&id| plan.is_lowerable_conv(id)).unwrap();
        let mut session = SessionState::new();
        assert!(!session.ensure_panel(&model, &plan, &caches, conv).unwrap(), "first build");
        assert!(session.ensure_panel(&model, &plan, &caches, conv).unwrap(), "repeat hits");
        let (_, panel) = session.arena_and_panel(conv);
        assert!(panel.is_some());
        let (_, wrong) = session.arena_and_panel(other);
        assert!(wrong.is_none(), "slot is keyed by node");
        assert!(!session.ensure_panel(&model, &plan, &caches, other).unwrap(), "rebuild on switch");
        let (_, panel) = session.arena_and_panel(other);
        assert!(panel.is_some());
    }

    #[test]
    fn panel_gathered_from_per_image_caches_matches_the_stacked_lowering() {
        let (model, _, _) = setup();
        let input = Tensor::from_fn([3, 3, 16, 16], |i| (i as f32 * 0.17).sin());
        let caches = per_image_caches(&model, &input);
        let stacked = model.forward_cached(&input).unwrap();
        let plan = CompiledPlan::compile(&model, &caches[0]).unwrap();
        let mut session = SessionState::new();
        let mut checked = 0;
        for id in (1..plan.len()).filter(|&id| plan.is_lowerable_conv(id)) {
            let NodeOp::Conv { weight, cfg, .. } = &model.nodes()[id].op else { unreachable!() };
            let w = &model.store().get(*weight).unwrap().tensor;
            let stacked_input = stacked.get(model.nodes()[id].inputs[0]).unwrap();
            let want = ops::im2col_lower_batched(stacked_input, w, *cfg, None).unwrap().into_cols();
            session.ensure_panel(&model, &plan, &caches, id).unwrap();
            let got = session.arena_and_panel(id).1.expect("panel built").clone().into_cols();
            assert_eq!(got.len(), want.len(), "node {id}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "node {id}");
            }
            checked += 1;
        }
        assert!(checked > 1, "resnet20-micro has several lowerable convs");
    }

    #[test]
    fn session_state_publishes_shared_peak() {
        let shared = Arc::new(AtomicU64::new(0));
        let mut a = SessionState::with_shared_peak(Arc::clone(&shared));
        let mut b = SessionState::with_shared_peak(Arc::clone(&shared));
        let buf = a.arena.take(1000);
        a.arena.recycle(buf);
        let buf = b.arena.take(10);
        b.arena.recycle(buf);
        a.publish_peak();
        b.publish_peak();
        assert_eq!(shared.load(Ordering::Relaxed), 4000);
        assert_eq!(b.high_water(), 4000, "peers see the session-wide peak");
    }

    #[test]
    fn row_argmax_matches_tensor_argmax() {
        let t = Tensor::from_vec([1, 4], vec![0.5, f32::NAN, 2.0, 2.0]).unwrap();
        assert_eq!(row_argmax(t.as_slice()), t.argmax());
        assert_eq!(row_argmax(&[]), None);
    }
}
