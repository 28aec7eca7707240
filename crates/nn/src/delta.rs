//! Sparse delta-propagation faulty inference for transient faults.
//!
//! A transient activation (or input) upset corrupts exactly one element of
//! one node's activation; everything else that node holds is bit-golden.
//! Instead of re-running the dense suffix (a patched [`Model::forward_from`]),
//! the delta pass represents every faulty activation as *golden + delta*:
//! the full tensor is materialized, but a [`DirtyMask`] records which
//! per-channel, per-spatial-block regions may differ bitwise from the
//! golden run. Each node then:
//!
//! 1. computes a conservative **candidate** mask from its inputs' masks and
//!    the operator's receptive-field geometry (a conv dilates spatial
//!    blocks by its kernel extent and spreads to every output channel of
//!    the same group; pooling contracts; `Add` unions; element-wise ops
//!    copy);
//! 2. recomputes only the candidate elements with *order-exact* scalar
//!    kernels that replicate the dense kernels' per-element accumulation
//!    sequence (so the bits match exactly, non-finite values included);
//!    clean elements are copied from golden, which is exact because their
//!    dense recomputation would read only bit-golden inputs;
//! 3. **trims** the mask by bit-comparing the recomputed candidate blocks
//!    against golden — this is what makes deltas die (ReLU clamping both
//!    values to zero, zero input windows, non-sampled strided pixels);
//! 4. falls back to the dense kernel when the candidate region saturates
//!    past [`DeltaOptions::saturation`] (a deterministic, pure function of
//!    the mask, so outcomes are identical at any worker count).
//!
//! An empty mask ⇔ the activation is provably bit-golden, so the pass
//! inherits the golden-convergence early exit for free: an absorbed upset
//! costs zero per-node work downstream of the node where its delta died.
//!
//! Weight faults do not use this engine: a faulted weight dirties a whole
//! output channel, so its cone saturates at the first downstream conv and
//! the pass degrades to dense evaluation plus mask bookkeeping. They run
//! the dense converging pass ([`Model::forward_from`]) or the
//! batched eval-image engine instead.

use sfi_tensor::ops::{self, Conv2dCfg, Padding};
use sfi_tensor::{DirtyMask, ScratchArena, Tensor, DIRTY_BLOCK};

use crate::model::{ActivationCache, ForwardOutcome, LiveDirty};
use crate::{Model, NnError, NodeId, NodeOp, ParamId};

/// Default [`DeltaOptions::saturation`] threshold: when a node's candidate
/// dirty region covers at least this fraction of its blocks, the scalar
/// sparse kernels lose to the blocked dense path and the node is evaluated
/// densely. It governs the cones of transient faults, which
/// `benches/transient.rs` measures against dense suffix re-execution
/// (BENCH_transient.json): lower thresholds give up sparse wins on cones
/// that stay narrow, higher ones drag scalar kernels through near-dense
/// cones.
pub const DELTA_SATURATION_DEFAULT: f64 = 0.125;

/// Per-caller state threaded through [`Model::forward_delta_site`].
pub struct DeltaOptions<'a> {
    /// Scratch arena for materialized activations; recycled when the pass
    /// converges.
    pub arena: Option<&'a mut ScratchArena>,
    /// Dense-fallback threshold on the candidate mask's dirty fraction, in
    /// `[0, 1]`. A node whose candidate fraction is `>=` this value is
    /// evaluated densely. `0.0` forces every node dense; `1.0` (or more)
    /// keeps every node sparse.
    pub saturation: f64,
}

impl Default for DeltaOptions<'_> {
    fn default() -> Self {
        Self { arena: None, saturation: DELTA_SATURATION_DEFAULT }
    }
}

/// Work counters of one [`Model::forward_delta_site`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Nodes recomputed through the sparse (dirty-cone) kernels, plus the
    /// corrupted seed node.
    pub sparse_nodes: u64,
    /// Nodes that saturated past the threshold and fell back to the dense
    /// kernel.
    pub dense_nodes: u64,
    /// Nodes proven clean without per-element work (empty candidate or all
    /// inputs clean), plus nodes whose recomputed delta trimmed to empty.
    pub clean_nodes: u64,
    /// Total dirty blocks across all surviving per-node masks — the volume
    /// of the fault's dirty cone.
    pub dirty_blocks: u64,
}

/// One node's materialized faulty activation plus its dirty-region mask.
struct DeltaState {
    value: Tensor,
    mask: DirtyMask,
    /// The mask crossed the saturation threshold when this state was
    /// created. Downstream readers then skip candidate geometry and mask
    /// rebuilds entirely — the cone is already dense, so they evaluate
    /// densely and decide dirtiness with the same short-circuit bitwise
    /// compare the convergence pass uses, paying no delta overhead.
    saturated: bool,
}

impl Model {
    /// Incremental faulty inference from a single corrupted activation
    /// element — the transient-fault injection hook.
    ///
    /// Bit-identical to the dense [`Model::forward_from`] pass with the
    /// same [`ActPatch`](crate::ActPatch) in every observable way: returned
    /// logits carry the exact bits dense recomputation would produce, and
    /// [`ForwardOutcome::Converged`] is returned only when the skipped
    /// suffix is provably bit-golden (the live-dirty tracker of the dense
    /// converging pass, with "dirty" ⇔ "mask nonempty").
    ///
    /// The seed is not recomputed at all: the golden activation of `node` is
    /// cloned, its flat `element` is replaced by `faulty_bits`, and the
    /// delta cone starts from [`DirtyMask::single_site`]. `node` may be `0`,
    /// which corrupts the *input* tensor and propagates through the whole
    /// network. When the corrupted bits equal the golden bits the fault is
    /// provably masked and [`ForwardOutcome::Converged`] at `node` is
    /// returned without any downstream work.
    ///
    /// With `saturation == 0.0` every downstream node takes the dense
    /// bit-compare fast path, which makes this hook behave exactly like the
    /// dense golden-convergence pass — same classifications, same bits.
    ///
    /// # Errors
    ///
    /// [`NnError::CacheMismatch`] when the cache does not cover the model or
    /// the site names a node/element out of range.
    pub fn forward_delta_site(
        &self,
        node: NodeId,
        element: usize,
        faulty_bits: u32,
        cache: &ActivationCache,
        opts: &mut DeltaOptions<'_>,
    ) -> Result<(ForwardOutcome, DeltaStats), NnError> {
        let n_nodes = self.nodes().len();
        if cache.len() != n_nodes {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "cache holds {} activations, model has {n_nodes} nodes",
                    cache.len()
                ),
            });
        }
        if node >= n_nodes {
            return Err(NnError::CacheMismatch {
                reason: format!("activation site names node {node}, model has {n_nodes} nodes"),
            });
        }
        let golden = cache.get(node).expect("cache covers model");
        let g = golden.as_slice();
        if element >= g.len() {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "activation site element {element} out of range for node {node} ({} elements)",
                    g.len()
                ),
            });
        }
        let mut stats = DeltaStats::default();
        if g[element].to_bits() == faulty_bits {
            stats.clean_nodes += 1;
            return Ok((ForwardOutcome::Converged { at_node: node }, stats));
        }
        let wrap = |source| NnError::Op { node, source };
        let mut data = golden_copy(golden, opts.arena.as_deref_mut());
        data[element] = f32::from_bits(faulty_bits);
        let mask = DirtyMask::single_site(golden.shape(), element).map_err(wrap)?;
        let saturated = mask.dirty_fraction() >= opts.saturation;
        let value = Tensor::from_vec(golden.shape(), data).expect("golden-shaped buffer");
        stats.sparse_nodes += 1;
        self.delta_run(node, cache, DeltaState { value, mask, saturated }, opts, stats)
    }

    /// Propagates the seeded delta state of node `first_dirty` through the
    /// suffix after it. `first_dirty` may be `0` (input faults), in which
    /// case node 0's state is the patched input itself.
    fn delta_run(
        &self,
        first_dirty: NodeId,
        cache: &ActivationCache,
        seed: DeltaState,
        opts: &mut DeltaOptions<'_>,
        mut stats: DeltaStats,
    ) -> Result<(ForwardOutcome, DeltaStats), NnError> {
        let n_nodes = self.nodes().len();
        // Same live-dirty rule as the dense converging pass, with "dirty"
        // ⇔ "mask nonempty".
        let mut live = LiveDirty::new(self.nodes(), first_dirty);
        let mut states: Vec<Option<DeltaState>> = Vec::with_capacity(n_nodes - first_dirty);
        stats.dirty_blocks += seed.mask.dirty_blocks() as u64;
        live.dirty(first_dirty);
        states.push(Some(seed));
        for id in first_dirty + 1..n_nodes {
            let state = self.delta_node(id, first_dirty, cache, &states, opts, &mut stats)?;
            live.consumed(id);
            match state {
                None => {
                    if live.clear() {
                        if let Some(a) = opts.arena.as_deref_mut() {
                            for s in states.into_iter().flatten() {
                                a.recycle(s.value.into_vec());
                            }
                        }
                        return Ok((ForwardOutcome::Converged { at_node: id }, stats));
                    }
                    states.push(None);
                }
                Some(s) => {
                    stats.dirty_blocks += s.mask.dirty_blocks() as u64;
                    live.dirty(id);
                    states.push(Some(s));
                }
            }
        }
        let last = states.pop().expect("suffix is nonempty");
        let out = match last {
            Some(s) => s.value,
            None => cache.get(n_nodes - 1).expect("nonempty").clone(),
        };
        if let Some(a) = opts.arena.as_deref_mut() {
            for s in states.into_iter().flatten() {
                a.recycle(s.value.into_vec());
            }
        }
        Ok((ForwardOutcome::Logits(out), stats))
    }

    /// Evaluates one downstream node of the delta pass: clean inputs ⇒ no
    /// work; otherwise candidate geometry, then sparse recompute + trim or
    /// dense fallback past the saturation threshold.
    fn delta_node(
        &self,
        id: NodeId,
        first_dirty: NodeId,
        cache: &ActivationCache,
        states: &[Option<DeltaState>],
        opts: &mut DeltaOptions<'_>,
        stats: &mut DeltaStats,
    ) -> Result<Option<DeltaState>, NnError> {
        let node = &self.nodes()[id];
        let resolve = |inp: NodeId| -> (&Tensor, Option<&DirtyMask>, bool) {
            if inp >= first_dirty {
                if let Some(s) = &states[inp - first_dirty] {
                    return (&s.value, Some(&s.mask), s.saturated);
                }
            }
            (cache.get(inp).expect("cache covers model"), None, false)
        };
        let x0full = resolve(node.inputs[0]);
        let x1full = node.inputs.get(1).map(|&i| resolve(i));
        let x0 = (x0full.0, x0full.1);
        let x1 = x1full.map(|x| (x.0, x.1));
        if x0.1.is_none() && x1.is_none_or(|x| x.1.is_none()) {
            // Zero-delta fast path: every readable input is bit-golden, so
            // this node's dense recomputation would be too. No per-element
            // work happens here.
            stats.clean_nodes += 1;
            return Ok(None);
        }
        let golden = cache.get(id).expect("cache covers model");
        let wrap = |source| NnError::Op { node: id, source };
        if x0full.2 || x1full.is_some_and(|x| x.2) {
            // Saturated-cone fast path: candidate geometry over a saturated
            // input could only rediscover a (near-)full mask, so skip it and
            // decide dirtiness with the convergence pass's short-circuit
            // bitwise compare. This caps the per-node delta overhead at
            // exactly the dense early-exit cost once the cone has gone dense.
            stats.dense_nodes += 1;
            let value =
                self.eval_node_dense(id, x0.0, x1.map(|x| x.0), opts.arena.as_deref_mut())?;
            if value.bits_equal(golden) {
                if let Some(a) = opts.arena.as_deref_mut() {
                    a.recycle(value.into_vec());
                }
                stats.clean_nodes += 1;
                return Ok(None);
            }
            let mask = DirtyMask::full(golden.shape()).map_err(wrap)?;
            return Ok(Some(DeltaState { value, mask, saturated: true }));
        }
        let cand = self.candidate_mask(id, golden, x0, x1).map_err(wrap)?;
        if cand.is_empty() {
            stats.clean_nodes += 1;
            return Ok(None);
        }
        let (value, mask) = if cand.dirty_fraction() >= opts.saturation {
            stats.dense_nodes += 1;
            let value =
                self.eval_node_dense(id, x0.0, x1.map(|x| x.0), opts.arena.as_deref_mut())?;
            if value.bits_equal(golden) {
                if let Some(a) = opts.arena.as_deref_mut() {
                    a.recycle(value.into_vec());
                }
                stats.clean_nodes += 1;
                return Ok(None);
            }
            let mask = DirtyMask::full(golden.shape()).map_err(wrap)?;
            (value, mask)
        } else {
            stats.sparse_nodes += 1;
            let mut data = golden_copy(golden, opts.arena.as_deref_mut());
            self.sparse_recompute(id, x0.0, x1.map(|x| x.0), &cand, &mut data).map_err(wrap)?;
            let mask = trimmed_mask(golden, &data, &cand).map_err(wrap)?;
            (Tensor::from_vec(golden.shape(), data).expect("golden-shaped buffer"), mask)
        };
        if mask.is_empty() {
            if let Some(a) = opts.arena.as_deref_mut() {
                a.recycle(value.into_vec());
            }
            stats.clean_nodes += 1;
            return Ok(None);
        }
        let saturated = mask.dirty_fraction() >= opts.saturation;
        Ok(Some(DeltaState { value, mask, saturated }))
    }

    /// Dense evaluation of node `id` on explicitly resolved inputs, using
    /// the same fast kernels as `Model::eval_node_with`.
    fn eval_node_dense(
        &self,
        id: NodeId,
        x0: &Tensor,
        x1: Option<&Tensor>,
        arena: Option<&mut ScratchArena>,
    ) -> Result<Tensor, NnError> {
        let node = &self.nodes()[id];
        let param = |p: ParamId| &self.store().get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let out = match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, bias, cfg } => {
                let w = param(*weight);
                let b = bias.map(&param);
                match arena {
                    Some(a) => ops::conv2d_with(x0, w, b, *cfg, a).map_err(wrap)?,
                    None => ops::conv2d(x0, w, b, *cfg).map_err(wrap)?,
                }
            }
            NodeOp::BatchNorm { gamma, beta, mean, var, eps } => {
                let params = ops::BatchNormParams {
                    gamma: param(*gamma),
                    beta: param(*beta),
                    mean: param(*mean),
                    var: param(*var),
                    eps: *eps,
                };
                match arena {
                    Some(a) => ops::batch_norm_with(x0, &params, a).map_err(wrap)?,
                    None => ops::batch_norm(x0, &params).map_err(wrap)?,
                }
            }
            NodeOp::Relu => match arena {
                Some(a) => ops::relu_with(x0, a),
                None => ops::relu(x0),
            },
            NodeOp::Relu6 => match arena {
                Some(a) => ops::relu6_with(x0, a),
                None => ops::relu6(x0),
            },
            NodeOp::AvgPool { kernel } => ops::avg_pool2d(x0, *kernel).map_err(wrap)?,
            NodeOp::MaxPool { kernel } => ops::max_pool2d(x0, *kernel).map_err(wrap)?,
            NodeOp::GlobalAvgPool => ops::global_avg_pool(x0).map_err(wrap)?,
            NodeOp::Linear { weight, bias } => {
                let reshaped;
                let x2 = if x0.shape().rank() == 2 {
                    x0
                } else {
                    let n = x0.shape().dims()[0];
                    let rest = x0.len() / n;
                    reshaped = x0.reshape([n, rest]).map_err(wrap)?;
                    &reshaped
                };
                ops::linear(x2, param(*weight), bias.map(&param)).map_err(wrap)?
            }
            NodeOp::Add => {
                let rhs = x1.expect("Add is binary");
                match arena {
                    Some(a) => ops::add_with(x0, rhs, a).map_err(wrap)?,
                    None => ops::add(x0, rhs).map_err(wrap)?,
                }
            }
            NodeOp::DownsamplePad { out_channels, stride } => {
                ops::downsample_pad_channels(x0, *out_channels, *stride).map_err(wrap)?
            }
        };
        Ok(out)
    }

    /// Conservative candidate mask of node `id` from its inputs' masks:
    /// every output block that could read a dirty input element is marked.
    fn candidate_mask(
        &self,
        id: NodeId,
        golden: &Tensor,
        x0: (&Tensor, Option<&DirtyMask>),
        x1: Option<(&Tensor, Option<&DirtyMask>)>,
    ) -> Result<DirtyMask, sfi_tensor::TensorError> {
        let node = &self.nodes()[id];
        let param = |p: ParamId| &self.store().get(p).expect("validated at construction").tensor;
        match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, cfg, .. } => {
                let xm = x0.1.expect("conv input is dirty");
                let w = param(*weight);
                conv_candidate(golden, x0.0, w.shape().h(), w.shape().w(), *cfg, xm)
            }
            NodeOp::BatchNorm { .. } | NodeOp::Relu | NodeOp::Relu6 => {
                Ok(x0.1.expect("elementwise input is dirty").clone())
            }
            NodeOp::AvgPool { kernel } | NodeOp::MaxPool { kernel } => {
                pool_candidate(golden, x0.1.expect("pool input is dirty"), *kernel)
            }
            NodeOp::GlobalAvgPool => {
                let xm = x0.1.expect("gap input is dirty");
                let mut cand = DirtyMask::for_shape(golden.shape())?;
                for p in 0..xm.planes() {
                    if xm.plane_is_dirty(p) {
                        cand.mark_block(p, 0, 0);
                    }
                }
                Ok(cand)
            }
            NodeOp::Linear { .. } => {
                let xm = x0.1.expect("linear input is dirty");
                let mut cand = DirtyMask::for_shape(golden.shape())?;
                let (batch, out_features) = (golden.shape().dims()[0], golden.shape().dims()[1]);
                let per_image = xm.planes() / batch;
                for n in 0..batch {
                    let dirty = (0..per_image).any(|c| xm.plane_is_dirty(n * per_image + c));
                    if dirty {
                        for o in 0..out_features {
                            cand.mark_block(n * out_features + o, 0, 0);
                        }
                    }
                }
                Ok(cand)
            }
            NodeOp::Add => {
                let rhs = x1.expect("Add is binary");
                match (x0.1, rhs.1) {
                    (Some(a), Some(b)) => {
                        let mut m = a.clone();
                        m.union_with(b);
                        Ok(m)
                    }
                    (Some(a), None) => Ok(a.clone()),
                    (None, Some(b)) => Ok(b.clone()),
                    (None, None) => unreachable!("at least one Add input is dirty"),
                }
            }
            NodeOp::DownsamplePad { stride, .. } => {
                down_candidate(golden, x0.0, x0.1.expect("downsample input is dirty"), *stride)
            }
        }
    }

    /// Recomputes the candidate elements of node `id` into `data` (a copy
    /// of the golden activation) with order-exact scalar kernels.
    fn sparse_recompute(
        &self,
        id: NodeId,
        x0: &Tensor,
        x1: Option<&Tensor>,
        cand: &DirtyMask,
        data: &mut [f32],
    ) -> Result<(), sfi_tensor::TensorError> {
        let node = &self.nodes()[id];
        let param = |p: ParamId| &self.store().get(p).expect("validated at construction").tensor;
        match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, bias, cfg } => {
                sparse_conv(x0, param(*weight), bias.map(&param), *cfg, cand, data);
            }
            NodeOp::BatchNorm { gamma, beta, mean, var, eps } => {
                let (gs, bs, ms, vs) = (
                    param(*gamma).as_slice(),
                    param(*beta).as_slice(),
                    param(*mean).as_slice(),
                    param(*var).as_slice(),
                );
                let c = x0.shape().c();
                let x = x0.as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let ci = p % c;
                    // Exactly bn_apply's per-channel affine form.
                    let inv_std = 1.0 / (vs[ci] + eps).sqrt();
                    let scale = gs[ci] * inv_std;
                    let shift = bs[ci] - ms[ci] * scale;
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = x[idx] * scale + shift;
                });
            }
            NodeOp::Relu => {
                let x = x0.as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = if x[idx] < 0.0 { 0.0 } else { x[idx] };
                });
            }
            NodeOp::Relu6 => {
                let x = x0.as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = x[idx].clamp(0.0, 6.0);
                });
            }
            NodeOp::AvgPool { kernel } => {
                let (h_in, w_in) = (x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let k = *kernel;
                let norm = 1.0 / (k * k) as f32;
                for_dirty_pixels(cand, |p, oh, ow| {
                    let chan = &x[p * h_in * w_in..][..h_in * w_in];
                    let mut acc = 0.0f32;
                    for kh in 0..k {
                        for kw in 0..k {
                            acc += chan[(oh * k + kh) * w_in + ow * k + kw];
                        }
                    }
                    data[(p * cand.height() + oh) * cand.width() + ow] = acc * norm;
                });
            }
            NodeOp::MaxPool { kernel } => {
                let (h_in, w_in) = (x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let k = *kernel;
                for_dirty_pixels(cand, |p, oh, ow| {
                    let chan = &x[p * h_in * w_in..][..h_in * w_in];
                    let mut best = f32::NEG_INFINITY;
                    let mut seen = false;
                    for kh in 0..k {
                        for kw in 0..k {
                            let v = chan[(oh * k + kh) * w_in + ow * k + kw];
                            if !v.is_nan() && (v > best || !seen) {
                                best = v;
                                seen = true;
                            }
                        }
                    }
                    data[(p * cand.height() + oh) * cand.width() + ow] =
                        if seen { best } else { f32::NAN };
                });
            }
            NodeOp::GlobalAvgPool => {
                let (h_in, w_in) = (x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let norm = 1.0 / (h_in * w_in) as f32;
                for_dirty_pixels(cand, |p, _, _| {
                    let chan = &x[p * h_in * w_in..][..h_in * w_in];
                    data[p] = chan.iter().sum::<f32>() * norm;
                });
            }
            NodeOp::Linear { weight, bias } => {
                let w = param(*weight);
                let b = bias.map(&param);
                let (out_features, in_features) = (w.shape().dims()[0], w.shape().dims()[1]);
                let batch = cand.planes() / out_features;
                let x = x0.as_slice();
                for n in 0..batch {
                    let dirty =
                        (0..out_features).any(|o| cand.block_is_dirty(n * out_features + o, 0, 0));
                    if !dirty {
                        continue;
                    }
                    let x_row = &x[n * in_features..(n + 1) * in_features];
                    let row = &mut data[n * out_features..(n + 1) * out_features];
                    row.fill(0.0);
                    // Stays on the naive kernel deliberately: n == 1 GEMV
                    // has no output columns to lane across, so the
                    // register-tiled tiers are structurally inapplicable —
                    // `gemm_selected_kernel(m, k, 1)` routes here too.
                    ops::gemm(out_features, in_features, 1, w.as_slice(), x_row, row);
                    if let Some(b) = b {
                        for (v, &bv) in row.iter_mut().zip(b.as_slice()) {
                            *v += bv;
                        }
                    }
                }
            }
            NodeOp::Add => {
                let a = x0.as_slice();
                let bb = x1.expect("Add is binary").as_slice();
                for_dirty_pixels(cand, |p, y, xx| {
                    let idx = (p * cand.height() + y) * cand.width() + xx;
                    data[idx] = a[idx] + bb[idx];
                });
            }
            NodeOp::DownsamplePad { out_channels, stride } => {
                let (c_in, h_in, w_in) = (x0.shape().c(), x0.shape().h(), x0.shape().w());
                let x = x0.as_slice();
                let (oc, s) = (*out_channels, *stride);
                for_dirty_pixels(cand, |p, oh, ow| {
                    let (n, co) = (p / oc, p % oc);
                    debug_assert!(co < c_in, "padded channels are never candidates");
                    let src = ((n * c_in + co) * h_in + oh * s) * w_in + ow * s;
                    data[(p * cand.height() + oh) * cand.width() + ow] = x[src];
                });
            }
        }
        Ok(())
    }
}

/// Copies the golden activation into a working buffer, via the arena when
/// available.
fn golden_copy(golden: &Tensor, arena: Option<&mut ScratchArena>) -> Vec<f32> {
    let g = golden.as_slice();
    let mut data = match arena {
        Some(a) => a.take(g.len()),
        None => vec![0.0f32; g.len()],
    };
    data.copy_from_slice(g);
    data
}

/// Visits every pixel of every dirty block of `mask` as `(plane, y, x)`.
fn for_dirty_pixels(mask: &DirtyMask, mut f: impl FnMut(usize, usize, usize)) {
    for p in 0..mask.planes() {
        for by in 0..mask.blocks_h() {
            for bx in 0..mask.blocks_w() {
                if !mask.block_is_dirty(p, by, bx) {
                    continue;
                }
                let (y0, y1, x0, x1) = mask.block_pixels(by, bx);
                for y in y0..y1 {
                    for x in x0..x1 {
                        f(p, y, x);
                    }
                }
            }
        }
    }
}

/// The final mask of a sparse node: candidate blocks whose recomputed
/// values actually differ bitwise from golden. Blocks outside the
/// candidate are clean by construction and never compared.
fn trimmed_mask(
    golden: &Tensor,
    data: &[f32],
    cand: &DirtyMask,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut mask = DirtyMask::for_shape(golden.shape())?;
    let g = golden.as_slice();
    let (h, w) = (cand.height(), cand.width());
    for p in 0..cand.planes() {
        for by in 0..cand.blocks_h() {
            for bx in 0..cand.blocks_w() {
                if !cand.block_is_dirty(p, by, bx) {
                    continue;
                }
                let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                let differs = (y0..y1).any(|y| {
                    let row = (p * h + y) * w;
                    g[row + x0..row + x1]
                        .iter()
                        .zip(&data[row + x0..row + x1])
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                });
                if differs {
                    mask.mark_block(p, by, bx);
                }
            }
        }
    }
    Ok(mask)
}

/// Input dirty-block range touched by output pixels `[p0, p1)` of a
/// stride/kernel/pad windowed op, clipped to `limit` input pixels. Returns
/// an empty range when the window lies entirely in the padding.
fn window_block_range(
    p0: usize,
    p1: usize,
    stride: usize,
    k: usize,
    pad: usize,
    limit: usize,
) -> (usize, usize) {
    let lo = (p0 * stride) as isize - pad as isize;
    let hi = ((p1 - 1) * stride + k - 1) as isize - pad as isize;
    if hi < 0 {
        return (0, 0);
    }
    let lo = lo.max(0) as usize;
    let hi = (hi as usize).min(limit.saturating_sub(1));
    if lo > hi {
        return (0, 0);
    }
    (lo / DIRTY_BLOCK, hi / DIRTY_BLOCK + 1)
}

/// Resolves a conv's padding exactly as `Conv2dCfg::resolve_padding` does.
fn resolve_pad(cfg: Conv2dCfg, k_h: usize, k_w: usize) -> usize {
    match cfg.padding {
        Padding::Same => (k_h.max(k_w) - 1) / 2,
        Padding::Explicit(p) => p,
    }
}

/// Candidate mask of a convolution: an output block is dirty for *every*
/// channel of group `g` when its receptive field intersects a dirty block
/// of any of `g`'s input channels (grouped convs confine the channel
/// spread; the bitwise trim pass removes the conservatism).
fn conv_candidate(
    golden: &Tensor,
    input: &Tensor,
    k_h: usize,
    k_w: usize,
    cfg: Conv2dCfg,
    xm: &DirtyMask,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut cand = DirtyMask::for_shape(golden.shape())?;
    let (batch, c_out) = (golden.shape().n(), golden.shape().c());
    let (c_in, h_in, w_in) = (input.shape().c(), input.shape().h(), input.shape().w());
    let groups = cfg.groups;
    let (cpg_in, cpg_out) = (c_in / groups, c_out / groups);
    let pad = resolve_pad(cfg, k_h, k_w);
    for n in 0..batch {
        for g in 0..groups {
            let any_chan_dirty =
                (0..cpg_in).any(|ci_g| xm.plane_is_dirty(n * c_in + g * cpg_in + ci_g));
            if !any_chan_dirty {
                continue;
            }
            for by in 0..cand.blocks_h() {
                for bx in 0..cand.blocks_w() {
                    let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                    let (iby0, iby1) = window_block_range(y0, y1, cfg.stride, k_h, pad, h_in);
                    let (ibx0, ibx1) = window_block_range(x0, x1, cfg.stride, k_w, pad, w_in);
                    if iby0 >= iby1 || ibx0 >= ibx1 {
                        continue;
                    }
                    let hit = (0..cpg_in).any(|ci_g| {
                        xm.any_in(n * c_in + g * cpg_in + ci_g, iby0, iby1, ibx0, ibx1)
                    });
                    if hit {
                        for co_g in 0..cpg_out {
                            cand.mark_block(n * c_out + g * cpg_out + co_g, by, bx);
                        }
                    }
                }
            }
        }
    }
    Ok(cand)
}

/// Candidate mask of an evenly-divided pooling op (window == stride == `k`).
fn pool_candidate(
    golden: &Tensor,
    xm: &DirtyMask,
    k: usize,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut cand = DirtyMask::for_shape(golden.shape())?;
    for p in 0..cand.planes() {
        if !xm.plane_is_dirty(p) {
            continue;
        }
        for by in 0..cand.blocks_h() {
            for bx in 0..cand.blocks_w() {
                let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                let (iby0, iby1) = (y0 * k / DIRTY_BLOCK, (y1 * k - 1) / DIRTY_BLOCK + 1);
                let (ibx0, ibx1) = (x0 * k / DIRTY_BLOCK, (x1 * k - 1) / DIRTY_BLOCK + 1);
                if xm.any_in(p, iby0, iby1, ibx0, ibx1) {
                    cand.mark_block(p, by, bx);
                }
            }
        }
    }
    Ok(cand)
}

/// Candidate mask of the parameter-free strided downsample: only sampled
/// input pixels (multiples of `stride`) can propagate; padded channels are
/// always clean.
fn down_candidate(
    golden: &Tensor,
    input: &Tensor,
    xm: &DirtyMask,
    stride: usize,
) -> Result<DirtyMask, sfi_tensor::TensorError> {
    let mut cand = DirtyMask::for_shape(golden.shape())?;
    let (batch, oc) = (golden.shape().n(), golden.shape().c());
    let c_in = input.shape().c();
    for n in 0..batch {
        for co in 0..c_in {
            let in_plane = n * c_in + co;
            if !xm.plane_is_dirty(in_plane) {
                continue;
            }
            let out_plane = n * oc + co;
            for by in 0..cand.blocks_h() {
                for bx in 0..cand.blocks_w() {
                    let (y0, y1, x0, x1) = cand.block_pixels(by, bx);
                    let (iby0, iby1) =
                        (y0 * stride / DIRTY_BLOCK, ((y1 - 1) * stride) / DIRTY_BLOCK + 1);
                    let (ibx0, ibx1) =
                        (x0 * stride / DIRTY_BLOCK, ((x1 - 1) * stride) / DIRTY_BLOCK + 1);
                    if xm.any_in(in_plane, iby0, iby1, ibx0, ibx1) {
                        cand.mark_block(out_plane, by, bx);
                    }
                }
            }
        }
    }
    Ok(cand)
}

/// Order-exact scalar convolution over the candidate region.
///
/// The im2col path computes each output element as `acc = Σ_k w[k]·col[k]`
/// with `k = (ci_g·k_h + kh)·k_w + kw` ascending, padding multiplied as
/// explicit zeros, and the bias added *after* the GEMM with a separate
/// `+=`. The depthwise kernel instead *skips* out-of-bounds taps and
/// writes `acc + base` in one add. Both forms are replicated exactly so
/// NaN/Inf weights produce identical bits (e.g. `0.0 × NaN = NaN` at
/// padded border pixels of the im2col family).
fn sparse_conv(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    cand: &DirtyMask,
    data: &mut [f32],
) {
    let (c_in, h_in, w_in) = (input.shape().c(), input.shape().h(), input.shape().w());
    let (c_out, cpg_in, k_h, k_w) =
        (weight.shape().n(), weight.shape().c(), weight.shape().h(), weight.shape().w());
    let groups = cfg.groups;
    let cpg_out = c_out / groups;
    let pad = resolve_pad(cfg, k_h, k_w) as isize;
    let (h_out, w_out) = (cand.height(), cand.width());
    let x = input.as_slice();
    let w = weight.as_slice();
    let depthwise = groups == c_in && c_out == c_in && cpg_in == 1;
    for_dirty_pixels(cand, |p, oh, ow| {
        let (n, co) = (p / c_out, p % c_out);
        let g = co / cpg_out;
        let out_idx = (p * h_out + oh) * w_out + ow;
        if depthwise {
            let in_chan = &x[(n * c_in + co) * h_in * w_in..][..h_in * w_in];
            let w_chan = &w[co * k_h * k_w..][..k_h * k_w];
            let base = bias.map_or(0.0, |b| b.as_slice()[co]);
            let mut acc = 0.0f32;
            for kh in 0..k_h {
                let ih = (oh * cfg.stride + kh) as isize - pad;
                if ih < 0 || ih as usize >= h_in {
                    continue;
                }
                for kw in 0..k_w {
                    let iw = (ow * cfg.stride + kw) as isize - pad;
                    if iw < 0 || iw as usize >= w_in {
                        continue;
                    }
                    acc += in_chan[ih as usize * w_in + iw as usize] * w_chan[kh * k_w + kw];
                }
            }
            data[out_idx] = acc + base;
        } else {
            let mut acc = 0.0f32;
            for ci_g in 0..cpg_in {
                let ci = g * cpg_in + ci_g;
                let in_chan = &x[(n * c_in + ci) * h_in * w_in..][..h_in * w_in];
                for kh in 0..k_h {
                    let ih = (oh * cfg.stride + kh) as isize - pad;
                    let row_ok = ih >= 0 && (ih as usize) < h_in;
                    for kw in 0..k_w {
                        let iw = (ow * cfg.stride + kw) as isize - pad;
                        let v = if row_ok && iw >= 0 && (iw as usize) < w_in {
                            in_chan[ih as usize * w_in + iw as usize]
                        } else {
                            0.0
                        };
                        acc += w[((co * cpg_in + ci_g) * k_h + kh) * k_w + kw] * v;
                    }
                }
            }
            if let Some(b) = bias {
                acc += b.as_slice()[co];
            }
            data[out_idx] = acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use sfi_tensor::Shape;

    use super::*;
    use crate::{ActPatch, ForwardOptions, Node, ParamKind, ParameterStore};

    /// Payloads a bit-level upset can leave behind: quiet and signalling
    /// NaNs with distinct payloads and signs, ±Inf, the largest finite
    /// magnitude, and a negative subnormal.
    const SPECIALS: [u32; 8] = [
        0x7fc0_0000,
        0x7fc0_1234,
        0x7f80_0001,
        0xffc0_0007,
        0x7f80_0000,
        0xff80_0000,
        0x7f7f_ffff,
        0x8000_0001,
    ];

    fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// conv(1->2, 3x3) -> relu -> gap -> linear, as in model.rs tests.
    fn tiny_model() -> Model {
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 9.0) * 0.1),
        );
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let b1 = store.push("fc.bias", ParamKind::Bias, Tensor::from_fn([3], |i| i as f32 * 0.1));
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::unary(NodeOp::GlobalAvgPool, 2),
            Node::unary(NodeOp::Linear { weight: w1, bias: Some(b1) }, 3),
        ];
        Model::new("tiny", nodes, store, vec![1, 4, 4]).unwrap()
    }

    /// The dense patched forward: `element` of node `node` overwritten with
    /// `faulty_bits`, the suffix re-executed by [`Model::forward_from`].
    fn dense_patched(
        m: &Model,
        node: NodeId,
        element: usize,
        faulty_bits: u32,
        cache: &ActivationCache,
    ) -> Tensor {
        let patch =
            ActPatch { and_mask: 0, or_mask: faulty_bits, ..ActPatch::identity(node, element) };
        let opts = &mut ForwardOptions::default();
        m.forward_from(None, cache, &[patch], opts).unwrap().into_logits(cache)
    }

    /// Strikes `element` of node `node` with `faulty_bits` through
    /// `forward_delta_site` (at the given saturation) and asserts the
    /// outcome is indistinguishable from the dense patched forward:
    /// bit-identical logits on divergence, bit-golden dense logits on
    /// convergence, and the same outcome and work without a scratch arena.
    fn assert_site_exact(
        m: &Model,
        node: NodeId,
        element: usize,
        faulty_bits: u32,
        cache: &ActivationCache,
        saturation: f64,
        ctx: &str,
    ) -> (ForwardOutcome, DeltaStats) {
        let dense = dense_patched(m, node, element, faulty_bits, cache);
        let mut arena = ScratchArena::new();
        let (out, stats) = m
            .forward_delta_site(
                node,
                element,
                faulty_bits,
                cache,
                &mut DeltaOptions { arena: Some(&mut arena), saturation },
            )
            .unwrap();
        match &out {
            ForwardOutcome::Logits(l) => {
                assert!(bits_eq(l, &dense), "{ctx}: delta logits diverge from dense");
            }
            ForwardOutcome::Converged { at_node } => {
                let golden = cache.get(cache.len() - 1).unwrap();
                assert!(bits_eq(&dense, golden), "{ctx}: spurious convergence at node {at_node}");
            }
        }
        let (plain, plain_stats) = m
            .forward_delta_site(
                node,
                element,
                faulty_bits,
                cache,
                &mut DeltaOptions { saturation, ..Default::default() },
            )
            .unwrap();
        match (&out, &plain) {
            (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => {
                assert!(bits_eq(a, b), "{ctx}: arena changed the bits");
            }
            (a, b) => assert_eq!(a, b, "{ctx}: arena changed the outcome"),
        }
        assert_eq!(stats, plain_stats, "{ctx}: arena changed the work");
        (out, stats)
    }

    /// Element 0 (inside every output's receptive field at the origin) plus
    /// `n` seeded random elements of node `node`'s activation.
    fn sites(cache: &ActivationCache, node: NodeId, seed: u64, n: usize) -> Vec<usize> {
        let len = cache.get(node).unwrap().len();
        let mut rng = StdRng::seed_from_u64(seed ^ node as u64);
        std::iter::once(0).chain((0..n).map(|_| rng.gen_range(0..len))).collect()
    }

    /// [`SPECIALS`] plus a sign flip and a low-mantissa flip of the golden
    /// value at the site.
    fn payloads(golden: f32) -> Vec<u32> {
        let g = golden.to_bits();
        SPECIALS.iter().copied().chain([g ^ (1 << 31), g ^ (1 << 3)]).collect()
    }

    /// Strikes seeded random sites of every node with every payload and
    /// asserts each strike exact.
    fn assert_all_sites_exact(m: &Model, cache: &ActivationCache, saturation: f64, tag: &str) {
        for node in 0..cache.len() {
            for element in sites(cache, node, 0x5eed, 3) {
                let golden = cache.get(node).unwrap().as_slice()[element];
                for bits in payloads(golden) {
                    let ctx = format!("{tag}: node {node} element {element} bits {bits:#010x}");
                    assert_site_exact(m, node, element, bits, cache, saturation, &ctx);
                }
            }
        }
    }

    #[test]
    fn delta_matches_dense_on_a_diverging_fault() {
        let m = tiny_model();
        let input = Tensor::from_fn([2, 1, 4, 4], |i| (i as f32).sin());
        let cache = m.forward_cached(&input).unwrap();
        let bits = (cache.get(1).unwrap().as_slice()[0] + 100.0).to_bits();
        let (out, stats) = assert_site_exact(&m, 1, 0, bits, &cache, 0.95, "diverging conv");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
        assert!(stats.sparse_nodes > 1, "the cone must run sparse: {stats:?}");
        assert!(stats.dirty_blocks > 0);
    }

    #[test]
    fn zero_delta_fast_path_does_no_per_node_work() {
        // A negative conv output made more negative: the ReLU clamps both
        // values to zero, the recomputed delta trims to empty, and the pass
        // stops there without touching any other node.
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32 * 0.3).cos());
        let cache = m.forward_cached(&input).unwrap();
        let conv = cache.get(1).unwrap().as_slice();
        let element = conv.iter().position(|&v| v < 0.0).expect("a negative conv output");
        let bits = (conv[element] * 2.0).to_bits();
        let (out, stats) = assert_site_exact(&m, 1, element, bits, &cache, 0.95, "masked");
        assert_eq!(out, ForwardOutcome::Converged { at_node: 2 });
        assert_eq!(
            stats,
            DeltaStats { sparse_nodes: 2, dense_nodes: 0, clean_nodes: 1, dirty_blocks: 1 },
            "a delta that dies at the ReLU must do no work downstream"
        );
    }

    #[test]
    fn saturation_boundary_at_threshold_goes_dense() {
        // One struck conv element dirties one of two 4x4 planes, so the
        // seed and the ReLU candidate fractions are exactly 0.5.
        // saturation == that fraction must fall back dense (>=); just above
        // keeps it sparse. Classifications stay bit-identical either way.
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32).cos());
        let cache = m.forward_cached(&input).unwrap();
        let bits = 7.0f32.to_bits();
        let (_, at) = assert_site_exact(&m, 1, 0, bits, &cache, 0.5, "at threshold");
        let (_, over) = assert_site_exact(&m, 1, 0, bits, &cache, 0.5001, "over threshold");
        assert!(at.dense_nodes > over.dense_nodes, "at: {at:?}, over: {over:?}");
        assert!(over.sparse_nodes > at.sparse_nodes, "at: {at:?}, over: {over:?}");
        // saturation 0.0 forces every dirty node dense; 1.1 keeps all sparse.
        let (_, all_dense) = assert_site_exact(&m, 1, 0, bits, &cache, 0.0, "all dense");
        assert_eq!(all_dense.sparse_nodes, 1, "only the seed stays sparse: {all_dense:?}");
        let (_, all_sparse) = assert_site_exact(&m, 1, 0, bits, &cache, 1.1, "all sparse");
        assert_eq!(all_sparse.dense_nodes, 0, "{all_sparse:?}");
    }

    #[test]
    fn delta_through_stride2_and_grouped_conv() {
        // conv(1->2) -> relu -> conv(2->4, stride 2, groups 2) -> relu ->
        // gap -> linear; sites upstream of the strided grouped conv send
        // their cones across its geometry.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv1.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 8.0) * 0.11),
        );
        let w1 = store.push(
            "conv2.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([4, 1, 3, 3], |i| ((i * 5) % 17) as f32 * 0.07 - 0.5),
        );
        let w2 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 2 },
            Tensor::from_fn([3, 4], |i| (i as f32 - 5.0) * 0.3),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::unary(
                NodeOp::Conv { weight: w1, bias: None, cfg: Conv2dCfg::same(2).with_groups(2) },
                2,
            ),
            Node::unary(NodeOp::Relu, 3),
            Node::unary(NodeOp::GlobalAvgPool, 4),
            Node::unary(NodeOp::Linear { weight: w2, bias: None }, 5),
        ];
        let m = Model::new("strided", nodes, store, vec![1, 8, 8]).unwrap();
        let input = Tensor::from_fn([2, 1, 8, 8], |i| ((i * 3) % 7) as f32 * 0.2 - 0.5);
        let cache = m.forward_cached(&input).unwrap();
        assert_all_sites_exact(&m, &cache, 0.95, "strided grouped");
        // A site on the grouped conv's input must reach it sparsely.
        let (_, stats) = assert_site_exact(&m, 2, 0, 5.0f32.to_bits(), &cache, 1.1, "into conv");
        assert!(stats.sparse_nodes >= 2, "the grouped conv must run sparse: {stats:?}");
    }

    #[test]
    fn delta_through_depthwise_conv() {
        // conv(1->2) -> relu -> depthwise conv(2->2, groups 2) -> gap -> fc.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 9.0) * 0.1),
        );
        let dw = store.push(
            "dw.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([2, 1, 3, 3], |i| ((i * 7) % 5) as f32 * 0.15 - 0.2),
        );
        let dwb = store.push("dw.bias", ParamKind::Bias, Tensor::from_fn([2], |i| i as f32 * 0.4));
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 2 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::unary(
                NodeOp::Conv {
                    weight: dw,
                    bias: Some(dwb),
                    cfg: Conv2dCfg::same(1).with_groups(2),
                },
                2,
            ),
            Node::unary(NodeOp::GlobalAvgPool, 3),
            Node::unary(NodeOp::Linear { weight: w1, bias: None }, 4),
        ];
        let m = Model::new("dw", nodes, store, vec![1, 6, 6]).unwrap();
        let input = Tensor::from_fn([1, 1, 6, 6], |i| (i as f32 * 0.7).sin());
        let cache = m.forward_cached(&input).unwrap();
        assert_all_sites_exact(&m, &cache, 0.95, "depthwise");
        let (_, stats) = assert_site_exact(&m, 2, 0, (-4.0f32).to_bits(), &cache, 1.1, "into dw");
        assert!(stats.sparse_nodes >= 2, "the depthwise conv must run sparse: {stats:?}");
    }

    #[test]
    fn skip_connection_remerges_dirty_and_clean_branches() {
        // The ReLU output re-converges to golden while the conv output it
        // shadows stays dirty and flows around it through the Add. The
        // delta pass must keep the dirty branch alive and reproduce dense
        // bits at the merge.
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "conv.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 9.0) * 0.1),
        );
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg: Conv2dCfg::same(1) }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::binary(NodeOp::Add, 2, 1),
            Node::unary(NodeOp::GlobalAvgPool, 3),
            Node::unary(NodeOp::Linear { weight: w1, bias: None }, 4),
        ];
        let m = Model::new("skip", nodes, store, vec![1, 4, 4]).unwrap();
        let input = Tensor::full([1, 1, 4, 4], -1.0);
        let cache = m.forward_cached(&input).unwrap();
        assert_all_sites_exact(&m, &cache, 0.95, "skip");
        // The trap: a negative conv output made more negative stays clamped
        // to zero by the ReLU while the conv branch itself stays dirty.
        let conv = cache.get(1).unwrap().as_slice();
        let element = conv.iter().position(|&v| v < 0.0).expect("a negative conv output");
        let bits = (conv[element] * 1.5).to_bits();
        let (out, stats) = assert_site_exact(&m, 1, element, bits, &cache, 0.95, "skip remerge");
        assert!(
            matches!(out, ForwardOutcome::Logits(_)),
            "must not converge past a live dirty skip input"
        );
        assert!(stats.clean_nodes >= 1, "the ReLU trims to a clean node: {stats:?}");
    }

    #[test]
    fn dense_fallback_and_sparse_agree_under_nonfinite_faults() {
        let m = tiny_model();
        let input = Tensor::from_fn([2, 1, 4, 4], |i| (i as f32 * 0.3).cos());
        let cache = m.forward_cached(&input).unwrap();
        for node in 0..cache.len() {
            for element in sites(&cache, node, 0xf00d, 2) {
                let golden = cache.get(node).unwrap().as_slice()[element];
                for bits in payloads(golden) {
                    let ctx = format!("node {node} element {element} bits {bits:#010x}");
                    let sparse = assert_site_exact(&m, node, element, bits, &cache, 1.1, &ctx);
                    let dense = assert_site_exact(&m, node, element, bits, &cache, 0.0, &ctx);
                    match (&sparse.0, &dense.0) {
                        (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => {
                            assert!(bits_eq(a, b), "{ctx}: saturation policy changed the bits");
                        }
                        (a, b) => assert_eq!(a, b, "{ctx}: saturation policy changed the outcome"),
                    }
                }
            }
        }
    }

    #[test]
    fn every_sparse_kernel_runs_bitwise_exact() {
        // One graph holding every operator the delta pass has a candidate
        // rule and a sparse kernel for. Each node's inputs are struck with
        // every payload at saturation 1.1, so the node itself runs its
        // sparse kernel (node k reads node k - 1 first, and no candidate
        // reaches the threshold), and the logits are checked bitwise.
        let mut store = ParameterStore::new();
        let mut rng = StdRng::seed_from_u64(17);
        let mut param = |name: &str, kind: ParamKind, dims: &[usize], lo: f32, hi: f32| {
            let len = dims.iter().product();
            let data = (0..len).map(|_| rng.gen_range(lo..hi)).collect();
            store.push(name, kind, Tensor::from_vec(Shape::new(dims), data).unwrap())
        };
        let w0 = param("conv0.weight", ParamKind::Weight { layer: 0 }, &[4, 1, 3, 3], -0.5, 0.5);
        let b0 = param("conv0.bias", ParamKind::Bias, &[4], -0.2, 0.2);
        let gamma = param("bn.gamma", ParamKind::BnGamma, &[4], 0.5, 1.5);
        let beta = param("bn.beta", ParamKind::BnBeta, &[4], -0.1, 0.1);
        let mean = param("bn.mean", ParamKind::BnMean, &[4], -0.1, 0.1);
        let var = param("bn.var", ParamKind::BnVar, &[4], 0.5, 1.5);
        let w1 = param("conv1.weight", ParamKind::Weight { layer: 1 }, &[8, 8, 3, 3], -0.3, 0.3);
        let dw = param("dw.weight", ParamKind::Weight { layer: 2 }, &[8, 1, 3, 3], -0.5, 0.5);
        let dwb = param("dw.bias", ParamKind::Bias, &[8], -0.2, 0.2);
        let fc = param("fc.weight", ParamKind::Weight { layer: 3 }, &[3, 8], -0.5, 0.5);
        let fcb = param("fc.bias", ParamKind::Bias, &[3], -0.1, 0.1);
        let conv = |weight, bias, cfg| NodeOp::Conv { weight, bias, cfg };
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            // [2, 2, 16, 16] -> grouped, biased conv -> [2, 4, 16, 16]
            Node::unary(conv(w0, Some(b0), Conv2dCfg::same(1).with_groups(2)), 0),
            Node::unary(NodeOp::BatchNorm { gamma, beta, mean, var, eps: 1e-5 }, 1),
            Node::unary(NodeOp::Relu, 2),
            Node::unary(NodeOp::MaxPool { kernel: 2 }, 3),
            Node::unary(NodeOp::DownsamplePad { out_channels: 8, stride: 2 }, 4),
            Node::unary(conv(w1, None, Conv2dCfg::same(1)), 5),
            Node::binary(NodeOp::Add, 6, 5),
            Node::unary(NodeOp::Relu6, 7),
            Node::unary(conv(dw, Some(dwb), Conv2dCfg::same(2).with_groups(8)), 8),
            Node::unary(NodeOp::AvgPool { kernel: 2 }, 9),
            Node::unary(NodeOp::GlobalAvgPool, 10),
            Node::unary(NodeOp::Linear { weight: fc, bias: Some(fcb) }, 11),
        ];
        let m = Model::new("every-op", nodes, store, vec![2, 16, 16]).unwrap();
        let input = Tensor::from_fn([2, 2, 16, 16], |i| ((i * 7) % 23) as f32 * 0.13 - 1.4);
        let cache = m.forward_cached(&input).unwrap();
        for (id, node) in m.nodes().iter().enumerate().skip(1) {
            for &inp in &node.inputs {
                for element in sites(&cache, inp, 0xcafe, 2) {
                    let golden = cache.get(inp).unwrap().as_slice()[element];
                    for bits in payloads(golden) {
                        let ctx = format!("{:?} input {inp}[{element}] bits {bits:#010x}", node.op);
                        let (_, stats) =
                            assert_site_exact(&m, inp, element, bits, &cache, 1.1, &ctx);
                        assert!(stats.sparse_nodes >= 2, "{ctx}: node {id} ran no sparse kernel");
                        assert_eq!(stats.dense_nodes, 0, "{ctx}: {stats:?}");
                    }
                }
            }
        }
        assert_all_sites_exact(&m, &cache, DELTA_SATURATION_DEFAULT, "every op");
    }

    #[test]
    fn delta_site_matches_dense_patched_forward() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32).sin());
        let cache = m.forward_cached(&input).unwrap();
        // Strike every node (input included) at a fixed element with a
        // sign-bit flip; delta must match the dense patched forward bitwise.
        for node in 0..cache.len() {
            let golden = cache.get(node).unwrap();
            let element = golden.len() / 2;
            let faulty_bits = golden.as_slice()[element].to_bits() ^ (1 << 31);
            let dense = dense_patched(&m, node, element, faulty_bits, &cache);
            for saturation in [0.0, DELTA_SATURATION_DEFAULT, 1.1] {
                let mut arena = ScratchArena::new();
                let (out, _) = m
                    .forward_delta_site(
                        node,
                        element,
                        faulty_bits,
                        &cache,
                        &mut DeltaOptions { arena: Some(&mut arena), saturation },
                    )
                    .unwrap();
                match out {
                    ForwardOutcome::Logits(l) => assert!(
                        bits_eq(&l, &dense),
                        "node {node} sat {saturation}: delta-site logits diverge"
                    ),
                    ForwardOutcome::Converged { at_node } => {
                        let g = cache.get(cache.len() - 1).unwrap();
                        assert!(
                            bits_eq(&dense, g),
                            "node {node} sat {saturation}: spurious convergence at {at_node}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delta_site_masks_identical_bits_without_work() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| i as f32 * 0.1);
        let cache = m.forward_cached(&input).unwrap();
        let golden_bits = cache.get(2).unwrap().as_slice()[3].to_bits();
        let (out, stats) =
            m.forward_delta_site(2, 3, golden_bits, &cache, &mut DeltaOptions::default()).unwrap();
        assert_eq!(out, ForwardOutcome::Converged { at_node: 2 });
        assert_eq!(
            stats,
            DeltaStats { sparse_nodes: 0, dense_nodes: 0, clean_nodes: 1, dirty_blocks: 0 }
        );
    }

    #[test]
    fn delta_site_input_fault_propagates_from_node_zero() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32 * 0.3).cos());
        let cache = m.forward_cached(&input).unwrap();
        let faulty_bits = input.as_slice()[7].to_bits() ^ (0x5 << 20);
        let dense = dense_patched(&m, 0, 7, faulty_bits, &cache);
        let (out, stats) =
            m.forward_delta_site(0, 7, faulty_bits, &cache, &mut DeltaOptions::default()).unwrap();
        match out {
            ForwardOutcome::Logits(l) => assert!(bits_eq(&l, &dense)),
            ForwardOutcome::Converged { at_node } => {
                let g = cache.get(cache.len() - 1).unwrap();
                assert!(bits_eq(&dense, g), "spurious convergence at {at_node}");
            }
        }
        assert!(stats.sparse_nodes > 0 || stats.dense_nodes > 0);
    }

    #[test]
    fn delta_site_rejects_out_of_range_sites() {
        let m = tiny_model();
        let input = Tensor::zeros([1, 1, 4, 4]);
        let cache = m.forward_cached(&input).unwrap();
        assert!(matches!(
            m.forward_delta_site(99, 0, 0, &cache, &mut DeltaOptions::default()),
            Err(NnError::CacheMismatch { .. })
        ));
        assert!(matches!(
            m.forward_delta_site(1, usize::MAX, 0, &cache, &mut DeltaOptions::default()),
            Err(NnError::CacheMismatch { .. })
        ));
    }

    #[test]
    fn rejects_foreign_cache_and_strikes_the_logits_node() {
        let m = tiny_model();
        let input = Tensor::from_fn([1, 1, 4, 4], |i| i as f32 * 0.1);
        let cache = m.forward_cached(&input).unwrap();
        let bad = crate::Model::new(
            "other",
            vec![Node { op: NodeOp::Input, inputs: vec![] }],
            ParameterStore::new(),
            vec![1, 4, 4],
        )
        .unwrap();
        let bad_cache = bad.forward_cached(&Tensor::zeros([1, 1, 4, 4])).unwrap();
        assert!(matches!(
            m.forward_delta_site(1, 0, 0, &bad_cache, &mut DeltaOptions::default()),
            Err(NnError::CacheMismatch { .. })
        ));
        // A strike on the logits themselves has no suffix: the patched
        // logits come straight back.
        let last = cache.len() - 1;
        let (out, _) = assert_site_exact(&m, last, 1, f32::NAN.to_bits(), &cache, 0.95, "logits");
        match out {
            ForwardOutcome::Logits(l) => assert!(l.as_slice()[1].is_nan()),
            _ => panic!("a struck logit must not converge"),
        }
    }
}
