use serde::{Deserialize, Serialize};

use sfi_tensor::ops::{self, BatchNormParams, GemmKernel, LoweredConv};
use sfi_tensor::{ScratchArena, Tensor};

use crate::{NnError, Node, NodeId, ParamId, ParameterStore, WeightLayer};

/// Kernel and allocation policy of a forward pass.
///
/// The two policies are **bit-identical** — the register-tiled microkernel
/// dispatch preserves the naive kernel's per-output-element accumulation
/// order (see `sfi_tensor::ops::gemm_micro`) — so fault classifications
/// never depend on the choice; only speed does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelPolicy {
    /// Self-dispatching GEMM (register-tiled microkernels above the naive
    /// floor), by-reference input reads, and (when an arena is provided)
    /// recycled buffers.
    #[default]
    Fast,
    /// The historical reference path: naive GEMM, fresh allocations, and a
    /// defensive clone of every node input. Kept as the measurable
    /// pre-optimization baseline for benches and ablations.
    Naive,
}

/// Per-caller state of a [`Model::forward_from`] pass.
///
/// The defaults are fast kernels, no arena, no pre-lowered panels, no
/// probe and no convergence check.
#[derive(Default)]
pub struct ForwardOptions<'a> {
    /// Kernel and allocation policy.
    pub policy: KernelPolicy,
    /// Scratch arena for im2col/GEMM buffers; intermediate activations are
    /// recycled into it when the pass finishes.
    pub arena: Option<&'a mut ScratchArena>,
    /// Pre-lowered im2col panels for one conv node. Consulted only when
    /// that exact node is evaluated under [`KernelPolicy::Fast`] and the
    /// pass carries no patches; the caller asserts the panels were lowered
    /// from the value the node's input holds during this pass.
    pub lowered: Option<(NodeId, &'a LoweredConv)>,
    /// Output unit (conv out-channel / linear out-feature) through which
    /// the active weight fault reaches the *first dirty* node, when the
    /// caller knows it (see [`Model::param_output_unit`]). A converging
    /// pass then evaluates only that unit of the first dirty node — every
    /// other unit is a deterministic recomputation from golden inputs and
    /// unfaulted weight rows, hence bit-golden — deciding convergence (or
    /// materializing the node's full activation) at a fraction of the node
    /// cost. Read only when [`converge`](Self::converge) applies;
    /// unsupported node kinds fall back to full evaluation.
    pub dirty_unit: Option<usize>,
    /// Check golden convergence after every recomputed node and stop with
    /// [`ForwardOutcome::Converged`] once the suffix is provably golden.
    /// Applies only to passes **without patches**: a patched pass always
    /// returns [`ForwardOutcome::Logits`], bit-equal to the non-converging
    /// pass.
    pub converge: bool,
}

/// Outcome of a [`Model::forward_from`] pass.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardOutcome {
    /// The suffix diverged from the golden activations all the way to the
    /// output (or the pass did not check convergence); these are the
    /// recomputed logits.
    Logits(Tensor),
    /// Node `at_node`'s recomputed activation was **bit-identical** to the
    /// cached golden one, so every downstream tensor — logits included —
    /// is provably identical to the golden run and was not computed.
    Converged {
        /// The first recomputed node whose activation matched the cache
        /// bit-for-bit; nodes `at_node + 1 ..` were skipped.
        at_node: NodeId,
    },
}

impl ForwardOutcome {
    /// The logits this pass observed: the recomputed ones, or — after
    /// convergence — the golden logits in `cache`, which the skipped
    /// suffix provably reproduces bit for bit.
    pub fn into_logits(self, cache: &ActivationCache) -> Tensor {
        match self {
            ForwardOutcome::Logits(l) => l,
            ForwardOutcome::Converged { .. } => {
                cache.activations.last().expect("caches are nonempty").clone()
            }
        }
    }
}

/// Result of the single-unit convergence probe (a converging
/// [`Model::forward_from`] with [`ForwardOptions::dirty_unit`] set).
enum ProbeOutcome {
    /// The node/op/options combination has no single-unit kernel; fall
    /// back to full evaluation.
    Unsupported,
    /// The probed unit recomputed to golden bits — the whole node is
    /// provably golden.
    Clean,
    /// The probed unit diverged; this is the node's full activation
    /// (golden clone with the unit overwritten).
    Dirty(Tensor),
}

/// Resolves node-output references during a forward pass: a clean prefix
/// (cached activations), a (usually empty) list of overridden prefix
/// nodes, and the recomputed suffix.
pub(crate) struct NodeValues<'a> {
    pub(crate) prefix: &'a [Tensor],
    /// Values that replace prefix activations — patched golden values of
    /// a transient fault, or golden rows gathered by the batched engine.
    /// Scanned linearly; campaigns carry at most a handful of entries.
    pub(crate) over: &'a [(NodeId, Tensor)],
    pub(crate) suffix_base: usize,
    pub(crate) suffix: &'a [Tensor],
}

impl NodeValues<'_> {
    fn get(&self, id: NodeId) -> &Tensor {
        if let Some((_, t)) = self.over.iter().find(|(n, _)| *n == id) {
            return t;
        }
        if id >= self.suffix_base {
            &self.suffix[id - self.suffix_base]
        } else {
            &self.prefix[id]
        }
    }
}

/// Live-dirty bookkeeping of a converging suffix pass, shared by the dense
/// pass and the delta engine.
///
/// Every operator is deterministic and bit-exact in its inputs, so the
/// rest of a suffix is provably golden once **every activation it can
/// still read** is bitwise-golden — stronger than "the current node
/// matches": with skip connections (ResNet's residual `Add`) a later node
/// may read an earlier recomputed activation that still differs (a
/// diverged conv whose following ReLU clamped back to golden). A dirty
/// (differs-from-golden) recomputed node therefore stays *live* until its
/// last reader has been evaluated, and the pass may stop only when no
/// live dirty node remains.
pub(crate) struct LiveDirty {
    /// `last_reader[i]` — the last suffix node that reads node `i` (`i`
    /// itself when none does).
    last_reader: Vec<NodeId>,
    /// `expiring[id]` — live dirty nodes that die once node `id` has read
    /// them for the last time.
    expiring: Vec<u32>,
    live: u32,
}

impl LiveDirty {
    /// A tracker for a suffix starting at `start`: every reader of a
    /// suffix node is itself a suffix node, so readers before `start` are
    /// ignored.
    pub(crate) fn new(nodes: &[Node], start: NodeId) -> Self {
        let mut last_reader: Vec<NodeId> = (0..nodes.len()).collect();
        for (id, node) in nodes.iter().enumerate().skip(start) {
            for &inp in &node.inputs {
                last_reader[inp] = id;
            }
        }
        Self { last_reader, expiring: vec![0; nodes.len()], live: 0 }
    }

    /// Node `id` has read its inputs: dirty nodes last read here can no
    /// longer influence the suffix.
    pub(crate) fn consumed(&mut self, id: NodeId) {
        self.live -= self.expiring[id];
    }

    /// Node `id`'s value differs from golden; it stays live until its last
    /// reader has run.
    pub(crate) fn dirty(&mut self, id: NodeId) {
        let lr = self.last_reader[id];
        if lr > id {
            self.expiring[lr] += 1;
            self.live += 1;
        }
    }

    /// Whether no dirty value can still be read.
    pub(crate) fn clear(&self) -> bool {
        self.live == 0
    }
}

/// One transient activation corruption, expressed as IEEE-754 bit masks
/// over a single flat element of one node's activation tensor.
///
/// The masks compose every supported single-bit fault model:
/// stuck-at-0 clears via `and_mask`, stuck-at-1 sets via `or_mask`,
/// bit-flips toggle via `xor_mask`. The application order is
/// `(bits & and_mask | or_mask) ^ xor_mask`.
///
/// # Example
///
/// ```
/// use sfi_nn::ActPatch;
///
/// // Flip bit 31 (the sign) of element 5 of node 2's activation.
/// let patch = ActPatch { xor_mask: 1 << 31, ..ActPatch::identity(2, 5) };
/// assert_eq!(patch.apply(1.0), -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActPatch {
    /// The struck node (0 = the input tensor itself).
    pub node: NodeId,
    /// Flat element index into the node's activation tensor.
    pub element: usize,
    /// Bits to keep (stuck-at-0 clears its target bit here).
    pub and_mask: u32,
    /// Bits to force on (stuck-at-1).
    pub or_mask: u32,
    /// Bits to toggle (bit-flips).
    pub xor_mask: u32,
}

impl ActPatch {
    /// A no-op patch at `(node, element)`; combine with mask overrides.
    pub fn identity(node: NodeId, element: usize) -> Self {
        Self { node, element, and_mask: !0, or_mask: 0, xor_mask: 0 }
    }

    /// Applies the masks to a raw IEEE-754 bit pattern.
    pub fn apply_bits(&self, bits: u32) -> u32 {
        (bits & self.and_mask | self.or_mask) ^ self.xor_mask
    }

    /// Applies the masks to a value, bit-exactly (NaN payloads preserved).
    pub fn apply(&self, v: f32) -> f32 {
        f32::from_bits(self.apply_bits(v.to_bits()))
    }

    /// Whether applying this patch to `v` leaves its bits unchanged — the
    /// fault is provably masked at its own site.
    pub fn is_noop_on(&self, v: f32) -> bool {
        self.apply_bits(v.to_bits()) == v.to_bits()
    }
}

/// Cached per-node activations of one input, produced by
/// [`Model::forward_cached`] and consumed by [`Model::forward_from`].
///
/// Fault campaigns keep one cache per evaluation image: a fault in weight
/// layer `l` leaves every node before `l`'s node untouched, so re-running
/// inference can start from the cached prefix.
#[derive(Debug, Clone)]
pub struct ActivationCache {
    activations: Vec<Tensor>,
}

impl ActivationCache {
    /// The cached output of node `id`.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        self.activations.get(id)
    }

    /// Number of cached node outputs.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.activations.len()
    }

    /// Approximate heap size of the cache in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.activations.iter().map(|t| t.len() * std::mem::size_of::<f32>()).sum()
    }

    /// All cached activations in node order (the compiled-plan engine
    /// resolves prefix reads against this slice directly).
    pub(crate) fn activations(&self) -> &[Tensor] {
        &self.activations
    }
}

/// A CNN as a topologically ordered operator graph plus its parameters.
///
/// Build models through the topology configs in [`crate::resnet`] and
/// [`crate::mobilenet`], or assemble graphs manually with [`Model::new`].
///
/// # Example
///
/// ```
/// use sfi_nn::resnet::ResNetConfig;
/// use sfi_tensor::Tensor;
///
/// # fn main() -> Result<(), sfi_nn::NnError> {
/// let model = ResNetConfig::resnet20().with_width(4).build_seeded(7)?;
/// let logits = model.forward(&Tensor::zeros([2, 3, 32, 32]))?;
/// assert_eq!(logits.shape().dims(), &[2, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    nodes: Vec<Node>,
    store: ParameterStore,
    input_dims: Vec<usize>,
    /// For each node, the smallest node id it transitively influences is
    /// itself; for incremental re-execution we need, per parameter, the node
    /// that consumes it.
    param_node: Vec<Option<NodeId>>,
}

impl Model {
    /// Assembles a model from a topologically ordered node list.
    ///
    /// `input_dims` is the per-image input shape (e.g. `[3, 32, 32]`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] when node 0 is not the input
    /// placeholder, any node references a node at or after itself, or input
    /// arity does not match the operator; returns
    /// [`NnError::InvalidParameter`] when a referenced parameter id is out
    /// of range.
    pub fn new(
        name: impl Into<String>,
        nodes: Vec<Node>,
        store: ParameterStore,
        input_dims: Vec<usize>,
    ) -> Result<Self, NnError> {
        use crate::NodeOp;
        if nodes.is_empty() || !matches!(nodes[0].op, NodeOp::Input) {
            return Err(NnError::InvalidGraph {
                reason: "node 0 must be the Input placeholder".into(),
            });
        }
        let mut param_node: Vec<Option<NodeId>> = vec![None; store.len()];
        for (id, node) in nodes.iter().enumerate() {
            let arity = match node.op {
                NodeOp::Input => 0,
                NodeOp::Add => 2,
                _ => 1,
            };
            if node.inputs.len() != arity {
                return Err(NnError::InvalidGraph {
                    reason: format!("node {id} expects {arity} inputs, has {}", node.inputs.len()),
                });
            }
            for &inp in &node.inputs {
                if inp >= id {
                    return Err(NnError::InvalidGraph {
                        reason: format!("node {id} references non-preceding node {inp}"),
                    });
                }
            }
            for p in node.params() {
                if p >= store.len() {
                    return Err(NnError::InvalidParameter {
                        reason: format!("node {id} references unknown parameter {p}"),
                    });
                }
                if param_node[p].is_none() {
                    param_node[p] = Some(id);
                }
            }
        }
        Ok(Self { name: name.into(), nodes, store, input_dims, param_node })
    }

    /// The model's name (e.g. `"resnet20"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The parameter store.
    pub fn store(&self) -> &ParameterStore {
        &self.store
    }

    /// Mutable access to the parameter store (used by fault injectors).
    pub fn store_mut(&mut self) -> &mut ParameterStore {
        &mut self.store
    }

    /// Per-image input dimensions (e.g. `[3, 32, 32]`).
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// The fault-injectable weight layers, in the paper's layer order.
    pub fn weight_layers(&self) -> Vec<WeightLayer> {
        self.store.weight_layers()
    }

    /// The node that consumes parameter `param`, when any does.
    pub fn node_of_param(&self, param: ParamId) -> Option<NodeId> {
        self.param_node.get(param).copied().flatten()
    }

    /// The output unit of the node consuming `param` that a fault at flat
    /// `index` within the parameter can reach — the leading-dimension slot
    /// in every parameter layout this graph uses: conv weights are
    /// `[c_out, c_in/g, k_h, k_w]`, linear weights `[out, in]`, and
    /// vector parameters (biases, batch-norm terms) are indexed by unit
    /// directly. Feed the result to [`ForwardOptions::dirty_unit`] to arm
    /// the single-unit convergence probe. `None` when the parameter is
    /// unknown or the index is out of range.
    pub fn param_output_unit(&self, param: ParamId, index: usize) -> Option<usize> {
        let tensor = &self.store.get(param)?.tensor;
        if index >= tensor.len() {
            return None;
        }
        let shape = tensor.shape();
        let per_unit: usize = shape.dims()[1..].iter().product();
        Some(index / per_unit)
    }

    fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        let dims = input.shape();
        let ok =
            dims.rank() == self.input_dims.len() + 1 && dims.dims()[1..] == self.input_dims[..];
        if ok {
            Ok(())
        } else {
            Err(NnError::InputShape {
                expected: self.input_dims.clone(),
                actual: dims.dims().to_vec(),
            })
        }
    }

    pub(crate) fn eval_node_with(
        &self,
        id: NodeId,
        vals: &NodeValues<'_>,
        opts: &mut ForwardOptions<'_>,
    ) -> Result<Tensor, NnError> {
        use crate::NodeOp;
        if opts.policy == KernelPolicy::Naive {
            return self.eval_node_naive(id, vals);
        }
        let node = &self.nodes[id];
        let param = |p: ParamId| &self.store.get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let x = |i: usize| vals.get(node.inputs[i]);
        let out = match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, bias, cfg } => {
                let w = param(*weight);
                let b = bias.map(&param);
                match opts.lowered {
                    Some((n, low)) if n == id => {
                        ops::conv2d_from_lowered(low, w, b, opts.arena.as_deref_mut())
                            .map_err(wrap)?
                    }
                    _ => match opts.arena.as_deref_mut() {
                        Some(a) => ops::conv2d_with(x(0), w, b, *cfg, a).map_err(wrap)?,
                        None => ops::conv2d(x(0), w, b, *cfg).map_err(wrap)?,
                    },
                }
            }
            NodeOp::BatchNorm { gamma, beta, mean, var, eps } => {
                let params = BatchNormParams {
                    gamma: param(*gamma),
                    beta: param(*beta),
                    mean: param(*mean),
                    var: param(*var),
                    eps: *eps,
                };
                match opts.arena.as_deref_mut() {
                    Some(a) => ops::batch_norm_with(x(0), &params, a).map_err(wrap)?,
                    None => ops::batch_norm(x(0), &params).map_err(wrap)?,
                }
            }
            NodeOp::Relu => match opts.arena.as_deref_mut() {
                Some(a) => ops::relu_with(x(0), a),
                None => ops::relu(x(0)),
            },
            NodeOp::Relu6 => match opts.arena.as_deref_mut() {
                Some(a) => ops::relu6_with(x(0), a),
                None => ops::relu6(x(0)),
            },
            NodeOp::AvgPool { kernel } => ops::avg_pool2d(x(0), *kernel).map_err(wrap)?,
            NodeOp::MaxPool { kernel } => ops::max_pool2d(x(0), *kernel).map_err(wrap)?,
            NodeOp::GlobalAvgPool => ops::global_avg_pool(x(0)).map_err(wrap)?,
            NodeOp::Linear { weight, bias } => {
                let xv = x(0);
                let reshaped;
                let x2 = if xv.shape().rank() == 2 {
                    xv
                } else {
                    let n = xv.shape().dims()[0];
                    let rest = xv.len() / n;
                    reshaped = xv.reshape([n, rest]).map_err(wrap)?;
                    &reshaped
                };
                ops::linear(x2, param(*weight), bias.map(&param)).map_err(wrap)?
            }
            NodeOp::Add => match opts.arena.as_deref_mut() {
                Some(a) => ops::add_with(x(0), x(1), a).map_err(wrap)?,
                None => ops::add(x(0), x(1)).map_err(wrap)?,
            },
            NodeOp::DownsamplePad { out_channels, stride } => {
                ops::downsample_pad_channels(x(0), *out_channels, *stride).map_err(wrap)?
            }
        };
        Ok(out)
    }

    /// The historical evaluation path: clones every node input and uses the
    /// naive GEMM — the faithful pre-optimization cost model behind
    /// [`KernelPolicy::Naive`]. Bit-identical to the fast path.
    fn eval_node_naive(&self, id: NodeId, vals: &NodeValues<'_>) -> Result<Tensor, NnError> {
        use crate::NodeOp;
        let node = &self.nodes[id];
        let param = |p: ParamId| &self.store.get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let value_of = |i: NodeId| vals.get(i).clone();
        let out = match &node.op {
            NodeOp::Input => unreachable!("input node is never re-evaluated"),
            NodeOp::Conv { weight, bias, cfg } => {
                let x = value_of(node.inputs[0]);
                ops::conv2d_kernel(&x, param(*weight), bias.map(&param), *cfg, GemmKernel::Naive)
                    .map_err(wrap)?
            }
            NodeOp::BatchNorm { gamma, beta, mean, var, eps } => {
                let x = value_of(node.inputs[0]);
                let params = BatchNormParams {
                    gamma: param(*gamma),
                    beta: param(*beta),
                    mean: param(*mean),
                    var: param(*var),
                    eps: *eps,
                };
                ops::batch_norm(&x, &params).map_err(wrap)?
            }
            NodeOp::Relu => ops::relu(&value_of(node.inputs[0])),
            NodeOp::Relu6 => ops::relu6(&value_of(node.inputs[0])),
            NodeOp::AvgPool { kernel } => {
                ops::avg_pool2d(&value_of(node.inputs[0]), *kernel).map_err(wrap)?
            }
            NodeOp::MaxPool { kernel } => {
                ops::max_pool2d(&value_of(node.inputs[0]), *kernel).map_err(wrap)?
            }
            NodeOp::GlobalAvgPool => {
                ops::global_avg_pool(&value_of(node.inputs[0])).map_err(wrap)?
            }
            NodeOp::Linear { weight, bias } => {
                let x = value_of(node.inputs[0]);
                let x2 = if x.shape().rank() == 2 {
                    x
                } else {
                    let n = x.shape().dims()[0];
                    let rest = x.len() / n;
                    x.reshape([n, rest]).map_err(wrap)?
                };
                ops::linear(&x2, param(*weight), bias.map(&param)).map_err(wrap)?
            }
            NodeOp::Add => {
                let a = value_of(node.inputs[0]);
                let b = value_of(node.inputs[1]);
                ops::add(&a, &b).map_err(wrap)?
            }
            NodeOp::DownsamplePad { out_channels, stride } => {
                ops::downsample_pad_channels(&value_of(node.inputs[0]), *out_channels, *stride)
                    .map_err(wrap)?
            }
        };
        Ok(out)
    }

    /// Runs inference, returning the logits of the final node. The input is
    /// the one-tensor prefix of the same suffix loop [`Model::forward_from`]
    /// runs, so the two are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] for a mismatched input, or the first
    /// operator failure.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        self.check_input(input)?;
        let prefix = std::slice::from_ref(input);
        match self.suffix_pass(prefix, 1, &[], &mut ForwardOptions::default())? {
            ForwardOutcome::Logits(l) => Ok(l),
            ForwardOutcome::Converged { .. } => unreachable!("the pass does not converge"),
        }
    }

    /// Runs inference and returns every node's activation, for later
    /// incremental re-execution with [`Model::forward_from`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::forward`].
    pub fn forward_cached(&self, input: &Tensor) -> Result<ActivationCache, NnError> {
        self.check_input(input)?;
        let mut values: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        values.push(input.clone());
        for id in 1..self.nodes.len() {
            let v = self.eval_node_with(
                id,
                &NodeValues { prefix: &values, over: &[], suffix_base: usize::MAX, suffix: &[] },
                &mut ForwardOptions::default(),
            )?;
            values.push(v);
        }
        Ok(ActivationCache { activations: values })
    }

    /// Faulty inference on top of a golden activation cache: the one
    /// primitive behind every dense SFI inference.
    ///
    /// - **Weight faults.** `first_dirty` names the first node whose
    ///   *recomputation* differs — the faulted weight's node. Every node
    ///   before it still holds its `cache` activation (a fault in the
    ///   parameter consumed by node `d` cannot change any activation of a
    ///   node `< d` in a topologically ordered graph), so only the suffix
    ///   is recomputed. `Some(0)` recomputes every node from the cached
    ///   input, bit-identical to [`Model::forward`] on that input. `None`
    ///   means the parameters are golden.
    /// - **Transient faults.** Each [`ActPatch`] corrupts one element of
    ///   one node's activation *as produced during this inference*: a
    ///   patch on a node before the recomputation start overrides its
    ///   golden value; a patch on a recomputed node applies right after
    ///   that node is evaluated (on top of an injected weight fault, if
    ///   any). A patch on node 0 strikes the input image.
    ///
    /// Recomputation starts at `min(first_dirty, earliest patch + 1)`,
    /// clamped to at least 1; a start past the last node returns the
    /// golden logits (or the patched last node). `opts.lowered` feeds
    /// cached im2col panels to one conv node, and
    /// [`ForwardOptions::converge`] and [`ForwardOptions::dirty_unit`] arm
    /// the golden-convergence early exit and its single-unit probe. All
    /// three are read only when `patches` is empty: a patched value
    /// invalidates panels lowered from golden inputs.
    ///
    /// # Convergence
    ///
    /// A converging pass compares each recomputed activation against the
    /// cached golden one bit for bit (NaN payloads and signed zeros
    /// included; the compare stops at the first difference). It returns
    /// [`ForwardOutcome::Converged`] once a node matches while no dirty
    /// value can still be read downstream — the live-dirty rule, which
    /// keeps skip connections sound. When `dirty_unit` names the one output
    /// unit the fault can reach, the first dirty node is decided by a
    /// single-unit probe: one GEMM row instead of the full layer. On
    /// divergence its activation is a golden clone with that unit
    /// overwritten, bit-identical to full re-evaluation because no other
    /// unit depends on the faulted weight row. Every intermediate tensor is
    /// recycled into `opts.arena`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when the cache does not cover this
    /// model's node count or a patch names a node or element out of range,
    /// or the first operator failure.
    pub fn forward_from(
        &self,
        first_dirty: Option<NodeId>,
        cache: &ActivationCache,
        patches: &[ActPatch],
        opts: &mut ForwardOptions<'_>,
    ) -> Result<ForwardOutcome, NnError> {
        let n_nodes = self.nodes.len();
        if cache.activations.len() != n_nodes {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "cache holds {} activations, model has {n_nodes} nodes",
                    cache.activations.len()
                ),
            });
        }
        for p in patches {
            let Some(golden) = cache.activations.get(p.node) else {
                return Err(NnError::CacheMismatch {
                    reason: format!("patch names node {}, model has {n_nodes} nodes", p.node),
                });
            };
            if p.element >= golden.len() {
                return Err(NnError::CacheMismatch {
                    reason: format!(
                        "patch element {} out of range for node {} ({} elements)",
                        p.element,
                        p.node,
                        golden.len()
                    ),
                });
            }
        }
        // A patched node is not recomputed — the corruption strikes its
        // produced value — so a patch dirties the node after it.
        let first_patched = patches.iter().map(|p| p.node + 1).min();
        let Some(start) = first_dirty.into_iter().chain(first_patched).min() else {
            return Ok(ForwardOutcome::Logits(cache.activations[n_nodes - 1].clone()));
        };
        let lowered = if patches.is_empty() { opts.lowered } else { opts.lowered.take() };
        let out = self.suffix_pass(&cache.activations, start.max(1), patches, opts);
        opts.lowered = lowered;
        out
    }

    /// The one dense suffix loop: recomputes nodes `start..` on top of
    /// `prefix` (the values of every node before `start`), applying
    /// `patches` as [`Model::forward_from`] documents, and checks
    /// convergence when `opts.converge` is set and `patches` is empty.
    fn suffix_pass(
        &self,
        prefix: &[Tensor],
        start: NodeId,
        patches: &[ActPatch],
        opts: &mut ForwardOptions<'_>,
    ) -> Result<ForwardOutcome, NnError> {
        let n_nodes = self.nodes.len();
        // Patched golden activations of nodes before the recomputation
        // start; patches at or past it apply to recomputed values below.
        let mut over: Vec<(NodeId, Tensor)> = Vec::new();
        for p in patches.iter().filter(|p| p.node < start) {
            let i = match over.iter().position(|(n, _)| *n == p.node) {
                Some(i) => i,
                None => {
                    over.push((p.node, prefix[p.node].clone()));
                    over.len() - 1
                }
            };
            let s = over[i].1.as_mut_slice();
            s[p.element] = p.apply(s[p.element]);
        }
        if start >= n_nodes {
            // Nothing to recompute: the (possibly patched) last node is
            // the output.
            let last = over.into_iter().find(|(n, _)| *n == n_nodes - 1);
            return Ok(ForwardOutcome::Logits(match last {
                Some((_, t)) => t,
                None => prefix[n_nodes - 1].clone(),
            }));
        }
        let converge = opts.converge && patches.is_empty();
        let mut live = converge.then(|| LiveDirty::new(&self.nodes, start));
        let mut fresh: Vec<Tensor> = Vec::with_capacity(n_nodes - start);
        if let (Some(live), Some(unit)) = (live.as_mut(), opts.dirty_unit) {
            match self.probe_dirty_unit(start, prefix, unit, opts)? {
                ProbeOutcome::Unsupported => {}
                ProbeOutcome::Clean => return Ok(ForwardOutcome::Converged { at_node: start }),
                ProbeOutcome::Dirty(t) => {
                    live.dirty(start);
                    fresh.push(t);
                }
            }
        }
        for id in start + fresh.len()..n_nodes {
            let vals = NodeValues { prefix, over: &over, suffix_base: start, suffix: &fresh };
            let mut v = self.eval_node_with(id, &vals, opts)?;
            for p in patches.iter().filter(|p| p.node == id) {
                let s = v.as_mut_slice();
                s[p.element] = p.apply(s[p.element]);
            }
            if let Some(live) = live.as_mut() {
                live.consumed(id);
                if !v.bits_equal(&prefix[id]) {
                    live.dirty(id);
                } else if live.clear() {
                    recycle(std::iter::once(v).chain(fresh), opts);
                    return Ok(ForwardOutcome::Converged { at_node: id });
                }
            }
            fresh.push(v);
        }
        let out = fresh.pop().expect("suffix is nonempty");
        recycle(fresh, opts);
        Ok(ForwardOutcome::Logits(out))
    }

    /// Evaluates only output unit `unit` of node `id` and compares it
    /// against the golden activation: `Clean` means the unit — and hence
    /// the whole node, since the fault reaches no other unit — recomputed
    /// to golden bits; `Dirty` carries the node's full activation (a golden
    /// clone with the probed unit overwritten, bit-identical to a full
    /// re-evaluation). A depthwise conv computes the one channel from its
    /// golden input plane; any other conv needs the cached lowering of its
    /// input. `Unsupported` asks the caller to fall back to full
    /// evaluation: the op has no single-unit kernel, a lowering conv has
    /// no cached lowering, or the naive cost-model policy is active.
    fn probe_dirty_unit(
        &self,
        id: NodeId,
        prefix: &[Tensor],
        unit: usize,
        opts: &mut ForwardOptions<'_>,
    ) -> Result<ProbeOutcome, NnError> {
        use crate::NodeOp;
        if opts.policy == KernelPolicy::Naive {
            return Ok(ProbeOutcome::Unsupported);
        }
        let node = &self.nodes[id];
        let param = |p: ParamId| &self.store.get(p).expect("validated at construction").tensor;
        let wrap = |source| NnError::Op { node: id, source };
        let golden = &prefix[id];
        let vals: Vec<f32> = match &node.op {
            NodeOp::Conv { weight, bias, cfg } => {
                let w = param(*weight);
                let x = &prefix[node.inputs[0]];
                if unit >= w.shape().n() {
                    return Ok(ProbeOutcome::Unsupported);
                }
                if !ops::conv2d_uses_lowering(x, w, *cfg) {
                    // Depthwise: channel `unit` reads only its own golden
                    // input plane, so it needs no lowering.
                    ops::conv2d_channel_depthwise(
                        x,
                        w,
                        bias.map(&param),
                        *cfg,
                        unit,
                        opts.arena.as_deref_mut(),
                    )
                    .map_err(wrap)?
                } else {
                    let Some((_, low)) = opts.lowered.filter(|&(ln, _)| ln == id) else {
                        return Ok(ProbeOutcome::Unsupported);
                    };
                    ops::conv2d_channel_from_lowered(
                        low,
                        w,
                        bias.map(&param),
                        unit,
                        opts.arena.as_deref_mut(),
                    )
                    .map_err(wrap)?
                }
            }
            NodeOp::Linear { weight, bias } => {
                let xv = &prefix[node.inputs[0]];
                let reshaped;
                let x2 = if xv.shape().rank() == 2 {
                    xv
                } else {
                    let n = xv.shape().dims()[0];
                    let rest = xv.len() / n;
                    reshaped = xv.reshape([n, rest]).map_err(wrap)?;
                    &reshaped
                };
                let w = param(*weight);
                if unit >= w.shape().dims()[0] {
                    return Ok(ProbeOutcome::Unsupported);
                }
                ops::linear_row(x2, w, bias.map(&param), unit).map_err(wrap)?
            }
            _ => return Ok(ProbeOutcome::Unsupported),
        };
        // Unit `unit` occupies `chunk` contiguous elements per image in the
        // golden layout ([batch, units, ...]); `vals` holds the same
        // elements back to back, one image after another.
        let shape = golden.shape();
        let dims = shape.dims();
        let (batch, units) = (dims[0], dims[1]);
        let chunk: usize = dims[2..].iter().product();
        let g = golden.as_slice();
        let clean = (0..batch).all(|n| {
            let gs = &g[(n * units + unit) * chunk..][..chunk];
            let vs = &vals[n * chunk..][..chunk];
            gs.iter().zip(vs).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if clean {
            if let Some(a) = opts.arena.as_deref_mut() {
                a.recycle(vals);
            }
            return Ok(ProbeOutcome::Clean);
        }
        let mut data = match opts.arena.as_deref_mut() {
            Some(a) => a.take(g.len()),
            None => vec![0.0f32; g.len()],
        };
        data.copy_from_slice(g);
        for n in 0..batch {
            data[(n * units + unit) * chunk..][..chunk]
                .copy_from_slice(&vals[n * chunk..][..chunk]);
        }
        if let Some(a) = opts.arena.as_deref_mut() {
            a.recycle(vals);
        }
        let t = Tensor::from_vec(shape, data)
            .expect("materialized activation matches the golden shape");
        Ok(ProbeOutcome::Dirty(t))
    }

    /// A human-readable summary: one line per weight layer with its name,
    /// shape, and parameter count, plus totals.
    ///
    /// # Example
    ///
    /// ```
    /// use sfi_nn::resnet::ResNetConfig;
    ///
    /// # fn main() -> Result<(), sfi_nn::NnError> {
    /// let model = ResNetConfig::resnet20().build()?;
    /// let summary = model.summary();
    /// assert!(summary.contains("resnet20"));
    /// assert!(summary.contains("268336 weights"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} ({} nodes)", self.name, self.nodes.len());
        for layer in self.weight_layers() {
            let param = self.store.get(layer.param).expect("layer param exists");
            let _ = writeln!(
                out,
                "  L{:<3} {:<28} {:<16} {:>9}",
                layer.layer,
                layer.name,
                param.tensor.shape().to_string(),
                layer.len
            );
        }
        let _ = writeln!(
            out,
            "  total: {} weights across {} layers ({} parameters incl. aux)",
            self.store.total_weights(),
            self.weight_layers().len(),
            self.store.iter().map(|p| p.tensor.len()).sum::<usize>()
        );
        out
    }

    /// Per-weight-layer summary statistics of the golden weights:
    /// `(layer, mean, std, min, max)` — the inputs a reliability engineer
    /// inspects before trusting the data-aware prior.
    pub fn weight_stats(&self) -> Vec<LayerStats> {
        self.weight_layers()
            .iter()
            .map(|l| {
                let w = self.store.get(l.param).expect("layer param exists").tensor.as_slice();
                let n = w.len() as f64;
                let mean = w.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
                let var = w.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n;
                LayerStats {
                    layer: l.layer,
                    mean,
                    std: var.sqrt(),
                    min: w.iter().copied().fold(f32::INFINITY, f32::min),
                    max: w.iter().copied().fold(f32::NEG_INFINITY, f32::max),
                }
            })
            .collect()
    }

    /// Top-1 class indices for a batch of inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::forward`].
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.forward(input)?;
        let batch = logits.shape().dims()[0];
        let classes = logits.shape().dims()[1];
        let data = logits.as_slice();
        Ok((0..batch)
            .map(|b| {
                let row = &data[b * classes..(b + 1) * classes];
                argmax_slice(row)
            })
            .collect())
    }
}

/// Summary statistics of one weight layer's golden values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStats {
    /// The paper's 0-based layer index.
    pub layer: usize,
    /// Mean weight value.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
    /// Minimum weight.
    pub min: f32,
    /// Maximum weight.
    pub max: f32,
}

/// Returns a pass's intermediate tensors to `opts.arena`, if it has one.
fn recycle(tensors: impl IntoIterator<Item = Tensor>, opts: &mut ForwardOptions<'_>) {
    if let Some(arena) = opts.arena.as_deref_mut() {
        for t in tensors {
            arena.recycle(t.into_vec());
        }
    }
}

/// Index of the maximum element, NaN-aware (see [`Tensor::argmax`]).
pub(crate) fn argmax_slice(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_val = f32::NEG_INFINITY;
    let mut seen_finite = false;
    for (i, &v) in row.iter().enumerate() {
        if !v.is_nan() && (v > best_val || !seen_finite) {
            best = i;
            best_val = v;
            seen_finite = true;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeOp, ParamKind};
    use sfi_tensor::ops::Conv2dCfg;

    /// A tiny two-layer model: conv(1->2, 3x3) -> relu -> gap -> linear.
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

    fn tiny_input() -> Tensor {
        Tensor::from_fn([1, 1, 4, 4], |i| (i as f32).sin())
    }

    /// A non-converging [`Model::forward_from`] from `first_dirty` with no
    /// patches, unwrapped to its logits.
    fn rerun(m: &Model, first_dirty: NodeId, cache: &ActivationCache) -> Tensor {
        let out = m.forward_from(Some(first_dirty), cache, &[], &mut ForwardOptions::default());
        out.unwrap().into_logits(cache)
    }

    /// A patched [`Model::forward_from`] with default options, unwrapped.
    fn patched(m: &Model, cache: &ActivationCache, patches: &[ActPatch]) -> Tensor {
        let out = m.forward_from(None, cache, patches, &mut ForwardOptions::default());
        out.unwrap().into_logits(cache)
    }

    /// A converging [`Model::forward_from`] from `first_dirty`.
    fn converging(m: &Model, first_dirty: NodeId, cache: &ActivationCache) -> ForwardOutcome {
        let opts = &mut ForwardOptions { converge: true, ..Default::default() };
        m.forward_from(Some(first_dirty), cache, &[], opts).unwrap()
    }

    /// A patch that overwrites one element with `v`.
    fn set(node: NodeId, element: usize, v: f32) -> ActPatch {
        ActPatch { and_mask: 0, or_mask: v.to_bits(), ..ActPatch::identity(node, element) }
    }

    /// The patch oracle: a `forward_cached`-style walk over every node of
    /// `m` from `input`, applying each patch to its node's value as soon as
    /// that value is produced — the semantics `forward_from` promises,
    /// without its suffix start, prefix reuse or override list.
    fn patched_oracle(m: &Model, input: &Tensor, patches: &[ActPatch]) -> Tensor {
        let mut values: Vec<Tensor> = Vec::new();
        for id in 0..m.nodes().len() {
            let mut v = if id == 0 {
                input.clone()
            } else {
                let vals =
                    NodeValues { prefix: &values, over: &[], suffix_base: usize::MAX, suffix: &[] };
                m.eval_node_with(id, &vals, &mut ForwardOptions::default()).unwrap()
            };
            for p in patches.iter().filter(|p| p.node == id) {
                let s = v.as_mut_slice();
                s[p.element] = p.apply(s[p.element]);
            }
            values.push(v);
        }
        values.pop().unwrap()
    }

    #[test]
    fn forward_produces_logits() {
        let m = tiny_model();
        let out = m.forward(&tiny_input()).unwrap();
        assert_eq!(out.shape().dims(), &[1, 3]);
        assert!(out.iter().all(f32::is_finite));
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let m = tiny_model();
        assert!(matches!(m.forward(&Tensor::zeros([1, 2, 4, 4])), Err(NnError::InputShape { .. })));
        assert!(m.forward(&Tensor::zeros([1, 4, 4])).is_err());
    }

    #[test]
    fn cached_forward_matches_plain() {
        let m = tiny_model();
        let input = tiny_input();
        let plain = m.forward(&input).unwrap();
        let cache = m.forward_cached(&input).unwrap();
        let last = cache.get(cache.len() - 1).unwrap();
        assert_eq!(plain, *last);
    }

    #[test]
    fn forward_from_zero_matches_full() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        let out = rerun(&m, 0, &cache);
        assert_eq!(out, m.forward(&input).unwrap());
    }

    #[test]
    fn forward_from_detects_weight_change() {
        let mut m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        let golden = m.forward(&input).unwrap();
        // Corrupt the fc weight; only node 4 is dirty.
        let fc = m.node_of_param(1).unwrap();
        assert_eq!(fc, 4);
        m.store_mut().get_mut(1).unwrap().tensor.as_mut_slice()[0] += 100.0;
        let faulty = rerun(&m, fc, &cache);
        assert!(golden.max_abs_diff(&faulty).unwrap() > 1.0);
        // And the cached prefix is genuinely reused: recompute-from-conv
        // gives the same answer.
        let full = m.forward(&input).unwrap();
        assert!(full.max_abs_diff(&faulty).unwrap() < 1e-6);
    }

    #[test]
    fn forward_from_past_end_returns_cached_output() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let out = rerun(&m, 999, &cache);
        assert_eq!(out, *cache.get(cache.len() - 1).unwrap());
    }

    #[test]
    fn forward_from_rejects_foreign_cache() {
        let m = tiny_model();
        let cache = ActivationCache { activations: vec![Tensor::zeros([1])] };
        let opts = &mut ForwardOptions::default();
        assert!(matches!(
            m.forward_from(Some(1), &cache, &[], opts),
            Err(NnError::CacheMismatch { .. })
        ));
    }

    #[test]
    fn graph_validation_rejects_forward_references() {
        let store = ParameterStore::new();
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Relu, 1), // self-reference
        ];
        assert!(Model::new("bad", nodes, store, vec![1, 2, 2]).is_err());
    }

    #[test]
    fn graph_validation_rejects_missing_input_node() {
        let store = ParameterStore::new();
        let nodes = vec![Node::unary(NodeOp::Relu, 0)];
        assert!(Model::new("bad", nodes, store, vec![1]).is_err());
    }

    #[test]
    fn graph_validation_rejects_bad_arity() {
        let store = ParameterStore::new();
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node { op: NodeOp::Add, inputs: vec![0] },
        ];
        assert!(Model::new("bad", nodes, store, vec![1]).is_err());
    }

    #[test]
    fn graph_validation_rejects_unknown_param() {
        let store = ParameterStore::new();
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Linear { weight: 5, bias: None }, 0),
        ];
        assert!(matches!(
            Model::new("bad", nodes, store, vec![1]),
            Err(NnError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn predict_returns_argmax_per_image() {
        let m = tiny_model();
        let batch = Tensor::from_fn([2, 1, 4, 4], |i| ((i * 7) % 11) as f32 * 0.1);
        let preds = m.predict(&batch).unwrap();
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn argmax_slice_nan_aware() {
        assert_eq!(argmax_slice(&[f32::NAN, 2.0, 1.0]), 1);
        assert_eq!(argmax_slice(&[f32::NAN, f32::NAN]), 0);
        assert_eq!(argmax_slice(&[1.0, 3.0, 3.0]), 1);
    }

    #[test]
    fn forward_patched_identity_matches_cached_output() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let out = patched(&m, &cache, &[ActPatch::identity(2, 0)]);
        assert_eq!(out, *cache.get(cache.len() - 1).unwrap());
    }

    #[test]
    fn forward_patched_at_input_matches_full_forward() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        // Patch the input: zero one pixel; compare against a plain forward
        // on the same modified image.
        let mut modified = input.clone();
        modified.as_mut_slice()[5] = 0.0;
        let out = patched(&m, &cache, &[set(0, 5, 0.0)]);
        let direct = m.forward(&modified).unwrap();
        assert!(out.max_abs_diff(&direct).unwrap() < 1e-6);
    }

    #[test]
    fn forward_patched_at_last_node_returns_patched_logits() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let last = m.nodes().len() - 1;
        let out = patched(&m, &cache, &[set(last, 0, 99.0)]);
        assert_eq!(out.as_slice()[0], 99.0);
    }

    #[test]
    fn forward_patched_propagates_corruption() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let golden = cache.get(cache.len() - 1).unwrap().clone();
        let shift: Vec<ActPatch> =
            (cache.get(1).unwrap().iter().enumerate()).map(|(e, v)| set(1, e, v + 10.0)).collect();
        let corrupted = patched(&m, &cache, &shift);
        assert!(golden.max_abs_diff(&corrupted).unwrap() > 0.1);
    }

    #[test]
    fn forward_patched_rejects_bad_node_and_cache() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let opts = &mut ForwardOptions::default();
        assert!(m.forward_from(None, &cache, &[ActPatch::identity(99, 0)], opts).is_err());
        let foreign = ActivationCache { activations: vec![Tensor::zeros([1])] };
        assert!(m.forward_from(None, &foreign, &[ActPatch::identity(1, 0)], opts).is_err());
    }

    #[test]
    fn forward_from_patched_matches_sequential_patches() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        // Two activation strikes on different nodes: the accumulated path
        // must match patching the input and node-2 value by hand.
        let p0 = ActPatch { xor_mask: 1 << 30, ..ActPatch::identity(0, 3) };
        let p2 = ActPatch { or_mask: 1 << 31, ..ActPatch::identity(2, 5) };
        let out = patched(&m, &cache, &[p0, p2]);
        // Reference: the cache of the patched input, then node 2's patch
        // as an override of that cache's prefix.
        let mut modified = input.clone();
        let s = modified.as_mut_slice();
        s[3] = p0.apply(s[3]);
        let faulty_cache = m.forward_cached(&modified).unwrap();
        let direct = patched(&m, &faulty_cache, &[p2]);
        assert!(out.bits_equal(&patched_oracle(&m, &input, &[p0, p2])), "patch oracle");
        assert!(
            out.as_slice().iter().zip(direct.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "accumulated patches diverge from sequential application"
        );
    }

    #[test]
    fn forward_from_patched_without_faults_returns_golden() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let out = patched(&m, &cache, &[]);
        assert!(out.bits_equal(cache.get(cache.len() - 1).unwrap()));
    }

    #[test]
    fn forward_from_single_patch_matches_the_patch_oracle() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        for node in 0..cache.len() {
            let patch = ActPatch { xor_mask: 1 << 22, ..ActPatch::identity(node, 1) };
            let oracle = patched_oracle(&m, &input, &[patch]);
            // On the golden prefix (override) and on a recomputed node
            // (applied after evaluation) alike.
            let over = patched(&m, &cache, &[patch]);
            assert!(over.bits_equal(&oracle), "node {node}: prefix patch diverges");
            let opts = &mut ForwardOptions::default();
            let recomputed = m.forward_from(Some(0), &cache, &[patch], opts).unwrap();
            let recomputed = recomputed.into_logits(&cache);
            assert!(recomputed.bits_equal(&oracle), "node {node}: recomputed patch diverges");
        }
    }

    #[test]
    fn forward_from_patched_rejects_bad_sites() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let bad_node = ActPatch::identity(99, 0);
        let opts = &mut ForwardOptions::default();
        assert!(matches!(
            m.forward_from(None, &cache, &[bad_node], opts),
            Err(NnError::CacheMismatch { .. })
        ));
        let bad_elem = ActPatch::identity(1, usize::MAX);
        assert!(matches!(
            m.forward_from(Some(1), &cache, &[bad_elem], opts),
            Err(NnError::CacheMismatch { .. })
        ));
    }

    #[test]
    fn summary_lists_every_weight_layer() {
        let m = tiny_model();
        let s = m.summary();
        assert!(s.contains("tiny"));
        assert!(s.contains("conv.weight"));
        assert!(s.contains("fc.weight"));
        assert!(s.contains("total: 24 weights across 2 layers"));
    }

    #[test]
    fn weight_stats_are_consistent() {
        let m = tiny_model();
        let stats = m.weight_stats();
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert!(s.min <= s.max);
            assert!(f64::from(s.min) <= s.mean && s.mean <= f64::from(s.max));
            assert!(s.std >= 0.0);
        }
        // conv weights are the ramp (i - 9) * 0.1 over i in 0..18: mean -0.05.
        assert!((stats[0].mean - (-0.05)).abs() < 1e-6, "mean {}", stats[0].mean);
    }

    #[test]
    fn cache_memory_accounting() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        // input 16 + conv out 32 + relu 32 + gap 2 + fc 3 = 85 floats
        assert_eq!(cache.memory_bytes(), 85 * 4);
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes");
        let same = a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: values diverge");
    }

    #[test]
    fn forward_policies_and_arena_are_bit_identical() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        let fast = m.forward(&input).unwrap();
        let naive_opts = &mut ForwardOptions { policy: KernelPolicy::Naive, ..Default::default() };
        let naive = m.forward_from(Some(0), &cache, &[], naive_opts).unwrap().into_logits(&cache);
        assert_bits_equal(&fast, &naive, "fast vs naive");
        let mut arena = ScratchArena::new();
        for _ in 0..3 {
            let opts = &mut ForwardOptions { arena: Some(&mut arena), ..Default::default() };
            let with_arena = m.forward_from(Some(0), &cache, &[], opts).unwrap();
            assert_bits_equal(&fast, &with_arena.into_logits(&cache), "arena round");
        }
        assert!(arena.peak_bytes() > 0, "arena must have been used");
    }

    #[test]
    fn forward_from_with_lowered_panels_matches_plain() {
        let m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        // Node 1 is the conv; lower its golden input (the image itself).
        let crate::NodeOp::Conv { weight, cfg, .. } = m.nodes()[1].op else {
            panic!("node 1 is the conv")
        };
        let w = &m.store().get(weight).unwrap().tensor;
        let lowered = sfi_tensor::ops::im2col_lower(cache.get(0).unwrap(), w, cfg).unwrap();
        let plain = rerun(&m, 1, &cache);
        let mut arena = ScratchArena::new();
        let opts = &mut ForwardOptions {
            arena: Some(&mut arena),
            lowered: Some((1, &lowered)),
            ..Default::default()
        };
        let fast = m.forward_from(Some(1), &cache, &[], opts).unwrap().into_logits(&cache);
        assert_bits_equal(&plain, &fast, "lowered forward_from");
    }

    #[test]
    fn converging_forward_detects_an_unchanged_model() {
        // With no fault injected, the very first recomputed node matches
        // the cache and the pass stops immediately.
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let mut arena = ScratchArena::new();
        let opts =
            &mut ForwardOptions { arena: Some(&mut arena), converge: true, ..Default::default() };
        let out = m.forward_from(Some(1), &cache, &[], opts).unwrap();
        assert_eq!(out, ForwardOutcome::Converged { at_node: 1 });
    }

    #[test]
    fn converging_forward_matches_plain_on_a_diverging_model() {
        let mut m = tiny_model();
        let input = tiny_input();
        let cache = m.forward_cached(&input).unwrap();
        // A large conv-weight change diverges all the way to the logits.
        m.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[0] += 100.0;
        let plain = rerun(&m, 1, &cache);
        let out = converging(&m, 1, &cache);
        match out {
            ForwardOutcome::Logits(l) => assert_bits_equal(&plain, &l, "diverged logits"),
            ForwardOutcome::Converged { at_node } => panic!("spurious convergence at {at_node}"),
        }
    }

    #[test]
    fn converging_forward_detects_relu_annihilation() {
        // tiny_model's conv output channel 1 has non-negative weights
        // ((9..18) - 9) * 0.1; on an all-negative input every channel-1
        // pre-activation is <= 0, so the ReLU clamps the whole channel to
        // zero. Scaling a channel-1 weight keeps the pre-activations
        // non-positive: the conv output *diverges* from the cache, but the
        // ReLU output is bit-identical — the fault is provably masked at
        // node 2 and the rest of the network is never computed.
        let m = tiny_model();
        let input = Tensor::full([1, 1, 4, 4], -1.0);
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        // Weight 13 belongs to output channel 1 and is 0.4; keep it positive.
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        let out = converging(&faulty, 1, &cache);
        assert_eq!(out, ForwardOutcome::Converged { at_node: 2 });
    }

    #[test]
    fn converging_forward_respects_skip_connections() {
        // Same ReLU-annihilation fault as above, but a residual Add reads
        // the *conv* output directly. The ReLU activation matches golden
        // bit-for-bit, yet the still-dirty conv output flows around it —
        // stopping there would misclassify. Live-dirty tracking must keep
        // the pass going and reproduce the non-converging pass exactly.
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
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        // The ReLU output really is golden — a chain-only rule would stop
        // at node 2 — while the conv output it shadows is dirty.
        let refreshed = faulty.forward_cached(&input).unwrap();
        assert!(refreshed.get(2).unwrap().bits_equal(cache.get(2).unwrap()));
        assert!(!refreshed.get(1).unwrap().bits_equal(cache.get(1).unwrap()));
        let plain = rerun(&faulty, 1, &cache);
        let out = converging(&faulty, 1, &cache);
        match out {
            ForwardOutcome::Logits(l) => assert_bits_equal(&plain, &l, "skip logits"),
            ForwardOutcome::Converged { at_node } => {
                panic!("unsound convergence at node {at_node} past a live dirty skip input")
            }
        }
    }

    /// Runs a converging `forward_from` with and without the single-unit
    /// probe armed and asserts the outcomes are indistinguishable.
    fn assert_probe_invisible(
        faulty: &Model,
        first_dirty: NodeId,
        cache: &ActivationCache,
        dirty_unit: usize,
        ctx: &str,
    ) -> ForwardOutcome {
        let input = cache.get(0).unwrap();
        // Campaigns cache lowerings only for convs that lower: a depthwise
        // conv runs its own kernel and probes without panels.
        let lowered = match &faulty.nodes()[first_dirty].op {
            NodeOp::Conv { weight, cfg, .. } => {
                let w = &faulty.store().get(*weight).unwrap().tensor;
                ops::conv2d_uses_lowering(input, w, *cfg)
                    .then(|| ops::im2col_lower(input, w, *cfg).unwrap())
            }
            _ => None,
        };
        let mut arena = ScratchArena::new();
        let probed = faulty
            .forward_from(
                Some(first_dirty),
                cache,
                &[],
                &mut ForwardOptions {
                    arena: Some(&mut arena),
                    lowered: lowered.as_ref().map(|l| (first_dirty, l)),
                    dirty_unit: Some(dirty_unit),
                    converge: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let full = faulty
            .forward_from(
                Some(first_dirty),
                cache,
                &[],
                &mut ForwardOptions {
                    lowered: lowered.as_ref().map(|l| (first_dirty, l)),
                    converge: true,
                    ..Default::default()
                },
            )
            .unwrap();
        match (&probed, &full) {
            (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) => assert_bits_equal(a, b, ctx),
            (a, b) => assert_eq!(a, b, "{ctx}: probe changed the outcome"),
        }
        probed
    }

    #[test]
    fn single_unit_probe_is_invisible_on_diverging_faults() {
        // Conv fault reaching channel 0: diverges to the logits. The probe
        // must materialize the conv activation bit-identically (golden
        // clone + one recomputed channel) so the downstream suffix — and
        // the returned logits — match the unprobed pass exactly.
        let input = tiny_input();
        let m = tiny_model();
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[0] += 100.0;
        let out = assert_probe_invisible(&faulty, 1, &cache, 0, "conv channel 0");
        assert!(matches!(out, ForwardOutcome::Logits(_)));

        // Non-finite faulted weight: NaN bits must flow through the probed
        // row exactly as through the full kernel.
        let mut nan_faulty = m.clone();
        nan_faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[3] = f32::NAN;
        assert_probe_invisible(&nan_faulty, 1, &cache, 0, "conv channel 0 NaN");

        // Linear fault (last node): the probe's materialized activation IS
        // the returned logits.
        let fc = m.node_of_param(1).unwrap();
        let mut fc_faulty = m.clone();
        fc_faulty.store_mut().get_mut(1).unwrap().tensor.as_mut_slice()[5] += 7.0;
        let unit = fc_faulty.param_output_unit(1, 5).unwrap();
        let out = assert_probe_invisible(&fc_faulty, fc, &cache, unit, "fc row");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
    }

    #[test]
    fn single_unit_probe_converges_on_a_masked_channel() {
        // All-zero input: every conv product is 0.0 * w, so any *finite*
        // weight change leaves the output channel bit-identical — the
        // probe alone proves convergence at the conv node without
        // computing the other channel.
        let m = tiny_model();
        let input = Tensor::zeros([1, 1, 4, 4]);
        let cache = m.forward_cached(&input).unwrap();
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        let out = assert_probe_invisible(&faulty, 1, &cache, 1, "masked conv channel");
        assert_eq!(out, ForwardOutcome::Converged { at_node: 1 });
    }

    #[test]
    fn single_unit_probe_respects_skip_connections() {
        // The skip-connection trap from converging_forward_respects_skip_
        // connections, probed: the faulted channel diverges at the conv,
        // the following ReLU matches golden, and the residual Add still
        // reads the dirty conv — the probed pass must keep going exactly
        // like the full one.
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
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[13] *= 1.5;
        let out = assert_probe_invisible(&faulty, 1, &cache, 1, "skip with probe");
        assert!(matches!(out, ForwardOutcome::Logits(_)));
    }

    /// Input -> depthwise conv (2 channels, stride 2) -> ReLU -> GAP -> fc.
    fn depthwise_model() -> Model {
        let mut store = ParameterStore::new();
        let w0 = store.push(
            "dw.weight",
            ParamKind::Weight { layer: 0 },
            Tensor::from_fn([2, 1, 3, 3], |i| (i as f32 - 8.0) * 0.15),
        );
        let w1 = store.push(
            "fc.weight",
            ParamKind::Weight { layer: 1 },
            Tensor::from_fn([3, 2], |i| (i as f32 - 3.0) * 0.5),
        );
        let cfg = Conv2dCfg::same(2).with_groups(2);
        let nodes = vec![
            Node { op: NodeOp::Input, inputs: vec![] },
            Node::unary(NodeOp::Conv { weight: w0, bias: None, cfg }, 0),
            Node::unary(NodeOp::Relu, 1),
            Node::unary(NodeOp::GlobalAvgPool, 2),
            Node::unary(NodeOp::Linear { weight: w1, bias: None }, 3),
        ];
        Model::new("dw", nodes, store, vec![2, 5, 5]).unwrap()
    }

    #[test]
    fn depthwise_probe_is_invisible() {
        let m = depthwise_model();
        let input = Tensor::from_fn([1, 2, 5, 5], |i| ((i * 7) % 11) as f32 * 0.2 - 0.9);
        let cache = m.forward_cached(&input).unwrap();
        // A diverging fault, and NaN / Inf on the corner tap that padded
        // border pixels skip, in each channel.
        for channel in 0..2 {
            for (tap, v) in [(4, 9.0), (0, f32::NAN), (8, f32::INFINITY)] {
                let mut faulty = m.clone();
                let slot = &mut faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()
                    [channel * 9 + tap];
                *slot = if v == 9.0 { *slot + v } else { v };
                let ctx = format!("depthwise channel {channel} tap {tap} = {v}");
                let out = assert_probe_invisible(&faulty, 1, &cache, channel, &ctx);
                assert!(matches!(out, ForwardOutcome::Logits(_)), "{ctx}");
            }
        }
    }

    #[test]
    fn depthwise_probe_computes_only_the_named_channel() {
        // A change in channel 1 while the probe is told channel 0: the
        // one-channel probe never evaluates channel 1, so it declares the
        // node golden at once, while a full re-evaluation sees channel 1
        // differ.
        let m = depthwise_model();
        let input = Tensor::from_fn([1, 2, 5, 5], |i| ((i * 7) % 11) as f32 * 0.2 - 0.9);
        let cache = m.forward_cached(&input).unwrap();
        let mut changed = m.clone();
        changed.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[9 + 4] += 1.0;
        let run = |dirty_unit| {
            let opts = &mut ForwardOptions { dirty_unit, converge: true, ..Default::default() };
            changed.forward_from(Some(1), &cache, &[], opts).unwrap()
        };
        assert_eq!(run(Some(0)), ForwardOutcome::Converged { at_node: 1 });
        assert_ne!(run(None), ForwardOutcome::Converged { at_node: 1 });
    }

    #[test]
    fn param_output_unit_reads_the_leading_dimension() {
        let m = tiny_model();
        // conv weight [2, 1, 3, 3]: 9 elements per out-channel.
        assert_eq!(m.param_output_unit(0, 8), Some(0));
        assert_eq!(m.param_output_unit(0, 13), Some(1));
        // fc weight [3, 2]: 2 elements per row.
        assert_eq!(m.param_output_unit(1, 5), Some(2));
        // fc bias [3]: unit == index.
        assert_eq!(m.param_output_unit(2, 1), Some(1));
        // Out of range.
        assert_eq!(m.param_output_unit(0, 18), None);
        assert_eq!(m.param_output_unit(99, 0), None);
    }

    #[test]
    fn converging_forward_rejects_foreign_cache() {
        let m = tiny_model();
        let cache = ActivationCache { activations: vec![Tensor::zeros([1])] };
        let opts = &mut ForwardOptions { converge: true, ..Default::default() };
        assert!(matches!(
            m.forward_from(Some(1), &cache, &[], opts),
            Err(NnError::CacheMismatch { .. })
        ));
    }

    #[test]
    fn forward_patched_with_arena_matches_plain() {
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let plain = patched(&m, &cache, &[set(1, 0, 5.0)]);
        let mut arena = ScratchArena::new();
        let opts = &mut ForwardOptions { arena: Some(&mut arena), ..Default::default() };
        let fast = m.forward_from(None, &cache, &[set(1, 0, 5.0)], opts).unwrap();
        assert_bits_equal(&plain, &fast.into_logits(&cache), "patched with arena");
    }

    #[test]
    fn converge_is_ignored_when_patches_are_present() {
        // Patches on top of a diverging weight fault, and on the golden
        // model — where the identity patch recomputes a golden suffix that
        // a converging pass would stop at immediately. Patches disable
        // convergence, so every pass returns logits bit-equal to the
        // non-converging pass.
        let m = tiny_model();
        let cache = m.forward_cached(&tiny_input()).unwrap();
        let mut faulty = m.clone();
        faulty.store_mut().get_mut(0).unwrap().tensor.as_mut_slice()[0] += 100.0;
        for (model, first_dirty) in [(&faulty, Some(1)), (&m, None)] {
            for patch in [set(2, 3, 7.0), ActPatch::identity(1, 0), set(4, 0, 99.0)] {
                let plain = model
                    .forward_from(first_dirty, &cache, &[patch], &mut ForwardOptions::default())
                    .unwrap();
                let probe_unit = Some(0);
                let opts = &mut ForwardOptions {
                    converge: true,
                    dirty_unit: probe_unit,
                    ..Default::default()
                };
                let conv = model.forward_from(first_dirty, &cache, &[patch], opts).unwrap();
                let (ForwardOutcome::Logits(a), ForwardOutcome::Logits(b)) = (&plain, &conv) else {
                    panic!("a patched pass returned {conv:?}");
                };
                assert_bits_equal(a, b, "converge with patches");
            }
        }
    }

    #[test]
    fn forward_from_zero_is_bit_equal_to_forward_on_non_finite_inputs() {
        // NaN (with a payload), ±Inf and -0.0 in the image: recomputing
        // every node from the cached input must reproduce `forward` bit for
        // bit, on a plain chain and across a residual Add.
        let skip = {
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
            Model::new("skip", nodes, store, vec![1, 4, 4]).unwrap()
        };
        let specials =
            [f32::from_bits(0x7fc0_1234), f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::NAN];
        for m in [tiny_model(), skip] {
            for (k, &special) in specials.iter().enumerate() {
                let mut input = Tensor::from_fn([2, 1, 4, 4], |i| (i as f32 * 0.7).cos());
                input.as_mut_slice()[k * 5] = special;
                let cache = m.forward_cached(&input).unwrap();
                let plain = m.forward(&input).unwrap();
                assert_bits_equal(&rerun(&m, 0, &cache), &plain, "forward_from(Some(0))");
                let mut arena = ScratchArena::new();
                let opts = &mut ForwardOptions { arena: Some(&mut arena), ..Default::default() };
                let out = m.forward_from(Some(0), &cache, &[], opts).unwrap();
                assert_bits_equal(&out.into_logits(&cache), &plain, "with arena");
            }
        }
    }
}
