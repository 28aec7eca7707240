use crate::{ScratchArena, Shape, Tensor, TensorError};

use super::gemm::{gemm, gemm_blocked_with};
use super::microkernel::gemm_row;

/// Spatial padding policy for [`conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// Symmetric zero padding of `(kernel - 1) / 2` pixels, preserving the
    /// spatial size for odd kernels at stride 1.
    Same,
    /// Explicit symmetric zero padding in pixels.
    Explicit(usize),
}

/// Configuration of a 2-D convolution: stride, padding, and channel groups.
///
/// # Example
///
/// ```
/// use sfi_tensor::ops::{Conv2dCfg, Padding};
///
/// let cfg = Conv2dCfg::same(1);
/// assert_eq!(cfg.stride, 1);
/// assert_eq!(cfg.padding, Padding::Same);
/// assert_eq!(cfg.groups, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dCfg {
    /// Stride applied in both spatial dimensions.
    pub stride: usize,
    /// Zero-padding policy.
    pub padding: Padding,
    /// Number of channel groups; `groups == in_channels` is a depthwise
    /// convolution.
    pub groups: usize,
}

impl Conv2dCfg {
    /// Stride-`s` convolution with "same" padding and a single group.
    pub fn same(stride: usize) -> Self {
        Self { stride, padding: Padding::Same, groups: 1 }
    }

    /// Stride-`s` convolution with no padding and a single group.
    pub fn valid(stride: usize) -> Self {
        Self { stride, padding: Padding::Explicit(0), groups: 1 }
    }

    /// Returns a copy with the group count replaced.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    fn resolve_padding(&self, kernel: usize) -> usize {
        match self.padding {
            Padding::Same => (kernel - 1) / 2,
            Padding::Explicit(p) => p,
        }
    }
}

/// GEMM kernel selector for the `im2col` convolution path.
///
/// Both kernels are bit-identical (see [`gemm_blocked`](super::gemm_blocked));
/// `Naive` is retained so benches and ablations can measure the historical
/// unblocked path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GemmKernel {
    /// Cache-blocked kernel with a packed B panel (the default).
    #[default]
    Blocked,
    /// Plain m/k/n triple loop — the pre-optimization reference kernel.
    Naive,
}

struct ConvDims {
    batch: usize,
    c_in: usize,
    h_in: usize,
    w_in: usize,
    c_out: usize,
    c_in_per_group: usize,
    k_h: usize,
    k_w: usize,
    pad: usize,
    h_out: usize,
    w_out: usize,
}

impl ConvDims {
    /// Whether [`conv2d`] dispatches this shape to the depthwise kernel
    /// (which never lowers) instead of the `im2col` + GEMM path.
    fn is_depthwise(&self, cfg: Conv2dCfg) -> bool {
        cfg.groups == self.c_in && self.c_out == self.c_in && self.c_in_per_group == 1
    }
}

fn validate(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<ConvDims, TensorError> {
    const OP: &str = "conv2d";
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 4,
            actual: weight.shape().rank(),
        });
    }
    let (batch, c_in, h_in, w_in) =
        (input.shape().n(), input.shape().c(), input.shape().h(), input.shape().w());
    let (c_out, c_w, k_h, k_w) =
        (weight.shape().n(), weight.shape().c(), weight.shape().h(), weight.shape().w());
    if cfg.stride == 0 {
        return Err(TensorError::InvalidConfig { op: OP, reason: "stride must be nonzero".into() });
    }
    if cfg.groups == 0 || c_in % cfg.groups != 0 || c_out % cfg.groups != 0 {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!(
                "groups {} must divide in channels {} and out channels {}",
                cfg.groups, c_in, c_out
            ),
        });
    }
    let c_in_per_group = c_in / cfg.groups;
    if c_w != c_in_per_group {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!(
                "weight expects {c_w} input channels per group, input provides {c_in_per_group}"
            ),
        });
    }
    if k_h == 0 || k_w == 0 {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: "kernel must be nonempty".into(),
        });
    }
    let pad = cfg.resolve_padding(k_h.max(k_w));
    let h_padded = h_in + 2 * pad;
    let w_padded = w_in + 2 * pad;
    if h_padded < k_h || w_padded < k_w {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("kernel {k_h}x{k_w} larger than padded input {h_padded}x{w_padded}"),
        });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[c_out]) {
            return Err(TensorError::ShapeMismatch {
                op: OP,
                lhs: b.shape(),
                rhs: Shape::new(&[c_out]),
            });
        }
    }
    let h_out = (h_padded - k_h) / cfg.stride + 1;
    let w_out = (w_padded - k_w) / cfg.stride + 1;
    Ok(ConvDims { batch, c_in, h_in, w_in, c_out, c_in_per_group, k_h, k_w, pad, h_out, w_out })
}

/// 2-D convolution over an NCHW input.
///
/// `input` is `[N, C_in, H, W]`, `weight` is
/// `[C_out, C_in/groups, K_h, K_w]`, `bias` (when present) is `[C_out]`.
/// The implementation dispatches to a specialised depthwise kernel when
/// `groups == C_in == C_out`, and to the `im2col` + blocked-GEMM path
/// otherwise.
///
/// # Errors
///
/// Returns an error when the operand ranks are not 4, the group count does
/// not divide the channel counts, the bias length differs from `C_out`, the
/// stride is zero, or the kernel exceeds the padded input.
///
/// # Example
///
/// ```
/// use sfi_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), sfi_tensor::TensorError> {
/// let input = Tensor::full([1, 1, 3, 3], 1.0);
/// let weight = Tensor::full([1, 1, 3, 3], 1.0);
/// let out = ops::conv2d(&input, &weight, None, ops::Conv2dCfg::same(1))?;
/// // centre pixel sees all nine ones
/// assert_eq!(out.get([0, 0, 1, 1]), Some(9.0));
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    conv2d_kernel(input, weight, bias, cfg, GemmKernel::Blocked)
}

/// [`conv2d`] with an explicit kernel choice.
///
/// Both kernels produce bit-identical results; `Naive` exists so the
/// pre-optimization path stays measurable (benches, ablation baselines)
/// and serves as an independent oracle. Under `Naive` a depthwise shape
/// runs the scalar [`conv2d_direct`] loop, which shares no code with the
/// vectorised depthwise kernel `Blocked` dispatches to — both skip
/// padded taps and accumulate each element's taps in the same order with
/// the same `input * weight` operands, so they agree bit for bit (see
/// DESIGN §5i).
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_kernel(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    kernel: GemmKernel,
) -> Result<Tensor, TensorError> {
    let dims = validate(input, weight, bias, cfg)?;
    Ok(match (dims.is_depthwise(cfg), kernel) {
        (true, GemmKernel::Blocked) => depthwise_tensor(input, weight, bias, cfg, &dims, None),
        (true, GemmKernel::Naive) => direct(input, weight, bias, cfg, &dims),
        (false, _) => im2col_conv(input, weight, bias, cfg, &dims, kernel, None),
    })
}

/// [`conv2d`] drawing its column, packing, and output buffers from `arena`
/// instead of the allocator — the campaign-worker hot path. Depthwise
/// shapes take their output and their phase-plane and grid scratch from
/// the arena too.
///
/// Bit-identical to [`conv2d`]; only buffer provenance differs.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_with(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    arena: &mut ScratchArena,
) -> Result<Tensor, TensorError> {
    let dims = validate(input, weight, bias, cfg)?;
    if dims.is_depthwise(cfg) {
        Ok(depthwise_tensor(input, weight, bias, cfg, &dims, Some(arena)))
    } else {
        Ok(im2col_conv(input, weight, bias, cfg, &dims, GemmKernel::Blocked, Some(arena)))
    }
}

/// Reference direct (sextuple-loop) convolution.
///
/// The test oracle, the baseline of the `ablation_conv` bench, and the
/// depthwise kernel of [`GemmKernel::Naive`] (the reference path of the
/// campaign benchmark). Padded positions are *skipped* here, as in the
/// vectorised depthwise kernel, which it matches bit for bit on depthwise
/// shapes. The `im2col` path instead multiplies padded positions as
/// explicit zeros — numerically identical for finite weights, but with
/// NaN/Inf weights the two families legitimately differ at padded border
/// pixels (`0.0 * NaN` is NaN).
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    let d = validate(input, weight, bias, cfg)?;
    Ok(direct(input, weight, bias, cfg, &d))
}

fn direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
) -> Tensor {
    let mut out = Tensor::zeros([d.batch, d.c_out, d.h_out, d.w_out]);
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let out_data = out.as_mut_slice();
    let c_out_per_group = d.c_out / cfg.groups;
    for n in 0..d.batch {
        for co in 0..d.c_out {
            let g = co / c_out_per_group;
            let base = bias.map_or(0.0, |b| b.as_slice()[co]);
            for oh in 0..d.h_out {
                for ow in 0..d.w_out {
                    let mut acc = 0.0f32;
                    for ci_g in 0..d.c_in_per_group {
                        let ci = g * d.c_in_per_group + ci_g;
                        for kh in 0..d.k_h {
                            let ih = (oh * cfg.stride + kh) as isize - d.pad as isize;
                            if ih < 0 || ih as usize >= d.h_in {
                                continue;
                            }
                            for kw in 0..d.k_w {
                                let iw = (ow * cfg.stride + kw) as isize - d.pad as isize;
                                if iw < 0 || iw as usize >= d.w_in {
                                    continue;
                                }
                                let in_idx = ((n * d.c_in + ci) * d.h_in + ih as usize) * d.w_in
                                    + iw as usize;
                                let w_idx =
                                    ((co * d.c_in_per_group + ci_g) * d.k_h + kh) * d.k_w + kw;
                                acc += in_data[in_idx] * w_data[w_idx];
                            }
                        }
                    }
                    let out_idx = ((n * d.c_out + co) * d.h_out + oh) * d.w_out + ow;
                    out_data[out_idx] = acc + base;
                }
            }
        }
    }
    out
}

/// `im2col` + naive-GEMM convolution, exposed for the conv-strategy
/// ablation bench (the historical kernel, before blocking).
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
) -> Result<Tensor, TensorError> {
    let dims = validate(input, weight, bias, cfg)?;
    Ok(im2col_conv(input, weight, bias, cfg, &dims, GemmKernel::Naive, None))
}

/// Whether [`conv2d`] would route `(input, weight, cfg)` through the
/// `im2col` + GEMM path — i.e. whether an [`im2col_lower`] of this input is
/// ever consumed. Depthwise-dispatched and invalid configurations return
/// `false`.
pub fn conv2d_uses_lowering(input: &Tensor, weight: &Tensor, cfg: Conv2dCfg) -> bool {
    match validate(input, weight, None, cfg) {
        Ok(d) => !d.is_depthwise(cfg),
        Err(_) => false,
    }
}

/// The im2col column panels of one convolution input, precomputed by
/// [`im2col_lower`] and consumed by [`conv2d_from_lowered`].
///
/// Fault campaigns cache one of these per `(conv node, eval image)`: every
/// fault in a stratum perturbs the same layer, and incremental re-execution
/// feeds that layer its *golden* input, so the column matrix is byte-
/// identical across all of the stratum's faults and need only be lowered
/// once.
#[derive(Debug, Clone)]
pub struct LoweredConv {
    /// `[batch][group]` panels of `k_len * spatial` elements each.
    cols: Vec<f32>,
    batch: usize,
    groups: usize,
    c_out: usize,
    c_in_per_group: usize,
    k_h: usize,
    k_w: usize,
    k_len: usize,
    spatial: usize,
    h_out: usize,
    w_out: usize,
}

impl LoweredConv {
    /// Heap footprint of the cached panels, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<f32>()
    }

    fn panel(&self, n: usize, g: usize) -> &[f32] {
        let len = self.k_len * self.spatial;
        &self.cols[(n * self.groups + g) * len..][..len]
    }
}

/// Precomputes the im2col column panels of `input` for the convolution
/// described by `(weight, cfg)`.
///
/// The panels depend only on the *input* values and the geometry — not on
/// the weight values — so they stay valid under any weight fault.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn im2col_lower(
    input: &Tensor,
    weight: &Tensor,
    cfg: Conv2dCfg,
) -> Result<LoweredConv, TensorError> {
    let d = validate(input, weight, None, cfg)?;
    let spatial = d.h_out * d.w_out;
    let k_len = d.c_in_per_group * d.k_h * d.k_w;
    let panel = k_len * spatial;
    let mut cols = vec![0.0f32; d.batch * cfg.groups * panel];
    let in_data = input.as_slice();
    for n in 0..d.batch {
        for g in 0..cfg.groups {
            lower_group_fast(
                in_data,
                cfg,
                &d,
                n,
                g,
                &mut cols[(n * cfg.groups + g) * panel..][..panel],
            );
        }
    }
    Ok(LoweredConv {
        cols,
        batch: d.batch,
        groups: cfg.groups,
        c_out: d.c_out,
        c_in_per_group: d.c_in_per_group,
        k_h: d.k_h,
        k_w: d.k_w,
        k_len,
        spatial,
        h_out: d.h_out,
        w_out: d.w_out,
    })
}

/// Convolution over pre-lowered column panels: skips the lowering pass and
/// goes straight to the blocked GEMM. Bit-identical to [`conv2d`] on the
/// input `lowered` was built from.
///
/// # Errors
///
/// Returns [`TensorError::InvalidConfig`] when `weight`'s shape does not
/// match the geometry the panels were lowered for, or a shape error for a
/// mismatched bias.
pub fn conv2d_from_lowered(
    lowered: &LoweredConv,
    weight: &Tensor,
    bias: Option<&Tensor>,
    mut arena: Option<&mut ScratchArena>,
) -> Result<Tensor, TensorError> {
    const OP: &str = "conv2d_from_lowered";
    validate_lowered(OP, lowered, weight, bias)?;
    let (k_len, spatial) = (lowered.k_len, lowered.spatial);
    let c_out_per_group = lowered.c_out / lowered.groups;
    let out_len = lowered.batch * lowered.c_out * spatial;
    let mut out_data = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(out_len),
        None => vec![0.0f32; out_len],
    };
    let mut packed = match arena.as_deref_mut() {
        Some(a) => a.take(0),
        None => Vec::new(),
    };
    let w_data = weight.as_slice();
    for n in 0..lowered.batch {
        for g in 0..lowered.groups {
            let w_group = &w_data[g * c_out_per_group * k_len..][..c_out_per_group * k_len];
            let out_group = &mut out_data[(n * lowered.c_out + g * c_out_per_group) * spatial..]
                [..c_out_per_group * spatial];
            gemm_blocked_with(
                c_out_per_group,
                k_len,
                spatial,
                w_group,
                lowered.panel(n, g),
                out_group,
                &mut packed,
            );
        }
        if let Some(b) = bias {
            add_bias(&mut out_data, b, n, lowered.c_out, spatial);
        }
    }
    if let Some(a) = arena {
        a.recycle(packed);
    }
    Ok(Tensor::from_vec([lowered.batch, lowered.c_out, lowered.h_out, lowered.w_out], out_data)
        .expect("output length follows from lowered dims"))
}

/// Weight/bias validation shared by the from-lowered entry points.
fn validate_lowered(
    op: &'static str,
    lowered: &LoweredConv,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<(), TensorError> {
    let ws = weight.shape();
    if ws.rank() != 4 {
        return Err(TensorError::RankMismatch { op, expected: 4, actual: ws.rank() });
    }
    if ws.n() != lowered.c_out
        || ws.c() != lowered.c_in_per_group
        || ws.h() != lowered.k_h
        || ws.w() != lowered.k_w
    {
        return Err(TensorError::InvalidConfig {
            op,
            reason: format!(
                "weight {ws} does not match panels lowered for [{}, {}, {}, {}]",
                lowered.c_out, lowered.c_in_per_group, lowered.k_h, lowered.k_w
            ),
        });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[lowered.c_out]) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: b.shape(),
                rhs: Shape::new(&[lowered.c_out]),
            });
        }
    }
    Ok(())
}

/// One output channel of [`conv2d_from_lowered`], bit-identically: the
/// single GEMM row `channel` over each image's panel plus that channel's
/// bias term. Returns `batch * spatial` values laid out `[batch][spatial]`
/// (drawn from `arena` when one is supplied — recycle the buffer when
/// done).
///
/// This is the kernel behind the campaign's *single-channel convergence
/// probe*: a weight fault in a conv layer can only reach output channel
/// `weight_index / (c_in_per_group * k_h * k_w)`; every other channel is a
/// deterministic recomputation from golden inputs and golden weight rows,
/// so probing the one reachable channel decides whole-node convergence at
/// `~1/c_out` of the node's GEMM cost. Bit identity with the full kernel
/// holds because every GEMM kernel accumulates each output element one
/// partial product at a time in increasing-`k` order (see
/// [`gemm_blocked`](super::gemm_blocked)), so a lone row carries exactly
/// the bits the full multiply would give it.
///
/// # Errors
///
/// Same conditions as [`conv2d_from_lowered`], plus
/// [`TensorError::InvalidConfig`] when `channel` is out of range.
pub fn conv2d_channel_from_lowered(
    lowered: &LoweredConv,
    weight: &Tensor,
    bias: Option<&Tensor>,
    channel: usize,
    arena: Option<&mut ScratchArena>,
) -> Result<Vec<f32>, TensorError> {
    const OP: &str = "conv2d_channel_from_lowered";
    validate_lowered(OP, lowered, weight, bias)?;
    if channel >= lowered.c_out {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("channel {channel} out of range for {} output channels", lowered.c_out),
        });
    }
    let (k_len, spatial) = (lowered.k_len, lowered.spatial);
    let c_out_per_group = lowered.c_out / lowered.groups;
    let g = channel / c_out_per_group;
    let w_row = &weight.as_slice()[channel * k_len..][..k_len];
    let mut out = match arena {
        Some(a) => a.take_zeroed(lowered.batch * spatial),
        None => vec![0.0f32; lowered.batch * spatial],
    };
    for n in 0..lowered.batch {
        // gemm_row self-selects between the lane-tiled row microkernel and
        // the naive loop by panel footprint; both are bit-identical to
        // `gemm(1, ..)`.
        gemm_row(k_len, spatial, w_row, lowered.panel(n, g), &mut out[n * spatial..][..spatial]);
    }
    if let Some(b) = bias {
        let bv = b.as_slice()[channel];
        for v in out.iter_mut() {
            *v += bv;
        }
    }
    Ok(out)
}

/// The activation applied by a fused conv epilogue, after the optional
/// folded batch norm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusedActivation {
    /// No activation.
    #[default]
    None,
    /// `max(x, 0)` with the exact compare-and-select of [`super::relu`].
    Relu,
    /// `clamp(x, 0, 6)` with the exact semantics of [`super::relu6`].
    Relu6,
}

/// Element-wise tail fused into the batched conv scatter: an optional
/// folded batch norm (per-output-channel `scale`/`shift` from
/// [`super::bn_channel_scale_shift`]) followed by an optional activation.
///
/// Applying the epilogue during the GEMM-output scatter produces exactly
/// the bits of running the unfused `conv → batch_norm → relu` chain: the
/// per-element operation sequence (`+ bias`, `* scale + shift`,
/// compare-and-select) is identical — only the intermediate buffers
/// disappear.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    /// Folded batch-norm coefficients, per output channel.
    pub bn: Option<(&'a [f32], &'a [f32])>,
    /// Fused activation, applied last.
    pub act: FusedActivation,
}

impl ConvEpilogue<'_> {
    #[inline]
    fn apply(&self, channel: usize, v: f32) -> f32 {
        let mut v = v;
        if let Some((scale, shift)) = self.bn {
            v = v * scale[channel] + shift[channel];
        }
        match self.act {
            FusedActivation::None => v,
            FusedActivation::Relu => {
                if v < 0.0 {
                    0.0
                } else {
                    v
                }
            }
            FusedActivation::Relu6 => v.clamp(0.0, 6.0),
        }
    }
}

/// The image-interleaved im2col panels of one convolution input batch,
/// shaped for the batched eval-image forward: per group, one
/// `k_len x (batch * spatial)` panel whose columns are image-major
/// (`column = image * spatial + pixel`), so the whole batch costs **one
/// GEMM per group** instead of one per image.
///
/// Per output element the GEMM accumulation is indistinguishable from the
/// per-image [`LoweredConv`] path — batching concatenates independent
/// columns, never touching any element's `k`-order accumulation chain — so
/// batched and per-image convolution are bit-identical.
#[derive(Debug, Clone)]
pub struct BatchedLowered {
    /// `[group]` panels of `k_len * batch * spatial` elements each.
    cols: Vec<f32>,
    batch: usize,
    groups: usize,
    c_out: usize,
    c_in_per_group: usize,
    k_h: usize,
    k_w: usize,
    k_len: usize,
    spatial: usize,
    h_out: usize,
    w_out: usize,
}

impl BatchedLowered {
    /// Heap footprint of the panels, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<f32>()
    }

    /// Number of images interleaved in each panel.
    pub fn batch(&self) -> usize {
        self.batch
    }

    fn panel(&self, g: usize) -> &[f32] {
        let len = self.k_len * self.batch * self.spatial;
        &self.cols[g * len..][..len]
    }

    /// Consumes the panels, returning the backing buffer for arena
    /// recycling.
    pub fn into_cols(self) -> Vec<f32> {
        self.cols
    }
}

/// Lowers a (multi-image) input batch directly into the image-interleaved
/// panels of [`BatchedLowered`], drawing the buffer from `arena` when one
/// is supplied. The per-(row, image) bytes written are exactly those of
/// [`im2col_lower`] — only their placement differs.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn im2col_lower_batched(
    input: &Tensor,
    weight: &Tensor,
    cfg: Conv2dCfg,
    arena: Option<&mut ScratchArena>,
) -> Result<BatchedLowered, TensorError> {
    let d = validate(input, weight, None, cfg)?;
    let spatial = d.h_out * d.w_out;
    let k_len = d.c_in_per_group * d.k_h * d.k_w;
    let row_stride = d.batch * spatial;
    let panel = k_len * row_stride;
    let mut cols = match arena {
        Some(a) => a.take(cfg.groups * panel),
        None => vec![0.0f32; cfg.groups * panel],
    };
    let in_data = input.as_slice();
    for g in 0..cfg.groups {
        let dst = &mut cols[g * panel..][..panel];
        for n in 0..d.batch {
            lower_group_fast_strided(in_data, cfg, &d, n, g, dst, row_stride, n * spatial);
        }
    }
    Ok(BatchedLowered {
        cols,
        batch: d.batch,
        groups: cfg.groups,
        c_out: d.c_out,
        c_in_per_group: d.c_in_per_group,
        k_h: d.k_h,
        k_w: d.k_w,
        k_len,
        spatial,
        h_out: d.h_out,
        w_out: d.w_out,
    })
}

/// Weight/bias validation for the batched panels (mirrors
/// [`validate_lowered`]).
fn validate_batched(
    op: &'static str,
    lowered: &BatchedLowered,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<(), TensorError> {
    let ws = weight.shape();
    if ws.rank() != 4 {
        return Err(TensorError::RankMismatch { op, expected: 4, actual: ws.rank() });
    }
    if ws.n() != lowered.c_out
        || ws.c() != lowered.c_in_per_group
        || ws.h() != lowered.k_h
        || ws.w() != lowered.k_w
    {
        return Err(TensorError::InvalidConfig {
            op,
            reason: format!(
                "weight {ws} does not match panels lowered for [{}, {}, {}, {}]",
                lowered.c_out, lowered.c_in_per_group, lowered.k_h, lowered.k_w
            ),
        });
    }
    if let Some(b) = bias {
        if b.shape() != Shape::new(&[lowered.c_out]) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: b.shape(),
                rhs: Shape::new(&[lowered.c_out]),
            });
        }
    }
    Ok(())
}

/// Batched convolution over image-interleaved panels: one GEMM per group
/// covers every image, and the GEMM-output scatter back to NCHW applies
/// the bias and an optional fused epilogue (folded batch norm, ReLU) in
/// the same pass.
///
/// Bit-identical to running [`conv2d_from_lowered`] per image followed by
/// the unfused `batch_norm`/`relu` ops: each output element's `k`
/// accumulation order, bias add, affine fold, and clamp are the exact
/// per-element operation sequence of the unfused chain (see
/// [`ConvEpilogue`]).
///
/// # Errors
///
/// Same conditions as [`conv2d_from_lowered`].
pub fn conv2d_batched_from_lowered(
    lowered: &BatchedLowered,
    weight: &Tensor,
    bias: Option<&Tensor>,
    epilogue: Option<&ConvEpilogue<'_>>,
    mut arena: Option<&mut ScratchArena>,
) -> Result<Tensor, TensorError> {
    const OP: &str = "conv2d_batched_from_lowered";
    validate_batched(OP, lowered, weight, bias)?;
    if let Some(ep) = epilogue {
        if let Some((scale, shift)) = ep.bn {
            if scale.len() != lowered.c_out || shift.len() != lowered.c_out {
                return Err(TensorError::InvalidConfig {
                    op: OP,
                    reason: format!(
                        "epilogue coefficients ({}, {}) do not cover {} output channels",
                        scale.len(),
                        shift.len(),
                        lowered.c_out
                    ),
                });
            }
        }
    }
    let (k_len, spatial, batch) = (lowered.k_len, lowered.spatial, lowered.batch);
    let bspatial = batch * spatial;
    let c_out_per_group = lowered.c_out / lowered.groups;
    let mut gemm_out = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(c_out_per_group * bspatial),
        None => vec![0.0f32; c_out_per_group * bspatial],
    };
    let mut packed = match arena.as_deref_mut() {
        Some(a) => a.take(0),
        None => Vec::new(),
    };
    let mut out_data = match arena.as_deref_mut() {
        Some(a) => a.take(batch * lowered.c_out * spatial),
        None => vec![0.0f32; batch * lowered.c_out * spatial],
    };
    let w_data = weight.as_slice();
    let b_data = bias.map(Tensor::as_slice);
    let identity = ConvEpilogue::default();
    let ep = epilogue.unwrap_or(&identity);
    for g in 0..lowered.groups {
        let w_group = &w_data[g * c_out_per_group * k_len..][..c_out_per_group * k_len];
        if g > 0 {
            gemm_out.fill(0.0);
        }
        gemm_blocked_with(
            c_out_per_group,
            k_len,
            bspatial,
            w_group,
            lowered.panel(g),
            &mut gemm_out,
            &mut packed,
        );
        // Scatter [c][image * spatial] rows into NCHW, fusing bias + tail.
        for cg in 0..c_out_per_group {
            let co = g * c_out_per_group + cg;
            let src_row = &gemm_out[cg * bspatial..][..bspatial];
            for n in 0..batch {
                let src = &src_row[n * spatial..][..spatial];
                let dst = &mut out_data[(n * lowered.c_out + co) * spatial..][..spatial];
                match b_data {
                    Some(b) => {
                        let bv = b[co];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = ep.apply(co, s + bv);
                        }
                    }
                    None => {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = ep.apply(co, s);
                        }
                    }
                }
            }
        }
    }
    if let Some(a) = arena {
        a.recycle(packed);
        a.recycle(gemm_out);
    }
    Ok(Tensor::from_vec([batch, lowered.c_out, lowered.h_out, lowered.w_out], out_data)
        .expect("output length follows from lowered dims"))
}

/// One output channel of the batched convolution, bit-identically: a
/// single GEMM row over the image-interleaved panel plus the channel's
/// bias term. Returns `batch * spatial` values laid out `[image][spatial]`
/// — the same layout as [`conv2d_channel_from_lowered`], so the two probe
/// kernels are interchangeable bit-for-bit.
///
/// # Errors
///
/// Same conditions as [`conv2d_channel_from_lowered`].
pub fn conv2d_channel_batched(
    lowered: &BatchedLowered,
    weight: &Tensor,
    bias: Option<&Tensor>,
    channel: usize,
    arena: Option<&mut ScratchArena>,
) -> Result<Vec<f32>, TensorError> {
    const OP: &str = "conv2d_channel_batched";
    validate_batched(OP, lowered, weight, bias)?;
    if channel >= lowered.c_out {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("channel {channel} out of range for {} output channels", lowered.c_out),
        });
    }
    let (k_len, bspatial) = (lowered.k_len, lowered.batch * lowered.spatial);
    let c_out_per_group = lowered.c_out / lowered.groups;
    let g = channel / c_out_per_group;
    let w_row = &weight.as_slice()[channel * k_len..][..k_len];
    let mut out = match arena {
        Some(a) => a.take_zeroed(bspatial),
        None => vec![0.0f32; bspatial],
    };
    gemm_row(k_len, bspatial, w_row, lowered.panel(g), &mut out);
    if let Some(b) = bias {
        let bv = b.as_slice()[channel];
        for v in out.iter_mut() {
            *v += bv;
        }
    }
    Ok(out)
}

/// Lowers image `n`, group `g` of `in_data` into `cols` (`k_len x spatial`,
/// row-major). Writes **every** element — padding positions become explicit
/// zeros — so dirty (recycled) buffers are safe destinations.
/// [`lower_group`] with the per-element border test hoisted out of the
/// inner loop — the fast-path lowering.
///
/// For stride-1 convolutions every destination row splits into a zero
/// left border, one contiguous slice copy from the input row, and a zero
/// right border, so the branchy per-pixel gather becomes `fill`s and a
/// `copy_from_slice`. Pure data movement: it writes exactly the same
/// column matrix as [`lower_group`] (bit-identical by construction — no
/// floating-point arithmetic is performed), so the GEMM consuming it
/// cannot tell the difference. Strides other than 1 fall back to the
/// scalar gather.
fn lower_group_fast(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
) {
    let spatial = d.h_out * d.w_out;
    lower_group_fast_strided(in_data, cfg, d, n, g, cols, spatial, 0);
}

/// [`lower_group_fast`] writing each column-matrix row at
/// `row * row_stride + row_offset` instead of densely at `row * spatial` —
/// the addressing hook that lets one lowering kernel serve both the
/// per-image panels (`row_stride == spatial`) and the image-interleaved
/// batched panels of [`im2col_lower_batched`] (`row_stride ==
/// batch * spatial`, `row_offset == n * spatial`). Pure data movement
/// either way: the bytes written per (row, image) are identical.
#[allow(clippy::too_many_arguments)]
fn lower_group_fast_strided(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
    row_stride: usize,
    row_offset: usize,
) {
    if cfg.stride != 1 {
        return lower_group_strided(in_data, cfg, d, n, g, cols, row_stride, row_offset);
    }
    let spatial = d.h_out * d.w_out;
    for ci_g in 0..d.c_in_per_group {
        let ci = g * d.c_in_per_group + ci_g;
        let in_chan = &in_data[(n * d.c_in + ci) * d.h_in * d.w_in..][..d.h_in * d.w_in];
        for kh in 0..d.k_h {
            for kw in 0..d.k_w {
                let row = (ci_g * d.k_h + kh) * d.k_w + kw;
                let dst = &mut cols[row * row_stride + row_offset..][..spatial];
                // iw = ow + w_shift; valid input columns are a contiguous
                // run of ow, bounded below by iw >= 0 and above by
                // iw < w_in.
                let w_shift = kw as isize - d.pad as isize;
                let ow_hi = ((d.w_in as isize - w_shift).max(0) as usize).min(d.w_out);
                let ow_lo = ((-w_shift).max(0) as usize).min(ow_hi);
                for oh in 0..d.h_out {
                    let ih = (oh + kh) as isize - d.pad as isize;
                    let dst_row = &mut dst[oh * d.w_out..(oh + 1) * d.w_out];
                    if ih < 0 || ih as usize >= d.h_in {
                        dst_row.fill(0.0);
                        continue;
                    }
                    let in_row = &in_chan[ih as usize * d.w_in..][..d.w_in];
                    dst_row[..ow_lo].fill(0.0);
                    dst_row[ow_lo..ow_hi].copy_from_slice(
                        &in_row[(ow_lo as isize + w_shift) as usize
                            ..(ow_hi as isize + w_shift) as usize],
                    );
                    dst_row[ow_hi..].fill(0.0);
                }
            }
        }
    }
}

fn lower_group(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
) {
    let spatial = d.h_out * d.w_out;
    lower_group_strided(in_data, cfg, d, n, g, cols, spatial, 0);
}

/// [`lower_group`] with the strided row addressing of
/// [`lower_group_fast_strided`] — the scalar-gather fallback for strides
/// other than 1.
#[allow(clippy::too_many_arguments)]
fn lower_group_strided(
    in_data: &[f32],
    cfg: Conv2dCfg,
    d: &ConvDims,
    n: usize,
    g: usize,
    cols: &mut [f32],
    row_stride: usize,
    row_offset: usize,
) {
    let spatial = d.h_out * d.w_out;
    for ci_g in 0..d.c_in_per_group {
        let ci = g * d.c_in_per_group + ci_g;
        let in_chan = &in_data[(n * d.c_in + ci) * d.h_in * d.w_in..][..d.h_in * d.w_in];
        for kh in 0..d.k_h {
            for kw in 0..d.k_w {
                let row = (ci_g * d.k_h + kh) * d.k_w + kw;
                let dst = &mut cols[row * row_stride + row_offset..][..spatial];
                let mut idx = 0usize;
                for oh in 0..d.h_out {
                    let ih = (oh * cfg.stride + kh) as isize - d.pad as isize;
                    if ih < 0 || ih as usize >= d.h_in {
                        for _ in 0..d.w_out {
                            dst[idx] = 0.0;
                            idx += 1;
                        }
                        continue;
                    }
                    let in_row = &in_chan[ih as usize * d.w_in..][..d.w_in];
                    for ow in 0..d.w_out {
                        let iw = (ow * cfg.stride + kw) as isize - d.pad as isize;
                        dst[idx] =
                            if iw < 0 || iw as usize >= d.w_in { 0.0 } else { in_row[iw as usize] };
                        idx += 1;
                    }
                }
            }
        }
    }
}

/// Adds the per-channel bias to image `n` of `out_data`.
fn add_bias(out_data: &mut [f32], bias: &Tensor, n: usize, c_out: usize, spatial: usize) {
    let b_data = bias.as_slice();
    for co in 0..c_out {
        let dst = &mut out_data[(n * c_out + co) * spatial..][..spatial];
        for v in dst {
            *v += b_data[co];
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn im2col_conv(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
    kernel: GemmKernel,
    mut arena: Option<&mut ScratchArena>,
) -> Tensor {
    let spatial = d.h_out * d.w_out;
    let k_len = d.c_in_per_group * d.k_h * d.k_w;
    let c_out_per_group = d.c_out / cfg.groups;
    let out_len = d.batch * d.c_out * spatial;
    let mut out_data = match arena.as_deref_mut() {
        Some(a) => a.take_zeroed(out_len),
        None => vec![0.0f32; out_len],
    };
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    // Column buffer reused across images and groups; `lower_group` writes
    // every element, so a dirty recycled buffer is fine.
    let mut cols = match arena.as_deref_mut() {
        Some(a) => a.take(k_len * spatial),
        None => vec![0.0f32; k_len * spatial],
    };
    let mut packed = match arena.as_deref_mut() {
        Some(a) => a.take(0),
        None => Vec::new(),
    };
    for n in 0..d.batch {
        for g in 0..cfg.groups {
            // The Naive kernel keeps the historical scalar gather so the
            // pre-optimization cost model stays measurable; the fast path
            // lowers with slice copies. Both write the same column matrix.
            match kernel {
                GemmKernel::Naive => lower_group(in_data, cfg, d, n, g, &mut cols),
                GemmKernel::Blocked => lower_group_fast(in_data, cfg, d, n, g, &mut cols),
            }
            // GEMM: weights [c_out_per_group, k_len] x cols [k_len, spatial].
            let w_group = &w_data[g * c_out_per_group * k_len..][..c_out_per_group * k_len];
            let out_group = &mut out_data[(n * d.c_out + g * c_out_per_group) * spatial..]
                [..c_out_per_group * spatial];
            match kernel {
                GemmKernel::Naive => {
                    gemm(c_out_per_group, k_len, spatial, w_group, &cols, out_group)
                }
                GemmKernel::Blocked => gemm_blocked_with(
                    c_out_per_group,
                    k_len,
                    spatial,
                    w_group,
                    &cols,
                    out_group,
                    &mut packed,
                ),
            }
        }
        if let Some(b) = bias {
            add_bias(&mut out_data, b, n, d.c_out, spatial);
        }
    }
    if let Some(a) = arena {
        a.recycle(cols);
        a.recycle(packed);
    }
    Tensor::from_vec([d.batch, d.c_out, d.h_out, d.w_out], out_data)
        .expect("output length follows from conv dims")
}

/// Shape-only state of the depthwise kernel, shared by every channel plane
/// of one call.
///
/// The kernel works on a *flattened grid*: output pixel `(oh, ow)` sits at
/// grid index `oh * wq + ow`, where `wq` is the row width of the input's
/// phase planes. Phase plane `(q, p)` holds the input pixels whose padded
/// coordinates are `(a * stride + q, b * stride + p)` at index `a * wq + b`
/// — at stride 1 the single plane is the padded input itself. Tap
/// `(kh, kw)` of every output pixel then sits in plane
/// `(kh % stride, kw % stride)` at the pixel's grid index plus one
/// constant offset, so each tap is a single unit-stride sweep over the
/// whole grid, at any stride and any plane size. Grid positions whose tap
/// lies in the padding (and the `wq - w_out` junk columns of each grid
/// row) are masked out of that sweep.
struct DwGeometry {
    stride: usize,
    w_in: usize,
    w_out: usize,
    /// Row width of the phase planes and of the grid.
    wq: usize,
    /// Elements per phase plane, with slack for the largest tap offset.
    plane: usize,
    /// Grid elements: `h_out * wq`.
    grid: usize,
    /// Per tap, kh-major and kw-minor: (phase plane, offset into it).
    taps: Vec<(usize, usize)>,
    /// `taps.len()` rows of `grid` flags: the tap is in bounds there.
    mask: Vec<bool>,
    /// Per input row: where its phase-plane row starts.
    row_at: Vec<usize>,
    /// Per column phase `p`: the first input column `iw0` with
    /// `(iw0 + pad) % stride == p`, where it lands within a phase-plane
    /// row, and how many columns the phase holds.
    col_phases: Vec<(usize, usize, usize)>,
}

impl DwGeometry {
    fn new(d: &ConvDims, stride: usize) -> Self {
        let (hp, wp) = (d.h_in + 2 * d.pad, d.w_in + 2 * d.pad);
        let (hq, wq) = (hp.div_ceil(stride), wp.div_ceil(stride));
        let grid = d.h_out * wq;
        let mut taps = Vec::with_capacity(d.k_h * d.k_w);
        let mut mask = vec![false; d.k_h * d.k_w * grid];
        for kh in 0..d.k_h {
            for kw in 0..d.k_w {
                let row = &mut mask[taps.len() * grid..][..grid];
                taps.push(((kh % stride) * stride + kw % stride, (kh / stride) * wq + kw / stride));
                for oh in 0..d.h_out {
                    let ih = (oh * stride + kh) as isize - d.pad as isize;
                    if ih < 0 || ih as usize >= d.h_in {
                        continue;
                    }
                    for ow in 0..d.w_out {
                        let iw = (ow * stride + kw) as isize - d.pad as isize;
                        row[oh * wq + ow] = iw >= 0 && (iw as usize) < d.w_in;
                    }
                }
            }
        }
        let max_off = taps.iter().map(|&(_, off)| off).max().unwrap_or(0);
        let plane = (hq * wq).max(grid + max_off);
        let row_at = (d.pad..d.pad + d.h_in)
            .map(|r| (r % stride) * stride * plane + (r / stride) * wq)
            .collect();
        let col_phases = (0..stride)
            .filter_map(|p| {
                let iw0 = (p + stride - d.pad % stride) % stride;
                (iw0 < d.w_in).then(|| {
                    (iw0, p * plane + (iw0 + d.pad) / stride, (d.w_in - iw0).div_ceil(stride))
                })
            })
            .collect();
        Self {
            stride,
            w_in: d.w_in,
            w_out: d.w_out,
            wq,
            plane,
            grid,
            taps,
            mask,
            row_at,
            col_phases,
        }
    }

    /// Scratch elements [`depthwise_plane`] needs: the phase planes, then
    /// the grid accumulator.
    fn scratch_len(&self) -> usize {
        self.stride * self.stride * self.plane + self.grid
    }
}

/// Depthwise convolution of one channel plane.
///
/// The input is scattered into its phase planes, the grid accumulator is
/// zeroed, and each tap — in kh-major, kw-minor order — adds `in * w` to
/// every grid position where it is in bounds; the positions where it lies
/// in the padding keep their accumulator unchanged (a select, not a
/// multiply by zero). The output pixels are then read off the grid as
/// `acc + base`. Every output element therefore receives exactly the taps
/// of the scalar [`conv2d_direct`] loop, in the same order and with the
/// same `input * weight` operands, and no FMA or horizontal sum: vector
/// width only decides how many independent elements advance per
/// instruction, so the result is bit-identical to the scalar loop.
///
/// `scratch` holds [`DwGeometry::scratch_len`] elements of unspecified
/// contents: padding positions of the phase planes are never written and
/// only ever read into masked-out lanes. Every element of `out` is
/// written.
///
/// `#[inline(never)]` pins one compiled copy for the full and one-channel
/// entry points, for the NaN-payload reasons documented on
/// [`gemm`](super::gemm).
#[inline(never)]
fn depthwise_plane(
    g: &DwGeometry,
    in_chan: &[f32],
    w_chan: &[f32],
    base: f32,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    let (s, wq) = (g.stride, g.wq);
    let (planes, acc) = scratch.split_at_mut(s * s * g.plane);
    let acc = &mut acc[..g.grid];
    if g.w_in > 0 {
        for (in_row, &row_at) in in_chan.chunks_exact(g.w_in).zip(&g.row_at) {
            for &(iw0, col_at, n) in &g.col_phases {
                let (dst, src) = (&mut planes[row_at + col_at..][..n], &in_row[iw0..]);
                if s == 1 {
                    dst.copy_from_slice(&src[..n]);
                } else {
                    for (b, d) in dst.iter_mut().enumerate() {
                        *d = src[b * s];
                    }
                }
            }
        }
    }
    acc.fill(0.0);
    for ((&(plane, off), &wv), mask) in g.taps.iter().zip(w_chan).zip(g.mask.chunks_exact(g.grid)) {
        let src = &planes[plane * g.plane + off..][..g.grid];
        for ((a, &x), &m) in acc.iter_mut().zip(src).zip(mask) {
            *a = if m { *a + x * wv } else { *a };
        }
    }
    for (out_row, acc_row) in out.chunks_exact_mut(g.w_out).zip(acc.chunks_exact(wq)) {
        for (o, &a) in out_row.iter_mut().zip(acc_row) {
            *o = a + base;
        }
    }
}

/// Runs [`depthwise_plane`] over `channels` of every image, returning
/// `[batch][channels][h_out * w_out]` values — NCHW for all channels —
/// drawn from `arena` when one is supplied. The plane kernel writes every
/// output element and reads no scratch element it has not written, so
/// stale arena buffers are safe.
fn depthwise(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
    channels: std::ops::Range<usize>,
    mut arena: Option<&mut ScratchArena>,
) -> Vec<f32> {
    let geo = DwGeometry::new(d, cfg.stride);
    let (plane_in, plane_out, k_len) = (d.h_in * d.w_in, d.h_out * d.w_out, d.k_h * d.k_w);
    let out_len = d.batch * channels.len() * plane_out;
    let (mut out, mut scratch) = match arena.as_deref_mut() {
        Some(a) => (a.take(out_len), a.take(geo.scratch_len())),
        None => (vec![0.0f32; out_len], vec![0.0f32; geo.scratch_len()]),
    };
    let (in_data, w_data) = (input.as_slice(), weight.as_slice());
    let mut out_planes = out.chunks_exact_mut(plane_out);
    for n in 0..d.batch {
        for c in channels.clone() {
            depthwise_plane(
                &geo,
                &in_data[(n * d.c_in + c) * plane_in..][..plane_in],
                &w_data[c * k_len..][..k_len],
                bias.map_or(0.0, |b| b.as_slice()[c]),
                &mut scratch,
                out_planes.next().expect("output holds one plane per image and channel"),
            );
        }
    }
    if let Some(a) = arena {
        a.recycle(scratch);
    }
    out
}

/// [`depthwise`] over every channel, as the output tensor.
fn depthwise_tensor(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    d: &ConvDims,
    arena: Option<&mut ScratchArena>,
) -> Tensor {
    let out = depthwise(input, weight, bias, cfg, d, 0..d.c_out, arena);
    Tensor::from_vec([d.batch, d.c_out, d.h_out, d.w_out], out)
        .expect("output length follows from conv dims")
}

/// One output channel of a depthwise convolution, bit-identically: the
/// depthwise plane kernel run over channel `channel` of every image only.
/// Returns `batch * h_out * w_out` values laid out `[batch][spatial]` —
/// the layout of [`conv2d_channel_from_lowered`] — drawn from `arena` when
/// one is supplied (recycle the buffer when done).
///
/// This is the depthwise kernel behind the campaign's single-channel
/// convergence probe: a weight fault in channel `c` of a depthwise conv
/// can reach only output channel `c`, which reads only input channel `c`,
/// so one plane (nine taps per pixel at 3x3) decides whole-node
/// convergence, with no lowering. Bit identity with the full kernel holds
/// because both run the same compiled plane kernel.
///
/// # Errors
///
/// Same conditions as [`conv2d`], plus [`TensorError::InvalidConfig`] when
/// the convolution is not depthwise or `channel` is out of range.
pub fn conv2d_channel_depthwise(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dCfg,
    channel: usize,
    arena: Option<&mut ScratchArena>,
) -> Result<Vec<f32>, TensorError> {
    const OP: &str = "conv2d_channel_depthwise";
    let d = validate(input, weight, bias, cfg)?;
    if !d.is_depthwise(cfg) {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: "convolution is not depthwise".into(),
        });
    }
    if channel >= d.c_out {
        return Err(TensorError::InvalidConfig {
            op: OP,
            reason: format!("channel {channel} out of range for {} output channels", d.c_out),
        });
    }
    Ok(depthwise(input, weight, bias, cfg, &d, channel..channel + 1, arena))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: [usize; 4]) -> Tensor {
        Tensor::from_fn(shape, |i| (i % 13) as f32 * 0.25 - 1.0)
    }

    #[test]
    fn same_padding_preserves_size() {
        let input = Tensor::zeros([2, 3, 8, 8]);
        let weight = Tensor::zeros([5, 3, 3, 3]);
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(1)).unwrap();
        assert_eq!(out.shape().dims(), &[2, 5, 8, 8]);
    }

    #[test]
    fn stride_two_halves_size() {
        let input = Tensor::zeros([1, 3, 8, 8]);
        let weight = Tensor::zeros([4, 3, 3, 3]);
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(2)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn one_by_one_kernel_is_channel_mix() {
        let input = Tensor::from_vec([1, 2, 1, 1], vec![3.0, 5.0]).unwrap();
        let weight = Tensor::from_vec([1, 2, 1, 1], vec![2.0, -1.0]).unwrap();
        let out = conv2d(&input, &weight, None, Conv2dCfg::valid(1)).unwrap();
        assert_eq!(out.get([0, 0, 0, 0]), Some(1.0));
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let input = Tensor::zeros([1, 1, 2, 2]);
        let weight = Tensor::zeros([3, 1, 1, 1]);
        let bias = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), Conv2dCfg::valid(1)).unwrap();
        assert_eq!(out.get([0, 0, 0, 0]), Some(1.0));
        assert_eq!(out.get([0, 1, 1, 1]), Some(2.0));
        assert_eq!(out.get([0, 2, 0, 1]), Some(3.0));
    }

    #[test]
    fn im2col_matches_direct_grouped() {
        let input = seq_tensor([2, 4, 7, 7]);
        let weight = seq_tensor([6, 2, 3, 3]); // groups = 2
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        let a = conv2d_direct(&input, &weight, Some(&bias), cfg).unwrap();
        let b = conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4, "paths diverge");
    }

    #[test]
    fn depthwise_matches_direct() {
        let input = seq_tensor([1, 5, 6, 6]);
        let weight = seq_tensor([5, 1, 3, 3]);
        for stride in [1, 2] {
            let cfg = Conv2dCfg::same(stride).with_groups(5);
            let a = conv2d_direct(&input, &weight, None, cfg).unwrap();
            let b = conv2d(&input, &weight, None, cfg).unwrap();
            assert_bits_equal(&a, &b, "depthwise vs direct");
        }
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes");
        let same = a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what}: values diverge");
    }

    #[test]
    fn kernel_choice_is_bit_identical() {
        let input = seq_tensor([2, 4, 9, 9]);
        let weight = seq_tensor([6, 2, 3, 3]);
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1 - 0.2);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        let naive = conv2d_kernel(&input, &weight, Some(&bias), cfg, GemmKernel::Naive).unwrap();
        let blocked =
            conv2d_kernel(&input, &weight, Some(&bias), cfg, GemmKernel::Blocked).unwrap();
        assert_bits_equal(&naive, &blocked, "naive vs blocked");
    }

    #[test]
    fn arena_path_is_bit_identical_and_recycles() {
        let input = seq_tensor([1, 3, 8, 8]);
        let weight = seq_tensor([4, 3, 3, 3]);
        let cfg = Conv2dCfg::same(1);
        let plain = conv2d(&input, &weight, None, cfg).unwrap();
        let mut arena = ScratchArena::new();
        let a = conv2d_with(&input, &weight, None, cfg, &mut arena).unwrap();
        assert_bits_equal(&plain, &a, "arena first call");
        let parked = arena.free_buffers();
        assert!(parked >= 1, "cols buffer must be recycled");
        // A second call reuses the parked buffers and stays identical even
        // though they now hold stale contents.
        let b = conv2d_with(&input, &weight, None, cfg, &mut arena).unwrap();
        assert_bits_equal(&plain, &b, "arena second call");
        assert!(arena.peak_bytes() > 0);
    }

    #[test]
    fn lowered_path_is_bit_identical() {
        let input = seq_tensor([2, 4, 7, 7]);
        let weight = seq_tensor([6, 2, 3, 3]);
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        assert!(conv2d_uses_lowering(&input, &weight, cfg));
        let plain = conv2d(&input, &weight, Some(&bias), cfg).unwrap();
        let lowered = im2col_lower(&input, &weight, cfg).unwrap();
        assert_eq!(lowered.memory_bytes() % 4, 0);
        let from_cols = conv2d_from_lowered(&lowered, &weight, Some(&bias), None).unwrap();
        assert_bits_equal(&plain, &from_cols, "lowered, no arena");
        let mut arena = ScratchArena::new();
        let with_arena =
            conv2d_from_lowered(&lowered, &weight, Some(&bias), Some(&mut arena)).unwrap();
        assert_bits_equal(&plain, &with_arena, "lowered, arena");
    }

    #[test]
    fn channel_from_lowered_matches_full_kernel() {
        // Every channel of the single-row kernel must carry exactly the
        // bits the full from-lowered conv gives it — grouped geometry,
        // bias, and a NaN/Inf-corrupted weight row included.
        let input = seq_tensor([2, 4, 7, 7]);
        let mut weight = seq_tensor([6, 2, 3, 3]); // groups = 2
        weight.as_mut_slice()[3] = f32::NAN;
        weight.as_mut_slice()[20] = f32::INFINITY;
        let bias = Tensor::from_fn([6], |i| i as f32 * 0.1);
        let cfg = Conv2dCfg::same(2).with_groups(2);
        let lowered = im2col_lower(&input, &weight, cfg).unwrap();
        let full = conv2d_from_lowered(&lowered, &weight, Some(&bias), None).unwrap();
        let shape = full.shape();
        let dims = shape.dims();
        let (batch, c_out) = (dims[0], dims[1]);
        let spatial = dims[2] * dims[3];
        let mut arena = ScratchArena::new();
        for channel in 0..c_out {
            let row = conv2d_channel_from_lowered(
                &lowered,
                &weight,
                Some(&bias),
                channel,
                Some(&mut arena),
            )
            .unwrap();
            assert_eq!(row.len(), batch * spatial);
            for n in 0..batch {
                let got = &row[n * spatial..][..spatial];
                let want = &full.as_slice()[(n * c_out + channel) * spatial..][..spatial];
                let same = got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "channel {channel}, image {n} diverges from the full kernel");
            }
            arena.recycle(row);
        }
        assert!(
            conv2d_channel_from_lowered(&lowered, &weight, None, c_out, None).is_err(),
            "out-of-range channel must be rejected"
        );
    }

    #[test]
    fn lowered_panels_survive_weight_faults() {
        // The panels depend only on the input: reusing them with a corrupted
        // weight must equal re-running conv2d with that weight.
        let input = seq_tensor([1, 3, 6, 6]);
        let mut weight = seq_tensor([4, 3, 3, 3]);
        let cfg = Conv2dCfg::same(1);
        let lowered = im2col_lower(&input, &weight, cfg).unwrap();
        weight.as_mut_slice()[7] = f32::NAN;
        weight.as_mut_slice()[20] = f32::INFINITY;
        let plain = conv2d(&input, &weight, None, cfg).unwrap();
        let from_cols = conv2d_from_lowered(&lowered, &weight, None, None).unwrap();
        assert_bits_equal(&plain, &from_cols, "faulted weight");
    }

    #[test]
    fn depthwise_shapes_never_lower() {
        let input = seq_tensor([1, 5, 6, 6]);
        let weight = seq_tensor([5, 1, 3, 3]);
        let cfg = Conv2dCfg::same(1).with_groups(5);
        assert!(!conv2d_uses_lowering(&input, &weight, cfg));
        // Invalid shapes do not lower either.
        assert!(!conv2d_uses_lowering(&Tensor::zeros([2, 2]), &weight, cfg));
    }

    #[test]
    fn from_lowered_rejects_mismatched_weight() {
        let input = seq_tensor([1, 3, 6, 6]);
        let weight = seq_tensor([4, 3, 3, 3]);
        let lowered = im2col_lower(&input, &weight, Conv2dCfg::same(1)).unwrap();
        let wrong = seq_tensor([4, 3, 5, 5]);
        assert!(matches!(
            conv2d_from_lowered(&lowered, &wrong, None, None),
            Err(TensorError::InvalidConfig { .. })
        ));
        let bad_bias = Tensor::zeros([7]);
        assert!(conv2d_from_lowered(&lowered, &weight, Some(&bad_bias), None).is_err());
    }

    #[test]
    fn rejects_wrong_rank() {
        let bad = Tensor::zeros([3, 3]);
        let weight = Tensor::zeros([1, 1, 3, 3]);
        assert!(matches!(
            conv2d(&bad, &weight, None, Conv2dCfg::same(1)),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_groups() {
        let input = Tensor::zeros([1, 3, 4, 4]);
        let weight = Tensor::zeros([4, 3, 3, 3]);
        let cfg = Conv2dCfg::same(1).with_groups(2);
        assert!(matches!(
            conv2d(&input, &weight, None, cfg),
            Err(TensorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_zero_stride() {
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros([1, 1, 3, 3]);
        let cfg = Conv2dCfg { stride: 0, padding: Padding::Same, groups: 1 };
        assert!(conv2d(&input, &weight, None, cfg).is_err());
    }

    #[test]
    fn rejects_bias_of_wrong_length() {
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros([2, 1, 3, 3]);
        let bias = Tensor::zeros([3]);
        assert!(conv2d(&input, &weight, Some(&bias), Conv2dCfg::same(1)).is_err());
    }

    #[test]
    fn rejects_channel_mismatch() {
        let input = Tensor::zeros([1, 3, 4, 4]);
        let weight = Tensor::zeros([2, 4, 3, 3]);
        assert!(conv2d(&input, &weight, None, Conv2dCfg::same(1)).is_err());
    }

    #[test]
    fn kernel_larger_than_input_rejected_without_padding() {
        let input = Tensor::zeros([1, 1, 2, 2]);
        let weight = Tensor::zeros([1, 1, 5, 5]);
        assert!(conv2d(&input, &weight, None, Conv2dCfg::valid(1)).is_err());
    }

    #[test]
    fn nan_weight_propagates() {
        let input = Tensor::full([1, 1, 3, 3], 1.0);
        let mut weight = Tensor::full([1, 1, 3, 3], 1.0);
        weight.as_mut_slice()[4] = f32::NAN;
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(1)).unwrap();
        assert!(out.get([0, 0, 1, 1]).unwrap().is_nan());
    }

    #[test]
    fn known_edge_values_with_same_padding() {
        // All-ones 3x3 kernel over all-ones input: corners see 4, edges 6.
        let input = Tensor::full([1, 1, 3, 3], 1.0);
        let weight = Tensor::full([1, 1, 3, 3], 1.0);
        let out = conv2d(&input, &weight, None, Conv2dCfg::same(1)).unwrap();
        assert_eq!(out.get([0, 0, 0, 0]), Some(4.0));
        assert_eq!(out.get([0, 0, 0, 1]), Some(6.0));
        assert_eq!(out.get([0, 0, 1, 1]), Some(9.0));
    }
}
