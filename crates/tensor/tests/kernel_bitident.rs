//! Property-based bit-identity suite for the fast kernel paths.
//!
//! The blocked GEMM and the cached-lowering / arena-backed convolution
//! paths are pure reorderings of *independent* output elements: every
//! output element accumulates its `k` products in the same increasing-`ki`
//! order on every path, so results must be **bit-identical** to the naive
//! kernels — including NaN payloads and signed infinities, which the
//! fault-injection campaigns rely on for stable classifications.
//!
//! The depthwise family is pinned separately: the vectorised depthwise
//! row kernel (`conv2d`, `conv2d_with`, the one-channel probe kernel)
//! must be bit-identical to the scalar `conv2d_direct` loop. Both *skip*
//! out-of-bounds taps, whereas the im2col family multiplies explicit
//! padding zeros — so the two families are only value-identical to each
//! other once NaN/Inf weights meet padded borders, and each is compared
//! only against its own oracle.

#[path = "../../../tests/common/fixtures.rs"]
mod fixtures;

use fixtures::{assert_bits_equal, cycled, fault_like_f32};
use proptest::collection::vec;
use proptest::prelude::*;

use sfi_tensor::ops::{
    batch_norm, bn_channel_scale_shift, conv2d, conv2d_batched_from_lowered,
    conv2d_channel_batched, conv2d_channel_depthwise, conv2d_channel_from_lowered, conv2d_direct,
    conv2d_from_lowered, conv2d_kernel, conv2d_with, gemm, gemm_blocked, gemm_micro,
    gemm_packed_rows, gemm_row, gemm_row_lanes, im2col_lower, im2col_lower_batched, relu, relu6,
    BatchNormParams, Conv2dCfg, ConvEpilogue, FusedActivation, GemmKernel, Padding, MICRO_MR,
    MICRO_NR, MICRO_NR1,
};
use sfi_tensor::{ScratchArena, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked GEMM is bit-identical to the naive triple loop for shapes
    /// on either side of (and crossing) the BLOCK_N/BLOCK_K boundaries,
    /// accumulating on top of a nonzero C.
    #[test]
    fn blocked_gemm_is_bit_identical(
        m in 1usize..5,
        k in 1usize..160,
        n in 1usize..300,
        seed_a in vec(fault_like_f32(), 1..8),
        seed_c in -1.0f32..1.0f32,
        nan_mode in any::<bool>(),
    ) {
        // One NaN payload family per case (literal NaNs or infinities,
        // never both): tiling at `nw != n` widths shifts which columns sit
        // in the autovectorised loop's scalar tail, and a chain holding
        // two distinct payloads resolves the survivor by x86 operand
        // order there (see the bit-identity notes on `gemm`).
        let seed_a: Vec<f32> = seed_a
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_infinite()) {
                (true, _, true) => f32::NAN,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        // Cycle the drawn values through the full operands; keeps the
        // strategy small while every position can host a special value.
        let a: Vec<f32> = cycled(&seed_a, m * k, 1, 0).iter().map(|v| v * 0.5).collect();
        let b: Vec<f32> =
            cycled(&seed_a, k * n, 7, 3).iter().map(|v| v * 0.25 + 0.01).collect();
        let mut c_naive = vec![seed_c; m * n];
        let mut c_blocked = c_naive.clone();
        gemm(m, k, n, &a, &b, &mut c_naive);
        gemm_blocked(m, k, n, &a, &b, &mut c_blocked);
        assert_bits_equal(&c_naive, &c_blocked);
        // The retired row-tiled packing kernel must agree too, through a
        // dirty recycled panel buffer.
        let mut c_packed_rows = vec![seed_c; m * n];
        let mut rows_panel = vec![f32::NAN; 13];
        gemm_packed_rows(m, k, n, &a, &b, &mut c_packed_rows, &mut rows_panel);
        assert_bits_equal(&c_naive, &c_packed_rows);
    }

    /// The register-tiled microkernels — the full `MR x NR` tile kernel
    /// behind the dispatched GEMM and the single-row lane kernel behind
    /// the early-exit probes — are bit-identical to the naive triple loop
    /// on shapes straddling every tile boundary (ragged `m % MR`,
    /// `n % NR`, `n % NR1` tails and the `KC`/`NC` block edges via the
    /// offset below), including empty/degenerate dims and fault-like
    /// NaN/±Inf payloads, accumulating on top of a nonzero C through a
    /// dirty reused scratch buffer.
    #[test]
    fn micro_kernels_are_bit_identical(
        m in 0usize..3 * MICRO_MR + 3,
        k_off in 0usize..40,
        n_off in 0usize..40,
        big_k in any::<bool>(),
        big_n in any::<bool>(),
        seed_a in vec(fault_like_f32(), 1..8),
        seed_c in -1.0f32..1.0f32,
        nan_mode in any::<bool>(),
    ) {
        // One NaN payload family per case, as in the blocked test above.
        let seed_a: Vec<f32> = seed_a
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_infinite()) {
                (true, _, true) => f32::NAN,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        // `big_*` pushes k past the KC=256 block depth and n past the
        // NC=256 panel width so multi-block accumulation is exercised;
        // the offsets walk the ragged remainders.
        let k = if big_k { 240 + k_off } else { k_off };
        let n = if big_n { 240 + n_off } else { n_off };
        let a: Vec<f32> = cycled(&seed_a, m * k, 1, 0).iter().map(|v| v * 0.5).collect();
        let b: Vec<f32> =
            cycled(&seed_a, k * n, 7, 3).iter().map(|v| v * 0.25 + 0.01).collect();
        let mut c_naive = vec![seed_c; m * n];
        let mut c_micro = c_naive.clone();
        gemm(m, k, n, &a, &b, &mut c_naive);
        let mut scratch = vec![f32::NAN; 11]; // dirty, undersized scratch
        gemm_micro(m, k, n, &a, &b, &mut c_micro, &mut scratch);
        assert_bits_equal(&c_naive, &c_micro);
        // Single-row kernels against the same operands' first A row.
        if m >= 1 {
            let a_row = &a[..k];
            let mut r_naive = vec![seed_c; n];
            let mut r_lanes = r_naive.clone();
            let mut r_row = r_naive.clone();
            gemm(1, k, n, a_row, &b, &mut r_naive);
            gemm_row_lanes(k, n, a_row, &b, &mut r_lanes);
            assert_bits_equal(&r_naive, &r_lanes);
            gemm_row(k, n, a_row, &b, &mut r_row);
            assert_bits_equal(&r_naive, &r_row);
        }
        // Boundary sanity on the exported tile constants: the draws above
        // must actually straddle full tiles and ragged remainders.
        prop_assert!(3 * MICRO_MR + 2 > MICRO_MR && 40 > MICRO_NR && 280 > MICRO_NR1);
    }

    /// All im2col-family convolution paths — naive GEMM, blocked GEMM,
    /// arena-backed, and precomputed lowering (with and without arena) —
    /// produce bit-identical outputs, with fault-like specials in both the
    /// input and the weights.
    #[test]
    fn conv_paths_are_bit_identical(
        batch in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..5,
        size in 3usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        values in vec(fault_like_f32(), 4..12),
        with_bias in any::<bool>(),
    ) {
        let input_len = batch * c_in * size * size;
        let weight_len = c_out * c_in * kernel * kernel;
        let input =
            Tensor::from_vec([batch, c_in, size, size], cycled(&values, input_len, 1, 0)).unwrap();
        let weight =
            Tensor::from_vec([c_out, c_in, kernel, kernel], cycled(&values, weight_len, 5, 1))
                .unwrap();
        let bias_t = Tensor::from_vec([c_out], cycled(&values, c_out, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        let cfg = Conv2dCfg {
            stride,
            padding: Padding::Explicit(pad),
            groups: 1,
        };

        let naive = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        let blocked = conv2d(&input, &weight, bias, cfg).unwrap();
        assert_bits_equal(naive.as_slice(), blocked.as_slice());

        let mut arena = ScratchArena::new();
        // Two rounds so the second consumes recycled (dirty) buffers.
        for _ in 0..2 {
            let with_arena = conv2d_with(&input, &weight, bias, cfg, &mut arena).unwrap();
            assert_bits_equal(naive.as_slice(), with_arena.as_slice());
        }

        let lowered = im2col_lower(&input, &weight, cfg).unwrap();
        let from_lowered = conv2d_from_lowered(&lowered, &weight, bias, None).unwrap();
        assert_bits_equal(naive.as_slice(), from_lowered.as_slice());
        let from_lowered_arena =
            conv2d_from_lowered(&lowered, &weight, bias, Some(&mut arena)).unwrap();
        assert_bits_equal(naive.as_slice(), from_lowered_arena.as_slice());
    }

    /// The batched (image-interleaved) convolution — plain, fused with the
    /// folded conv+bn(+ReLU/ReLU6) epilogue, and the single-channel probe
    /// row — is bit-identical to the per-image lowered path followed by the
    /// unfused `batch_norm`/`relu` chain, with fault-like specials in both
    /// operands and through dirty arena buffers.
    #[test]
    fn batched_conv_paths_are_bit_identical(
        batch in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        size in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        values in vec(fault_like_f32(), 4..12),
        with_bias in any::<bool>(),
        act_pick in 0u8..3,
        channel_pick in 0usize..8,
        nan_mode in any::<bool>(),
    ) {
        // One NaN payload family per case, as in a real single-fault
        // campaign: either literal NaNs (propagating `f32::NAN`'s payload)
        // or infinities (whose `0 * Inf` / `Inf - Inf` collisions are
        // uniformly the `0xFFC00000` indefinite) — never both. Mixing the
        // two in one accumulation chain leaves the surviving payload to
        // x86 operand order, which the per-image (`n = spatial`) and
        // batched (`n = images * spatial`) calls of the *same* kernel can
        // resolve differently at the autovectorised loop's tail (see the
        // bit-identity notes on `gemm`).
        let values: Vec<f32> = values
            .iter()
            .map(|&v| match (nan_mode, v.is_nan(), v.is_infinite()) {
                (true, _, true) => f32::NAN,
                (false, true, _) => f32::INFINITY,
                _ => v,
            })
            .collect();
        let input_len = batch * c_in * size * size;
        let weight_len = c_out * c_in * kernel * kernel;
        let input =
            Tensor::from_vec([batch, c_in, size, size], cycled(&values, input_len, 1, 0)).unwrap();
        let weight =
            Tensor::from_vec([c_out, c_in, kernel, kernel], cycled(&values, weight_len, 5, 1))
                .unwrap();
        // Bias and batch-norm coefficients stay finite: a NaN coefficient
        // meeting an already-NaN conv sum is a two-distinct-NaN-payload
        // collision, whose surviving payload is operand-order-dependent on
        // x86 — and the bias/affine adds compile separately per path, so
        // no shared-kernel trick (see `gemm`'s `#[inline(never)]` note)
        // can pin them. With finite coefficients every elementwise op
        // propagates the sum's payload deterministically. NaN/±Inf stay
        // fully exercised through the input and weight operands.
        let finite = |t: f32| if t.is_finite() { t } else { 0.75 };
        let fin_cycled =
            |len: usize, stride: usize, off: usize| -> Vec<f32> {
                cycled(&values, len, stride, off).into_iter().map(finite).collect()
            };
        let bias_t = Tensor::from_vec([c_out], fin_cycled(c_out, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        let cfg = Conv2dCfg {
            stride,
            padding: Padding::Explicit(pad),
            groups: 1,
        };
        let gamma = Tensor::from_vec([c_out], fin_cycled(c_out, 2, 1)).unwrap();
        let beta = Tensor::from_vec([c_out], fin_cycled(c_out, 4, 2)).unwrap();
        let mean = Tensor::from_vec([c_out], fin_cycled(c_out, 6, 0)).unwrap();
        let var =
            Tensor::from_fn([c_out], |i| (i as f32).mul_add(0.13, 0.5));
        let params = BatchNormParams {
            gamma: &gamma,
            beta: &beta,
            mean: &mean,
            var: &var,
            eps: 1e-5,
        };
        let act = match act_pick {
            0 => FusedActivation::None,
            1 => FusedActivation::Relu,
            _ => FusedActivation::Relu6,
        };

        // Per-image unfused reference: lowered conv, then batch_norm, then
        // the activation — the exact legacy forward chain. (The reference
        // must stay in the im2col family: 1x1-channel draws would send
        // `conv2d_kernel` down a depthwise kernel, which skips padded taps
        // where the im2col family multiplies explicit zeros — the two
        // families differ at padded borders under NaN/Inf weights.)
        let in_data = input.as_slice();
        let img_len = c_in * size * size;
        let mut unfused_rows = Vec::new();
        let mut plain_rows = Vec::new();
        let mut per_image_channel = Vec::new();
        let (scale, shift) = (0..c_out).map(|c| bn_channel_scale_shift(&params, c)).unzip::<f32, f32, Vec<_>, Vec<_>>();
        let channel = channel_pick % c_out;
        for n in 0..batch {
            let img = Tensor::from_vec(
                [1, c_in, size, size],
                in_data[n * img_len..][..img_len].to_vec(),
            )
            .unwrap();
            let lowered_img = im2col_lower(&img, &weight, cfg).unwrap();
            let plain = conv2d_from_lowered(&lowered_img, &weight, bias, None).unwrap();
            let bn = batch_norm(&plain, &params).unwrap();
            let activated = match act {
                FusedActivation::None => bn,
                FusedActivation::Relu => relu(&bn),
                FusedActivation::Relu6 => relu6(&bn),
            };
            unfused_rows.extend_from_slice(activated.as_slice());
            plain_rows.extend_from_slice(plain.as_slice());
            per_image_channel.extend(
                conv2d_channel_from_lowered(&lowered_img, &weight, bias, channel, None).unwrap(),
            );
        }

        let mut arena = ScratchArena::new();
        // Two rounds so the second consumes recycled (dirty) buffers; also
        // alternate the arena-less path.
        for round in 0..2 {
            let arena_opt = (round == 1).then_some(&mut arena);
            let blowered = match arena_opt {
                Some(a) => im2col_lower_batched(&input, &weight, cfg, Some(a)).unwrap(),
                None => im2col_lower_batched(&input, &weight, cfg, None).unwrap(),
            };
            let plain =
                conv2d_batched_from_lowered(&blowered, &weight, bias, None, None).unwrap();
            assert_bits_equal(&plain_rows, plain.as_slice());
            let ep = ConvEpilogue { bn: Some((&scale, &shift)), act };
            let fused = conv2d_batched_from_lowered(
                &blowered,
                &weight,
                bias,
                Some(&ep),
                Some(&mut arena),
            )
            .unwrap();
            assert_bits_equal(&unfused_rows, fused.as_slice());
            let probe =
                conv2d_channel_batched(&blowered, &weight, bias, channel, Some(&mut arena))
                    .unwrap();
            assert_bits_equal(&per_image_channel, &probe);
        }
    }
}

proptest! {
    // Tiny planes make a case cheap; many cases walk the width, stride,
    // padding and special-placement grid.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The vectorised depthwise kernel — allocating, arena-backed (twice,
    /// so the second call reads stale recycled buffers) and the one-channel
    /// probe kernel — is bit-identical to the scalar `conv2d_direct` loop,
    /// which is also what `GemmKernel::Naive` runs. Widths 1–40 put
    /// `w_out` below, at, and off every vector-lane multiple at strides 1
    /// and 2; the specials land on corner taps, which padded border
    /// pixels skip, and on input pixels (one NaN payload family per case).
    #[test]
    fn depthwise_matches_direct_bit_for_bit(
        batch in 1usize..4,
        channels in 1usize..6,
        height in 1usize..7,
        width in 1usize..41,
        stride in 1usize..3,
        kernel_pick in 0usize..3,
        pad_pick in 0usize..3,
        with_bias in any::<bool>(),
        weight_special in 0usize..DW_SPECIALS.len() + 1,
        corner in 0usize..5,
        input_nan in any::<bool>(),
        values in vec(-2.0f32..2.0, 4..12),
        channel_pick in 0usize..8,
    ) {
        let kernel = [3usize, 1, 5][kernel_pick];
        // At least the padding that fits the kernel into the plane.
        let pad = [kernel / 2, 0, kernel][pad_pick]
            .max(kernel.saturating_sub(height.min(width)).div_ceil(2));
        let mut weight_vals = cycled(&values, channels * kernel * kernel, 5, 1);
        // A special on one corner tap (`corner == 4`: all four) of every
        // channel: border pixels skip exactly these taps.
        if let Some(&bits) = DW_SPECIALS.get(weight_special) {
            let k = kernel;
            let corners = [0, k - 1, (k - 1) * k, k * k - 1];
            for c in 0..channels {
                for (i, &t) in corners.iter().enumerate() {
                    if corner == 4 || corner == i {
                        weight_vals[c * k * k + t] = f32::from_bits(bits);
                    }
                }
            }
        }
        let mut input_vals = cycled(&values, batch * channels * height * width, 1, 0);
        // NaN pixels on the border and inside, in one payload family with
        // the weight special, as in a real single-fault campaign: the
        // quietened payload of a NaN special, the default NaN when there
        // is none, and none beside ±Inf/±MAX specials (whose `Inf - Inf`
        // collisions yield the `0xFFC00000` indefinite). A chain holding
        // two distinct payloads leaves the survivor to the compiled operand
        // order of each kernel (see the bit-identity notes on `gemm`).
        let input_nan_bits = match DW_SPECIALS.get(weight_special) {
            None => Some(f32::NAN.to_bits()),
            Some(&bits) if f32::from_bits(bits).is_nan() => Some(bits | 0x0040_0000),
            Some(_) => None,
        };
        if let (true, Some(bits)) = (input_nan, input_nan_bits) {
            for (i, v) in input_vals.iter_mut().enumerate() {
                if i % 7 == 3 {
                    *v = f32::from_bits(bits);
                }
            }
        }
        let input = Tensor::from_vec([batch, channels, height, width], input_vals).unwrap();
        let weight = Tensor::from_vec([channels, 1, kernel, kernel], weight_vals).unwrap();
        let bias_t = Tensor::from_vec([channels], cycled(&values, channels, 3, 2)).unwrap();
        let bias = with_bias.then_some(&bias_t);
        let cfg = Conv2dCfg { stride, padding: Padding::Explicit(pad), groups: channels };

        let direct = conv2d_direct(&input, &weight, bias, cfg).unwrap();
        let naive = conv2d_kernel(&input, &weight, bias, cfg, GemmKernel::Naive).unwrap();
        assert_bits_equal(direct.as_slice(), naive.as_slice());
        let fast = conv2d(&input, &weight, bias, cfg).unwrap();
        assert_bits_equal(direct.as_slice(), fast.as_slice());
        let mut arena = ScratchArena::new();
        // Dirty the arena so the first call already sees stale buffers.
        let junk = arena.take(direct.len() + width * 2 + 64);
        arena.recycle(junk.into_iter().map(|_| f32::NAN).collect());
        for _ in 0..2 {
            let with_arena = conv2d_with(&input, &weight, bias, cfg, &mut arena).unwrap();
            assert_bits_equal(direct.as_slice(), with_arena.as_slice());
            arena.recycle(with_arena.into_vec());
        }

        let dims = direct.shape().dims().to_vec();
        let spatial = dims[2] * dims[3];
        let channel = channel_pick % channels;
        for round in 0..2 {
            let row = match round {
                0 => conv2d_channel_depthwise(&input, &weight, bias, cfg, channel, None),
                _ => conv2d_channel_depthwise(&input, &weight, bias, cfg, channel, Some(&mut arena)),
            }
            .unwrap();
            prop_assert_eq!(row.len(), batch * spatial);
            for n in 0..batch {
                let want = &fast.as_slice()[(n * channels + channel) * spatial..][..spatial];
                assert_bits_equal(want, &row[n * spatial..][..spatial]);
            }
            arena.recycle(row);
        }
        prop_assert!(
            conv2d_channel_depthwise(&input, &weight, bias, cfg, channels, None).is_err(),
            "out-of-range channel must be rejected"
        );
    }
}

/// Bit patterns a weight upset can leave on a depthwise tap: the default
/// quiet NaN, a signalling NaN (quietened by the first multiply), a
/// negative quiet NaN with a payload, ±Inf and ±MAX.
const DW_SPECIALS: [u32; 7] =
    [0x7fc0_0000, 0x7fa0_0000, 0xffc1_2345, 0x7f80_0000, 0xff80_0000, 0x7f7f_ffff, 0xff7f_ffff];

#[test]
fn one_channel_depthwise_rejects_non_depthwise_convs() {
    let input = Tensor::full([1, 2, 4, 4], 1.0);
    let weight = Tensor::full([2, 2, 3, 3], 1.0);
    let cfg = Conv2dCfg::same(1);
    assert!(conv2d_channel_depthwise(&input, &weight, None, cfg, 0, None).is_err());
}
