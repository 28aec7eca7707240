//! Bit-exact register-tiled GEMM microkernels.
//!
//! Every kernel in this module vectorizes **across output columns** (and,
//! for the packed tile kernel, across independent output rows): each output
//! element owns one accumulator lane, and that lane receives its `k`
//! partial products one at a time in increasing-`ki` order — exactly the
//! accumulation order of the naive [`gemm`](super::gemm) triple loop. SIMD
//! width therefore only decides *how many independent chains advance per
//! instruction*, never the order within any chain, so the results are
//! bit-identical to the naive kernel by construction: no FMA contraction
//! (every step is a separate IEEE-754 multiply and add, which rustc never
//! fuses without an explicit `mul_add`), no horizontal sums, no
//! tree reductions.
//!
//! Contrast with the classical row-of-dot-products layout, where a SIMD
//! kernel accumulates `LANES` partial sums per output element and folds
//! them with a horizontal reduction at the end — that *splits one
//! element's chain into interleaved sub-chains* and is only
//! value-approximate under f32 rounding. Lane-per-output tiling is the one
//! SIMD shape that is exact, which is why the fault-injection campaigns
//! (whose classifications compare activations bitwise) can run on it.
//!
//! Two kernels are exposed:
//!
//! - [`gemm_micro`] — the packed register-tiled kernel for `m >= 2`:
//!   [`MR`]`x`[`NR`] register tiles fed from `MR`-interleaved A strips and
//!   `NR`-interleaved B strips, blocked over `k` ([`KC`]) and `n` ([`NC`])
//!   so the active panels stay cache-resident. Full tiles run a
//!   const-generic microkernel whose accumulator array lowers to
//!   registers; ragged edge tiles (`m % MR`, `n % NR`, and the final
//!   partial `k`/`n` blocks) take a runtime-width copy of the same loop.
//! - [`gemm_row_lanes`] — the `m == 1` variant behind the early-exit row
//!   probes (`conv2d_channel_from_lowered`, `linear_row`): one output row
//!   held as [`NR1`]-wide lane groups across the full `k` depth, reading B
//!   directly (a single row has no panel reuse to pay packing for).
//!
//! `#[inline(never)]` on the public entry points pins one compiled copy of
//! each accumulation loop per code path, for the NaN-payload reasons
//! documented on [`gemm`](super::gemm).

use super::gemm::gemm;

/// Rows per register tile of [`gemm_micro`]. With [`NR`] = 8 the tile holds
/// `4 x 8 = 32` accumulator lanes — eight 4-wide vectors at the x86-64
/// baseline, within the sixteen-register budget alongside two B-row loads
/// and one broadcast A value (wider ISAs pack the same lanes into fewer,
/// wider registers).
pub const MR: usize = 4;

/// Column lanes per register tile of [`gemm_micro`].
pub const NR: usize = 8;

/// Lane width of the single-row kernel [`gemm_row_lanes`]: with only one
/// output row the whole register budget goes to column lanes.
pub const NR1: usize = 32;

/// `k`-block depth of [`gemm_micro`]: the reduction extent packed into one
/// pair of A/B panels. Accumulation across `k` blocks revisits each output
/// tile in increasing-`k0` order (load tile, extend its chains, store), so
/// blocking never reorders any element's chain — an f32 store/load
/// round-trip is exact.
const KC: usize = 256;

/// `n`-block width of [`gemm_micro`]: one packed B panel covers
/// `KC x NC` = 256 KiB of f32, sized to stay L2-resident while every
/// `m`-strip streams over it.
const NC: usize = 256;

/// Minimum `n` for [`gemm_row_lanes`] to beat the naive loop: below one
/// lane group the tiled pass degenerates into the edge loop plus call
/// overhead. [`gemm_row`] falls back to [`gemm`] under this.
const ROW_MIN_N: usize = NR1;

/// Maximum B footprint for [`gemm_row_lanes`]: the row kernel reads B in
/// [`NR1`]-wide column groups at row stride `n`, so each group's pass is a
/// strided walk the prefetcher only keeps fed while B is L2-resident.
/// Measured on the ResNet-20 probe shapes: 1.1-2.0x over naive up to this
/// bound, 0.9x once B spills (`1x576x1024`, 2.3 MiB) — there the naive
/// loop's purely sequential B stream wins and [`gemm_row`] falls back.
const ROW_MAX_B_BYTES: usize = 1 << 20;

/// Minimum multiply count for [`gemm_micro`] to amortize its A/B packing
/// passes; [`gemm_dispatch`](super::gemm_blocked) routes smaller problems
/// to the naive kernel. The floor is deliberately low — packing costs
/// `O(m*k + k*n)` against `O(m*k*n)` multiplies, so anything with a real
/// inner dimension clears it — and the `kernels` bench smoke gate verifies
/// no dispatched shape measures slower than naive.
const MICRO_MIN_MULS: usize = 16 * 1024;

/// The full-tile microkernel: an `MR_ x NR_` accumulator tile held in
/// registers across one packed `k` block.
///
/// `ap` is an `MR_`-interleaved A strip (`ap[ki * MR_ + r]`), `bp` an
/// `NR_`-interleaved B strip (`bp[ki * NR_ + j]`); their lengths fix the
/// block depth. `c` holds the tile's rows at stride `c_stride`. Each
/// `acc[r][j]` starts from the current `c` value and appends the block's
/// partial products in increasing-`ki` order — one multiply, one add per
/// step, exactly the naive kernel's per-element arithmetic.
#[inline(never)]
fn micro_full<const MR_: usize, const NR_: usize>(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    c_stride: usize,
) {
    let mut acc = [[0.0f32; NR_]; MR_];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * c_stride..][..NR_]);
    }
    for (a_k, b_k) in ap.chunks_exact(MR_).zip(bp.chunks_exact(NR_)) {
        for (r, row) in acc.iter_mut().enumerate() {
            let a_v = a_k[r];
            for (acc_v, &b_v) in row.iter_mut().zip(b_k) {
                *acc_v += a_v * b_v;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * c_stride..][..NR_].copy_from_slice(row);
    }
}

/// Runtime-width edge tile: the same loop as [`micro_full`] for the ragged
/// `m % MR` / `n % NR` borders, with `mr <= MR` rows and `nr <= NR` lanes
/// live. Slower (the accumulators may not all stay in registers) but
/// bit-identical — the per-element chain is the same one-multiply-one-add
/// sequence in the same order — and edges are an `O(1/MR + 1/NR)` sliver
/// of the iteration space.
fn micro_edge(mr: usize, nr: usize, ap: &[f32], bp: &[f32], c: &mut [f32], c_stride: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[r * c_stride..][..nr]);
    }
    for (a_k, b_k) in ap.chunks_exact(mr).zip(bp.chunks_exact(nr)) {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            let a_v = a_k[r];
            for (acc_v, &b_v) in row[..nr].iter_mut().zip(b_k) {
                *acc_v += a_v * b_v;
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * c_stride..][..nr].copy_from_slice(&row[..nr]);
    }
}

/// Packs the `kw`-deep slice of A rows `m0..m0+mw` (of a row-major
/// `m x k` A) into `MR`-interleaved strips: strip `s` holds rows
/// `m0 + s*MR ..` as `ap[strip_base + ki * sw + r]` with `sw` the strip's
/// live row count (`MR`, or the ragged tail). Pure data movement.
fn pack_a(a: &[f32], k: usize, m0: usize, mw: usize, k0: usize, kw: usize, ap: &mut [f32]) {
    let mut base = 0;
    let mut r0 = 0;
    while r0 < mw {
        let sw = MR.min(mw - r0);
        for r in 0..sw {
            let src = &a[(m0 + r0 + r) * k + k0..][..kw];
            for (ki, &v) in src.iter().enumerate() {
                ap[base + ki * sw + r] = v;
            }
        }
        base += kw * sw;
        r0 += sw;
    }
}

/// Packs the `kw x nw` block of B at `(k0, n0)` (of a row-major `k x n` B)
/// into `NR`-interleaved strips: strip `t` holds columns `n0 + t*NR ..` as
/// `bp[strip_base + ki * tw + j]` with `tw` the strip's live lane count.
/// Pure data movement.
fn pack_b(b: &[f32], n: usize, k0: usize, kw: usize, n0: usize, nw: usize, bp: &mut [f32]) {
    let mut base = 0;
    let mut j0 = 0;
    while j0 < nw {
        let tw = NR.min(nw - j0);
        for ki in 0..kw {
            let src = &b[(k0 + ki) * n + n0 + j0..][..tw];
            bp[base + ki * tw..][..tw].copy_from_slice(src);
        }
        base += kw * tw;
        j0 += tw;
    }
}

/// Register-tiled matrix multiply `c[m][n] += a[m][k] * b[k][n]`,
/// bit-identical to [`gemm`](super::gemm).
///
/// Blocks the reduction over `KC` and the columns over `NC`, packs the
/// active A block into `MR`-interleaved strips and the active B block into
/// `NR`-interleaved strips (so the microkernel's operand streams are
/// contiguous), and walks `MR x NR` register tiles over the block. Each
/// output element's partial products still arrive strictly in
/// increasing-`ki` order — `k` blocks are visited in order and extend the
/// stored accumulation chain exactly where it left off — so tiling,
/// packing, and SIMD lane width are all invisible in the result bits (see
/// the module docs for the lane-per-output argument, and the
/// `kernel_bitident` proptests for the pin).
///
/// `scratch` holds the packed panels (`~(min(m, KC-rounded) + NC) * KC`
/// floats); it is resized as needed and holds unspecified contents on
/// return — recycle it through a
/// [`ScratchArena`](crate::ScratchArena) on hot paths.
///
/// # Panics
///
/// Panics when the slice lengths do not match `m*k` / `k*n` / `m*n`, in
/// release builds too (a silent mis-multiply would corrupt fault
/// classifications).
#[inline(never)]
pub fn gemm_micro(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "gemm: lhs length");
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    assert_eq!(c.len(), m * n, "gemm: out length");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let ap_len = m * KC.min(k);
    let bp_len = KC.min(k) * NC.min(n);
    if scratch.len() < ap_len + bp_len {
        scratch.resize(ap_len + bp_len, 0.0);
    }
    let (ap, bp) = scratch.split_at_mut(ap_len);
    for k0 in (0..k).step_by(KC) {
        let kw = KC.min(k - k0);
        pack_a(a, k, 0, m, k0, kw, ap);
        for n0 in (0..n).step_by(NC) {
            let nw = NC.min(n - n0);
            pack_b(b, n, k0, kw, n0, nw, bp);
            let mut a_base = 0;
            let mut m0 = 0;
            while m0 < m {
                let mw = MR.min(m - m0);
                let a_strip = &ap[a_base..a_base + kw * mw];
                let mut b_base = 0;
                let mut j0 = 0;
                while j0 < nw {
                    let jw = NR.min(nw - j0);
                    let b_strip = &bp[b_base..b_base + kw * jw];
                    let c_tile = &mut c[m0 * n + n0 + j0..];
                    if mw == MR && jw == NR {
                        micro_full::<MR, NR>(a_strip, b_strip, c_tile, n);
                    } else {
                        micro_edge(mw, jw, a_strip, b_strip, c_tile, n);
                    }
                    b_base += kw * jw;
                    j0 += jw;
                }
                a_base += kw * mw;
                m0 += mw;
            }
        }
    }
}

/// The full-width lane group of [`gemm_row_lanes`]: [`NR1`] accumulator
/// lanes over the whole `k` depth, reading B directly at row stride
/// `n` (`b_cols` starts at the group's first column).
#[inline(never)]
fn row_full(k: usize, n: usize, a: &[f32], b_cols: &[f32], c: &mut [f32]) {
    let mut acc = [0.0f32; NR1];
    acc.copy_from_slice(&c[..NR1]);
    for (ki, &a_v) in a.iter().enumerate().take(k) {
        let b_k = &b_cols[ki * n..][..NR1];
        for (acc_v, &b_v) in acc.iter_mut().zip(b_k) {
            *acc_v += a_v * b_v;
        }
    }
    c[..NR1].copy_from_slice(&acc);
}

/// Runtime-width edge group of [`gemm_row_lanes`] for the ragged
/// `n % NR1` columns.
fn row_edge(k: usize, n: usize, nr: usize, a: &[f32], b_cols: &[f32], c: &mut [f32]) {
    let mut acc = [0.0f32; NR1];
    acc[..nr].copy_from_slice(&c[..nr]);
    for (ki, &a_v) in a.iter().enumerate().take(k) {
        let b_k = &b_cols[ki * n..][..nr];
        for (acc_v, &b_v) in acc[..nr].iter_mut().zip(b_k) {
            *acc_v += a_v * b_v;
        }
    }
    c[..nr].copy_from_slice(&acc[..nr]);
}

/// Single-row register-tiled multiply `c[n] += a[k] . b[k][n]`,
/// bit-identical to `gemm(1, k, n, ..)`.
///
/// The row kernel behind the early-exit probes: one weight row against a
/// full im2col panel. Column lanes are held in registers across the whole
/// `k` depth, so C is touched once instead of `k` times; B is read in
/// place (one row of output has no reuse to amortize packing). Each
/// output lane's chain is the naive kernel's chain, in the same order.
///
/// # Panics
///
/// Panics when the slice lengths do not match `k` / `k*n` / `n`.
#[inline(never)]
pub fn gemm_row_lanes(k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k, "gemm: lhs length");
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    assert_eq!(c.len(), n, "gemm: out length");
    let mut n0 = 0;
    while n0 + NR1 <= n {
        row_full(k, n, a, &b[n0..], &mut c[n0..]);
        n0 += NR1;
    }
    if n0 < n {
        row_edge(k, n, n - n0, a, &b[n0..], &mut c[n0..]);
    }
}

/// The `m == 1` dispatch entry: [`gemm_row_lanes`] when the row is wide
/// enough for at least one full lane group *and* B is small enough for
/// the lane kernel's strided reads to stay cache-fed (`ROW_MAX_B_BYTES`),
/// the naive kernel otherwise. Bit-identical either way.
///
/// # Panics
///
/// Same length checks as [`gemm_row_lanes`].
pub fn gemm_row(k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if gemm_selected_kernel(1, k, n) == "row" {
        gemm_row_lanes(k, n, a, b, c);
    } else {
        gemm(1, k, n, a, b, c);
    }
}

/// Whether the size-based dispatch selects the register-tiled microkernel
/// family for an `m x k x n` problem (`"micro"` / `"row"`), or falls back
/// to the naive loop (`"naive"`). Exposed so benches and CI gates can
/// assert the dispatch decision itself, not just its timing.
pub fn gemm_selected_kernel(m: usize, k: usize, n: usize) -> &'static str {
    if m == 1 {
        let row = n >= ROW_MIN_N && k * n * std::mem::size_of::<f32>() <= ROW_MAX_B_BYTES;
        return if row { "row" } else { "naive" };
    }
    if m >= 2 && n >= NR && m * k * n >= MICRO_MIN_MULS {
        "micro"
    } else {
        "naive"
    }
}

/// The general dispatch used by [`gemm_blocked`](super::gemm_blocked):
/// routes to [`gemm_row`] (`m == 1`), [`gemm_micro`] (large enough to
/// amortize packing), or the naive kernel (everything else), per
/// [`gemm_selected_kernel`]. All three tiers are bit-identical.
pub fn gemm_dispatch(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    match gemm_selected_kernel(m, k, n) {
        "row" => gemm_row_lanes(k, n, a, b, c),
        "micro" => gemm_micro(m, k, n, a, b, c, scratch),
        _ => gemm(m, k, n, a, b, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill touching negatives and varied
    /// magnitudes.
    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 1000) as f32 * 0.013 - 6.5
            })
            .collect()
    }

    fn assert_bits(c0: &[f32], c1: &[f32], what: &str) {
        let same = c0.iter().zip(c1).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what} diverged");
    }

    #[test]
    fn micro_matches_naive_across_tile_and_block_boundaries() {
        // Shapes straddling MR/NR/KC/NC, including exact multiples,
        // one-past, ragged everything, and degenerate dims.
        let mut scratch = Vec::new();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 5),
            (MR, 7, NR),
            (MR + 1, KC, NC),
            (MR * 3 + 2, KC + 1, NC + NR + 3),
            (5, 300, 17),
            (16, 144, 1024),
            (3, 2 * KC + 5, 40),
            (7, 0, 9),
            (0, 4, 4),
            (4, 4, 0),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c0 = fill(m * n, 3); // nonzero accumulator base
            let mut c1 = c0.clone();
            gemm(m, k, n, &a, &b, &mut c0);
            gemm_micro(m, k, n, &a, &b, &mut c1, &mut scratch);
            assert_bits(&c0, &c1, &format!("micro {m}x{k}x{n}"));
        }
    }

    #[test]
    fn row_lanes_matches_naive_including_ragged_tail() {
        for &(k, n) in &[(1usize, 1usize), (9, NR1), (9, NR1 - 1), (144, 1024), (7, NR1 * 2 + 5)] {
            let a = fill(k, 4);
            let b = fill(k * n, 5);
            let mut c0 = fill(n, 6);
            let mut c1 = c0.clone();
            gemm(1, k, n, &a, &b, &mut c0);
            gemm_row(k, n, &a, &b, &mut c1);
            assert_bits(&c0, &c1, &format!("row 1x{k}x{n}"));
        }
    }

    #[test]
    fn micro_propagates_nan_and_inf_bitwise() {
        // One payload family per operand mix (see the gemm bit-identity
        // notes): literal NaNs here, infinities in the row test below.
        let (m, k, n) = (MR + 2, 140, NC + 13);
        let mut a = fill(m * k, 9);
        let mut b = fill(k * n, 10);
        a[5] = f32::NAN;
        a[k + 3] = f32::NAN;
        b[17] = f32::NAN;
        b[k * n - 1] = f32::NAN;
        let mut c0 = vec![0.0; m * n];
        let mut c1 = vec![0.0; m * n];
        let mut scratch = vec![f32::NAN; 3]; // dirty, undersized scratch
        gemm(m, k, n, &a, &b, &mut c0);
        gemm_micro(m, k, n, &a, &b, &mut c1, &mut scratch);
        assert_bits(&c0, &c1, "micro NaN");
    }

    #[test]
    fn row_lanes_propagates_inf_bitwise() {
        let (k, n) = (50, NR1 + 7);
        let mut a = fill(k, 11);
        let mut b = fill(k * n, 12);
        a[0] = 0.0; // 0 * Inf => the indefinite NaN, same family throughout
        b[3] = f32::INFINITY;
        b[n + 4] = f32::NEG_INFINITY;
        a[k - 1] = f32::INFINITY;
        let mut c0 = fill(n, 13);
        let mut c1 = c0.clone();
        gemm(1, k, n, &a, &b, &mut c0);
        gemm_row_lanes(k, n, &a, &b, &mut c1);
        assert_bits(&c0, &c1, "row Inf");
    }

    #[test]
    fn dispatch_tiers_cover_the_space() {
        assert_eq!(gemm_selected_kernel(1, 9, 1024), "row");
        assert_eq!(gemm_selected_kernel(1, 9, 4), "naive");
        assert_eq!(gemm_selected_kernel(1, 576, 1024), "naive"); // B spills L2
        assert_eq!(gemm_selected_kernel(1, 288, 512), "row"); // B L2-resident
        assert_eq!(gemm_selected_kernel(64, 576, 1024), "micro");
        assert_eq!(gemm_selected_kernel(32, 288, 512), "micro");
        assert_eq!(gemm_selected_kernel(4, 4, 4), "naive"); // under the mul floor
        assert_eq!(gemm_selected_kernel(10, 64, 1), "naive"); // n < NR
    }
}
