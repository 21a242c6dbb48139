//! Blocked, lane-vectorized matmul kernels behind [`Matrix`](crate::Matrix)'s
//! multiply API.
//!
//! # Kernel architecture
//!
//! Each multiply variant has exactly two implementations: the blocked dense
//! kernel in this module and the zero-skipping reference walk retained in
//! `matrix.rs` (`matmul_into_reference`, `matmul_tn_into_reference`). Both
//! obey one non-negotiable rule: **the accumulation order of every output
//! element is the same** — `k` strictly ascending, products added one at a
//! time, no reassociation, no FMA contraction, no horizontal sums. Blocking
//! therefore only reshapes the *traversal* (which elements are in registers
//! when), never the per-element arithmetic, so the blocked kernels are
//! bit-identical to the reference and the packed==masked / serial==sharded
//! contracts hold without golden updates. If a future kernel must
//! reassociate (e.g. a true SIMD dot product), it cannot share these entry
//! points: it needs its own opt-in call sites and re-pinned goldens, per the
//! ROADMAP determinism note.
//!
//! `matmul` and `matmul_tn` accumulate into `out`, and the output row is the
//! vectorization axis. A [`MR`]-row × [`BLK`]-column tile of `out` is held in
//! `[f32; BLK]` register accumulators, loaded from `out`'s prior content, and
//! the whole `k` loop streams over it — one load/store of the output tile per
//! full reduction instead of one per `k` step. Per output element the terms
//! still arrive in ascending `k`; vectorization is *across* independent
//! output columns, which commutes with nothing. The two variants share the
//! micro-kernel and differ only in how they pack the `a` panel. `A·Bᵀ` has
//! no kernel of its own: `Matrix::matmul_nt_into_with` transposes `B` and
//! runs `matmul` on a zeroed output, which sums the same terms in the same
//! order as a dot product starting from `+0.0`.
//!
//! Tails (output columns beyond the last full lane block, rows beyond the
//! last row block) fall through to loops with the same per-element order.
//!
//! # Zero-skipping and the density probe
//!
//! The reference walks skip `a == 0.0` operands, so masked-dense sparse
//! training gets cheaper with sparsity: one branch elides a whole contiguous
//! `n`-wide row update, which a register tile cannot match. On fully dense
//! operands that branch is pure overhead, so the blocked kernels never test
//! for zero, and [`Density`] selects between the two implementations, by
//! default via a cheap strided [`probe`] of the left operand.
//!
//! The two are bit-identical whenever the elided terms only ever add `±0.0`
//! onto an accumulator that is not `-0.0`: all operands finite, and the
//! prior content of `out` free of `-0.0` (the pool hands out `+0.0`-filled
//! buffers, and an accumulator that starts at `+0.0` can never reach `-0.0`
//! under IEEE-754 addition, so both conditions hold on every in-repo call
//! path). The probe can therefore pick either implementation without
//! observable effect; `proptest_kernels.rs` and the unit tests below pin
//! this.

/// Lane width the kernels are written around: 8 × f32 chunks (two 128-bit
/// vectors on the SSE2 baseline, one on AVX targets).
pub const LANE: usize = 8;
/// Output-column block held in registers by the accumulate kernels. One
/// lane: a [`MR`]`×`[`BLK`] f32 tile is 8 baseline vector registers, which
/// leaves room for the operand loads (a 2-lane tile spills).
pub const BLK: usize = LANE;
/// Output rows blocked together by the accumulate kernels.
pub const MR: usize = 4;

/// How a multiply should treat the left operand's exact zeros.
///
/// Both choices produce bit-identical results (see the module docs for the
/// precondition); the hint only moves wall-clock. `Auto` runs a strided
/// [`probe`] over the left operand. Every library call site, packed
/// execution included, goes through the hint-free `matmul*_into` entry
/// points and so uses `Auto`; `Dense` and `Sparse` pin one implementation
/// for property tests and kernel micro-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Density {
    /// Probe the left operand and pick a flavour (the default).
    #[default]
    Auto,
    /// Branch-free kernel: visit every term, including exact zeros.
    Dense,
    /// Zero-skipping kernel: elide `a == 0.0` terms (reference semantics).
    Sparse,
}

/// Elements sampled by the [`Density::Auto`] probe.
const PROBE_SAMPLES: usize = 64;
/// A sample with more than one zero per [`PROBE_ZERO_DEN`] elements selects
/// the zero-skipping flavour.
const PROBE_ZERO_DEN: usize = 8;

/// Strided density probe: `true` means "dense enough for the blocked
/// kernel". Deterministic (fixed sample positions, no randomness).
pub fn probe(a: &[f32]) -> bool {
    if a.is_empty() {
        return true;
    }
    let samples = a.len().min(PROBE_SAMPLES);
    let stride = a.len() / samples;
    let mut zeros = 0usize;
    for s in 0..samples {
        if a[s * stride] == 0.0 {
            zeros += 1;
        }
    }
    zeros * PROBE_ZERO_DEN <= samples
}

/// Resolves a [`Density`] hint against the left operand.
#[inline]
pub(crate) fn resolve(density: Density, a: &[f32]) -> bool {
    match density {
        Density::Auto => probe(a),
        Density::Dense => true,
        Density::Sparse => false,
    }
}

/// Reduction-panel depth: `a` values are repacked into a column-major
/// `[k][row]` stack panel of at most `KC` steps so the micro-kernel reads
/// both operands contiguously (and the transposed kernel loses its strided
/// loads). `MR * KC` f32 = 4 KiB of stack.
pub const KC: usize = 256;

/// The shared accumulate micro-kernel: one `MR×BLK` register tile of `out`,
/// one packed `a` panel (`kc` steps × `MR` rows, `[k][row]` layout), the
/// `BLK`-wide `b` row segments starting at `b_off` with row stride `n`.
/// Terms are added in ascending panel order — the caller feeds panels in
/// ascending `k`, so every output element sees the reference order.
#[inline(always)]
fn accumulate_tile(apanel: &[f32], b: &[f32], b_off: usize, n: usize, acc: &mut [[f32; BLK]; MR]) {
    for (kk, a_step) in apanel.chunks_exact(MR).enumerate() {
        let bv: &[f32; BLK] = b[b_off + kk * n..b_off + kk * n + BLK]
            .try_into()
            .expect("lane");
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = a_step[r];
            for (o, &bl) in acc_r.iter_mut().zip(bv.iter()) {
                *o += av * bl;
            }
        }
    }
}

/// Column-tail companion of [`accumulate_tile`]: the same panel walk for the
/// `< BLK` trailing output columns, scalar, same per-element order.
fn accumulate_tail(
    apanel: &[f32],
    b: &[f32],
    k0: usize,
    n: usize,
    j: usize,
    out: &mut [f32],
    i: usize,
) {
    for (kk, a_step) in apanel.chunks_exact(MR).enumerate() {
        let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
        for (r, &av) in a_step.iter().enumerate() {
            let out_row = &mut out[(i + r) * n..(i + r + 1) * n];
            for c in j..n {
                out_row[c] += av * b_row[c];
            }
        }
    }
}

/// `out[m×n] += a[m×k] · b[k×n]`, blocked, reference accumulation order.
pub(crate) fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, kdim: usize, n: usize) {
    let mut apanel = [0.0f32; MR * KC];
    let mut i = 0;
    while i + MR <= m {
        // Ascending k panels; within a panel, ascending k micro-steps — the
        // per-element accumulation order is exactly the reference order.
        let mut k0 = 0;
        while k0 < kdim {
            let kc = (kdim - k0).min(KC);
            for r in 0..MR {
                let a_row = &a[(i + r) * kdim + k0..(i + r) * kdim + k0 + kc];
                for (kk, &v) in a_row.iter().enumerate() {
                    apanel[kk * MR + r] = v;
                }
            }
            let panel = &apanel[..kc * MR];
            let mut j = 0;
            while j + BLK <= n {
                let mut acc = [[0.0f32; BLK]; MR];
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    acc_r.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + BLK]);
                }
                accumulate_tile(panel, b, k0 * n + j, n, &mut acc);
                for (r, acc_r) in acc.iter().enumerate() {
                    out[(i + r) * n + j..(i + r) * n + j + BLK].copy_from_slice(acc_r);
                }
                j += BLK;
            }
            if j < n {
                accumulate_tail(panel, b, k0, n, j, out, i);
            }
            k0 += kc;
        }
        i += MR;
    }
    // Row tail: the i-k-j walk.
    for i in i..m {
        let a_row = &a[i * kdim..(i + 1) * kdim];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (k, &av) in a_row.iter().enumerate() {
            let b_row = &b[k * n..(k + 1) * n];
            for (o, &bl) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bl;
            }
        }
    }
}

/// `out[m×n] += aᵀ · b` with `a` stored `r×m`, `b` stored `r×n` — blocked,
/// reference accumulation order. Shares [`accumulate_tile`] with [`matmul`];
/// only the panel packing differs (`a`'s rows are the reduction axis, so
/// packing de-strides the column loads).
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], r: usize, m: usize, n: usize) {
    let mut apanel = [0.0f32; MR * KC];
    let mut i = 0;
    while i + MR <= m {
        let mut k0 = 0;
        while k0 < r {
            let kc = (r - k0).min(KC);
            for kk in 0..kc {
                let a_step = &a[(k0 + kk) * m + i..(k0 + kk) * m + i + MR];
                apanel[kk * MR..kk * MR + MR].copy_from_slice(a_step);
            }
            let panel = &apanel[..kc * MR];
            let mut j = 0;
            while j + BLK <= n {
                let mut acc = [[0.0f32; BLK]; MR];
                for (rr, acc_r) in acc.iter_mut().enumerate() {
                    acc_r.copy_from_slice(&out[(i + rr) * n + j..(i + rr) * n + j + BLK]);
                }
                accumulate_tile(panel, b, k0 * n + j, n, &mut acc);
                for (rr, acc_r) in acc.iter().enumerate() {
                    out[(i + rr) * n + j..(i + rr) * n + j + BLK].copy_from_slice(acc_r);
                }
                j += BLK;
            }
            if j < n {
                accumulate_tail(panel, b, k0, n, j, out, i);
            }
            k0 += kc;
        }
        i += MR;
    }
    for i in i..m {
        for k in 0..r {
            let av = a[k * m + i];
            let b_row = &b[k * n..(k + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bl) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bl;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn mixed(rows: usize, cols: usize, zero_every: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            if (r * cols + c) % zero_every == 0 {
                0.0
            } else {
                ((r * cols + c) as f32 * 0.37).sin()
            }
        })
    }

    /// Satellite: the zero-skipping and branch-free flavours are the same
    /// computation bit for bit — the skip only ever elides `+= 0.0`.
    #[test]
    fn skip_and_dense_flavours_are_bit_identical() {
        let a = mixed(9, 17, 3);
        let b = mixed(17, 21, 5);
        let bt = b.transpose();
        for density in [Density::Sparse, Density::Dense, Density::Auto] {
            let mut out = Matrix::zeros(9, 21);
            a.matmul_into_with(&b, &mut out, density);
            let mut reference = Matrix::zeros(9, 21);
            a.matmul_into_reference(&b, &mut reference);
            assert_eq!(bits(&out), bits(&reference), "matmul {density:?}");

            let mut out_tn = Matrix::zeros(17, 21);
            a.matmul_tn_into_with(&mixed(9, 21, 4), &mut out_tn, density);
            let mut ref_tn = Matrix::zeros(17, 21);
            a.matmul_tn_into_reference(&mixed(9, 21, 4), &mut ref_tn);
            assert_eq!(bits(&out_tn), bits(&ref_tn), "matmul_tn {density:?}");

            let mut out_nt = Matrix::zeros(9, 21);
            a.matmul_nt_into_with(&bt, &mut out_nt, density);
            let mut ref_nt = Matrix::zeros(9, 21);
            a.matmul_nt_into_reference(&bt, &mut ref_nt);
            assert_eq!(bits(&out_nt), bits(&ref_nt), "matmul_nt {density:?}");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn probe_classifies_density() {
        assert!(probe(&[1.0; 100]));
        assert!(probe(&[]));
        let mostly_zero: Vec<f32> = (0..100)
            .map(|i| if i % 4 == 0 { 1.0 } else { 0.0 })
            .collect();
        assert!(!probe(&mostly_zero));
        // One zero in 64 dense samples stays under the 1-in-8 threshold.
        let nearly_dense: Vec<f32> = (0..128).map(|i| if i == 0 { 0.0 } else { 2.0 }).collect();
        assert!(probe(&nearly_dense));
    }

    /// Accumulation on prior `out` content is preserved (the blocked tiles
    /// load their accumulators from `out`, they do not start at zero).
    #[test]
    fn blocked_kernels_accumulate_on_prior_output() {
        let a = mixed(5, 6, 4);
        let b = mixed(6, 19, 3);
        let mut out = Matrix::from_fn(5, 19, |r, c| (r + c) as f32 * 0.5);
        let mut reference = out.clone();
        a.matmul_into(&b, &mut out);
        a.matmul_into_reference(&b, &mut reference);
        assert_eq!(bits(&out), bits(&reference));
    }
}
