//! Property-based bit-identity pins for the matmul dispatch.
//!
//! `matmul_into` and `matmul_tn_into` run the blocked, lane-vectorized tile
//! kernel on a dense left operand and the zero-skipping reference walk on a
//! sparse one; `matmul_nt_into_with` transposes its right operand and runs
//! the same dispatch, so its property pins `A·(Bᵀ)` on the shared tile
//! against the dot-product reference. Each must be *bit-identical* to the
//! retained reference scalar kernels for every shape (including the
//! lane-tail widths 1, 7, 9, 17 the blocking has to handle as partial
//! tiles), every operand zero density, and every [`Density`] hint — the
//! packed==masked and serial==sharded contracts ride on it.

use fedlps_tensor::{rng_from_seed, Density, Matrix};
use proptest::prelude::*;
use rand::Rng;

/// A matrix whose entries are exactly zero with probability `zero_density`.
fn sparse_matrix(rows: usize, cols: usize, zero_density: f64, seed: u64) -> Matrix {
    let mut rng = rng_from_seed(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0.0f64..1.0) < zero_density {
            0.0
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Shapes drawn to hit full tiles, single lanes and every tail class.
const DIMS: [usize; 9] = [1, 2, 7, 8, 9, 16, 17, 32, 33];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked `matmul_into` == reference, all hints, any density.
    #[test]
    fn matmul_blocked_matches_reference(mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(),
                                        ni in 0usize..DIMS.len(), density in 0.0f64..1.0,
                                        seed in 0u64..1_000_000) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = sparse_matrix(m, k, density, seed);
        let b = sparse_matrix(k, n, density * 0.5, seed ^ 0x9E37);
        let mut reference = Matrix::zeros(m, n);
        a.matmul_into_reference(&b, &mut reference);
        for hint in [Density::Auto, Density::Dense, Density::Sparse] {
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_with(&b, &mut out, hint);
            prop_assert_eq!(bits(&out), bits(&reference), "hint {:?}", hint);
        }
    }

    /// Blocked `matmul_tn_into` == reference, all hints, any density.
    #[test]
    fn matmul_tn_blocked_matches_reference(ri in 0usize..DIMS.len(), mi in 0usize..DIMS.len(),
                                           ni in 0usize..DIMS.len(), density in 0.0f64..1.0,
                                           seed in 0u64..1_000_000) {
        let (r, m, n) = (DIMS[ri], DIMS[mi], DIMS[ni]);
        let a = sparse_matrix(r, m, density, seed);
        let b = sparse_matrix(r, n, density * 0.5, seed ^ 0x51F0);
        let mut reference = Matrix::zeros(m, n);
        a.matmul_tn_into_reference(&b, &mut reference);
        for hint in [Density::Auto, Density::Dense, Density::Sparse] {
            let mut out = Matrix::zeros(m, n);
            a.matmul_tn_into_with(&b, &mut out, hint);
            prop_assert_eq!(bits(&out), bits(&reference), "hint {:?}", hint);
        }
    }

    /// `matmul_nt_into_with` (transpose + tile) == reference, all hints, any
    /// density.
    #[test]
    fn matmul_nt_blocked_matches_reference(mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(),
                                           ri in 0usize..DIMS.len(), density in 0.0f64..1.0,
                                           seed in 0u64..1_000_000) {
        let (m, k, r) = (DIMS[mi], DIMS[ki], DIMS[ri]);
        let a = sparse_matrix(m, k, density, seed);
        let b = sparse_matrix(r, k, density * 0.5, seed ^ 0xC0DE);
        let mut reference = Matrix::zeros(m, r);
        a.matmul_nt_into_reference(&b, &mut reference);
        for hint in [Density::Auto, Density::Dense, Density::Sparse] {
            let mut out = Matrix::zeros(m, r);
            a.matmul_nt_into_with(&b, &mut out, hint);
            prop_assert_eq!(bits(&out), bits(&reference), "hint {:?}", hint);
        }
    }

    /// The accumulate kernels load their register tiles from `out`'s prior
    /// content; accumulation on a pre-filled output must stay bit-identical
    /// to the reference for both accumulate variants.
    #[test]
    fn accumulation_on_prior_output_is_preserved(mi in 0usize..DIMS.len(),
                                                 ki in 0usize..DIMS.len(),
                                                 ni in 0usize..DIMS.len(),
                                                 density in 0.0f64..1.0,
                                                 seed in 0u64..1_000_000) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = sparse_matrix(m, k, density, seed);
        let b = sparse_matrix(k, n, 0.2, seed ^ 0xBEEF);
        // Prior content free of -0.0 (the documented precondition shared by
        // every in-repo call site, whose outputs are pool-zeroed).
        let prior = sparse_matrix(m, n, 0.3, seed ^ 0xF00D);
        let mut reference = prior.clone();
        a.matmul_into_reference(&b, &mut reference);
        let mut out = prior.clone();
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(bits(&out), bits(&reference));

        let at = sparse_matrix(k, m, density, seed ^ 0xAB);
        let mut ref_tn = prior.clone();
        at.matmul_tn_into_reference(&b, &mut ref_tn);
        let mut out_tn = prior.clone();
        at.matmul_tn_into(&b, &mut out_tn);
        prop_assert_eq!(bits(&out_tn), bits(&ref_tn));
    }
}
