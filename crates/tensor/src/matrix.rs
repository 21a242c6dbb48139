//! A minimal row-major dense matrix over `f32`.
//!
//! The matrix type deliberately exposes its backing storage (`as_slice`,
//! `as_mut_slice`) so the neural-network layers can treat weight blocks as
//! contiguous parameter ranges — the FedLPS mask machinery operates on flat
//! parameter vectors and needs stable offsets into them.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::kernels::{self, Density};

/// Row-major dense matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix with entries drawn i.i.d. from `N(0, std^2)`.
    pub fn random_normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(crate::rng::sample_normal(rng) * std);
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Sets a single element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        *self.get_mut(r, c) = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// `self * other` using a cache-friendly i-k-j loop ordering.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`matmul`](Self::matmul) writing into a caller-provided zeroed output
    /// (accumulates on top of whatever `out` holds). Runs the blocked kernel
    /// of [`crate::kernels`] with an [`Density::Auto`] density hint;
    /// bit-identical to [`matmul_into_reference`](Self::matmul_into_reference).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(other, out, Density::Auto);
    }

    /// [`matmul_into`](Self::matmul_into) with an explicit [`Density`] hint
    /// for `self`'s exact-zero content (wall-clock only — both flavours
    /// produce the same bits; see [`crate::kernels`]).
    pub fn matmul_into_with(&self, other: &Matrix, out: &mut Matrix, density: Density) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!((out.rows, out.cols), (self.rows, other.cols));
        if kernels::resolve(density, &self.data) {
            kernels::matmul::<false>(
                &self.data,
                &other.data,
                &mut out.data,
                self.rows,
                self.cols,
                other.cols,
            );
        } else {
            kernels::matmul::<true>(
                &self.data,
                &other.data,
                &mut out.data,
                self.rows,
                self.cols,
                other.cols,
            );
        }
    }

    /// The pre-blocking scalar i-k-j kernel, retained as the bit-identity
    /// reference for property tests.
    pub fn matmul_into_reference(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!((out.rows, out.cols), (self.rows, other.cols));
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self^T * other`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`matmul_tn`](Self::matmul_tn) writing into a caller-provided zeroed
    /// output (accumulates on top of whatever `out` holds). Blocked kernel,
    /// [`Density::Auto`] hint, bit-identical to
    /// [`matmul_tn_into_reference`](Self::matmul_tn_into_reference).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_tn_into_with(other, out, Density::Auto);
    }

    /// [`matmul_tn_into`](Self::matmul_tn_into) with an explicit [`Density`]
    /// hint for `self`'s exact-zero content.
    pub fn matmul_tn_into_with(&self, other: &Matrix, out: &mut Matrix, density: Density) {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.cols, other.cols));
        if kernels::resolve(density, &self.data) {
            kernels::matmul_tn::<false>(
                &self.data,
                &other.data,
                &mut out.data,
                self.rows,
                self.cols,
                other.cols,
            );
        } else {
            kernels::matmul_tn::<true>(
                &self.data,
                &other.data,
                &mut out.data,
                self.rows,
                self.cols,
                other.cols,
            );
        }
    }

    /// The pre-blocking scalar k-i-j kernel, retained as the bit-identity
    /// reference.
    pub fn matmul_tn_into_reference(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.cols, other.cols));
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self * other^T`.
    ///
    /// Skips `a == 0.0` operands like [`matmul`](Self::matmul) and
    /// [`matmul_tn`](Self::matmul_tn) do: masked-out activations contribute
    /// nothing, so sparse inputs get cheaper instead of burning multiply-adds
    /// on exact zeros. The packed-submodel execution path relies on all three
    /// variants accumulating only the nonzero terms, in ascending-index
    /// order, to stay bit-identical with the masked-dense path.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`matmul_nt`](Self::matmul_nt) writing into a caller-provided output
    /// (overwritten), so hot loops can reuse a [`ScratchPool`](crate::scratch::ScratchPool)
    /// buffer instead of allocating per call. Blocked kernel,
    /// [`Density::Auto`] hint, bit-identical to
    /// [`matmul_nt_into_reference`](Self::matmul_nt_into_reference).
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_nt_into_with(other, out, Density::Auto);
    }

    /// [`matmul_nt_into`](Self::matmul_nt_into) with an explicit [`Density`]
    /// hint for `self`'s exact-zero content.
    pub fn matmul_nt_into_with(&self, other: &Matrix, out: &mut Matrix, density: Density) {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.rows));
        if kernels::resolve(density, &self.data) {
            kernels::matmul_nt::<false>(
                &self.data,
                &other.data,
                &mut out.data,
                self.rows,
                self.cols,
                other.rows,
            );
        } else {
            kernels::matmul_nt::<true>(
                &self.data,
                &other.data,
                &mut out.data,
                self.rows,
                self.cols,
                other.rows,
            );
        }
    }

    /// The pre-blocking scalar i-j-k kernel, retained as the bit-identity
    /// reference.
    pub fn matmul_nt_into_reference(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.rows));
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
    }

    /// Rows of `self` selected by `rows`, in the given order, as a new matrix.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix::from_vec(rows.len(), self.cols, data)
    }

    /// Columns of `self` selected by `cols`, in the given order, as a new
    /// matrix.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_cols(&self, cols: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * cols.len());
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in cols {
                assert!(c < self.cols, "gather_cols index {c} out of range");
                data.push(row[c]);
            }
        }
        Matrix::from_vec(self.rows, cols.len(), data)
    }

    /// The `rows × cols` sub-block of `self` in one fused pass — equivalent
    /// to `self.gather_rows(rows).gather_cols(cols)` without materializing
    /// the intermediate row-gathered matrix.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows_cols(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), cols.len());
        self.gather_rows_cols_into(rows, cols, &mut out);
        out
    }

    /// [`gather_rows_cols`](Self::gather_rows_cols) writing into a
    /// caller-provided matrix (overwritten), so packed hot loops can reuse a
    /// pooled buffer.
    ///
    /// # Panics
    /// Panics on shape mismatch or out-of-range indices.
    pub fn gather_rows_cols_into(&self, rows: &[usize], cols: &[usize], out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (rows.len(), cols.len()),
            "gather_rows_cols_into shape mismatch"
        );
        for (i, &r) in rows.iter().enumerate() {
            let src = self.row(r);
            let dst = &mut out.data[i * cols.len()..(i + 1) * cols.len()];
            for (d, &c) in dst.iter_mut().zip(cols.iter()) {
                *d = src[c];
            }
        }
    }

    /// Adds each row of `src` into the row of `self` named by `rows`
    /// (the inverse of [`gather_rows`](Self::gather_rows), accumulating): the
    /// scatter half of the packed-submodel gather/scatter pair.
    ///
    /// # Panics
    /// Panics on shape mismatch or out-of-range indices.
    pub fn scatter_add_rows(&mut self, rows: &[usize], src: &Matrix) {
        assert_eq!(rows.len(), src.rows, "scatter_add_rows row-count mismatch");
        assert_eq!(self.cols, src.cols, "scatter_add_rows column mismatch");
        for (i, &r) in rows.iter().enumerate() {
            for (dst, &v) in self.row_mut(r).iter_mut().zip(src.row(i).iter()) {
                *dst += v;
            }
        }
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f32);
        let b = Matrix::from_fn(4, 2, |r, c| (r * c + 1) as f32);
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in via_tn.as_slice().iter().zip(explicit.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-6));
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r as f32) - (c as f32) * 0.5);
        let b = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let via_nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in via_nt.as_slice().iter().zip(explicit.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-6));
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(5, 2, |r, c| (r * 7 + c * 3) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_nt_skips_zero_operands_without_changing_results() {
        // Sparse activations (exact zeros from masking / ReLU) must produce
        // the same output whether or not the zero terms are visited.
        let mut a = Matrix::from_fn(3, 5, |r, c| ((r * 5 + c) as f32 * 0.3).sin());
        for r in 0..3 {
            a.row_mut(r)[1] = 0.0;
            a.row_mut(r)[3] = 0.0;
        }
        let b = Matrix::from_fn(4, 5, |r, c| ((r + c) as f32 * 0.7).cos());
        let via_nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(via_nt.as_slice(), explicit.as_slice());
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let a = Matrix::from_fn(3, 4, |r, c| (r as f32) - 0.3 * c as f32);
        let b = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.1);
        let bt = b.transpose();
        let mut out = Matrix::zeros(3, 2);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let mut out_tn = Matrix::zeros(4, 4);
        a.matmul_tn_into(&a, &mut out_tn);
        assert_eq!(out_tn, a.matmul_tn(&a));
        let mut out_nt = Matrix::zeros(3, 2);
        a.matmul_nt_into(&bt, &mut out_nt);
        assert_eq!(out_nt, a.matmul_nt(&bt));
    }

    #[test]
    fn gather_rows_and_cols_select_in_order() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 10 + c) as f32);
        let rows = m.gather_rows(&[2, 0]);
        assert_eq!(rows.as_slice(), &[20.0, 21.0, 22.0, 0.0, 1.0, 2.0]);
        let cols = m.gather_cols(&[2, 1]);
        assert_eq!(cols.rows(), 4);
        assert_eq!(cols.row(1), &[12.0, 11.0]);
        // Composition extracts the packed submodel block.
        let block = m.gather_rows(&[1, 3]).gather_cols(&[0, 2]);
        assert_eq!(block.as_slice(), &[10.0, 12.0, 30.0, 32.0]);
        // The fused single-pass gather produces the same block.
        assert_eq!(m.gather_rows_cols(&[1, 3], &[0, 2]), block);
    }

    #[test]
    fn scatter_add_rows_inverts_gather_rows() {
        let m = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
        let picked = [3, 1];
        let sub = m.gather_rows(&picked);
        let mut acc = Matrix::zeros(4, 3);
        acc.scatter_add_rows(&picked, &sub);
        for &r in &picked {
            assert_eq!(acc.row(r), m.row(r));
        }
        assert_eq!(acc.row(0), &[0.0; 3]);
        acc.scatter_add_rows(&picked, &sub);
        assert_eq!(acc.row(1), &[2.0, 4.0, 6.0], "scatter accumulates");
    }

    #[test]
    #[should_panic]
    fn gather_rows_out_of_range_panics() {
        Matrix::zeros(2, 2).gather_rows(&[2]);
    }

    #[test]
    fn norm_values() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!(approx_eq(a.norm(), 5.0, 1e-6));
        assert!(approx_eq(a.norm_sq(), 25.0, 1e-6));
    }
}
