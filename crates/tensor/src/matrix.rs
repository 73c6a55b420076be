//! Row-major `f32` matrix.
//!
//! Row-major layout is the deliberate choice for GCN workloads: feature
//! propagation gathers whole *rows* (per-vertex feature vectors) and the
//! feature-partitioned kernel (Alg. 6) slices contiguous column *ranges*
//! within each row, both of which stay unit-stride in this layout.

use rayon::prelude::*;

/// A dense `rows × cols` matrix of `f32`, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DMatrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        crate::alloc::record_alloc();
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        crate::alloc::record_alloc();
        DMatrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major data vector. Panics on size mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        DMatrix { rows, cols, data }
    }

    /// Build elementwise from a function of `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        crate::alloc::record_alloc();
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DMatrix { rows, cols, data }
    }

    /// Reshape to `rows × cols`, reusing the existing buffer whenever its
    /// capacity suffices. **Contents are unspecified afterwards** — this
    /// is the buffer-reuse primitive of the allocation-free training path,
    /// where every caller immediately overwrites the matrix (GEMM with
    /// `β = 0`, `copy_from`, a pack/fill pass, …).
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        if self.data.capacity() < len {
            crate::alloc::record_alloc();
        }
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Become a copy of `src`, reusing this matrix's buffer if possible.
    pub fn copy_from(&mut self, src: &DMatrix) {
        self.ensure_shape(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Gather rows by index into `out` (`out[k] = self[idx[k]]`), reusing
    /// `out`'s buffer. In-place variant of [`DMatrix::gather_rows`].
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut DMatrix) {
        out.ensure_shape(idx.len(), self.cols);
        let cols = self.cols.max(1);
        out.data
            .par_chunks_exact_mut(cols)
            .zip(idx.par_iter())
            .for_each(|(dst, &i)| {
                dst.copy_from_slice(self.row(i as usize));
            });
    }

    /// Identity-like matrix (1.0 on the main diagonal).
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Backing storage (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing storage (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Parallel iterator over mutable row slices.
    pub fn par_rows_mut(&mut self) -> rayon::slice::ChunksExactMut<'_, f32> {
        let c = self.cols.max(1);
        self.data.par_chunks_exact_mut(c)
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Out-of-place transpose.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Gather rows by index into a new matrix (`out[k] = self[idx[k]]`).
    /// This is `H(0)[V_sub]` in Alg. 1 line 5.
    pub fn gather_rows(&self, idx: &[u32]) -> DMatrix {
        let mut out = DMatrix::zeros(idx.len(), self.cols);
        out.data
            .par_chunks_exact_mut(self.cols.max(1))
            .zip(idx.par_iter())
            .for_each(|(dst, &i)| {
                dst.copy_from_slice(self.row(i as usize));
            });
        out
    }

    /// Max absolute elementwise difference to another matrix.
    pub fn max_abs_diff(&self, other: &DMatrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if all elements are finite (no NaN/Inf) — used as a training
    /// sanity check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = DMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn set_and_row_mut() {
        let mut m = DMatrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.data(), &[0.0, 5.0, 7.0, 0.0]);
    }

    #[test]
    fn eye_and_transpose() {
        let m = DMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), m.get(1, 2));
        let e = DMatrix::eye(3);
        assert_eq!(e.transpose(), e);
    }

    #[test]
    fn gather_rows_selects() {
        let m = DMatrix::from_fn(4, 2, |i, _| i as f32);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn norms_and_diffs() {
        let a = DMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        let b = DMatrix::from_vec(1, 2, vec![3.0, 6.0]);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn finite_check() {
        let mut m = DMatrix::zeros(1, 2);
        assert!(m.all_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn zero_sized() {
        let m = DMatrix::zeros(0, 5);
        assert_eq!((m.shape(), m.data().len()), ((0, 5), 0));
        let m = DMatrix::zeros(3, 0);
        assert_eq!((m.shape(), m.data().len()), ((3, 0), 0));
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_size_mismatch() {
        DMatrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
