//! Borrowed, strided matrix views.
//!
//! A [`MatRef`]/[`MatMut`] is a `rows × cols` window whose consecutive rows
//! are `row_stride` elements apart in the backing slice. Views let the GEMM
//! kernels read operands and write results directly inside a larger matrix
//! — e.g. the neighbor/self column halves of a concatenated GCN activation
//! — without materialising sub-matrix copies. The packing step of the GEMM
//! absorbs the stride, so strided operands run at the same speed as dense
//! ones.

use crate::bf16::Bf16MatRef;
use crate::matrix::DMatrix;
use crate::ukernel::Element;

/// A borrowed row-major matrix the GEMM pack sources read rows from:
/// [`MatRef`] (f32) or [`Bf16MatRef`] (bf16 storage). Its element type
/// is also the panel element the operand packs into, so code written
/// against `Rows` runs both storage precisions through one body.
pub trait Rows: Copy + Sync {
    /// The stored (and packed) element.
    type Elem: Element;

    fn rows(&self) -> usize;

    fn cols(&self) -> usize;

    /// Row `i` as a slice.
    fn row(&self, i: usize) -> &[Self::Elem];

    /// The leading `n` rows.
    fn first_rows(self, n: usize) -> Self;
}

impl Rows for MatRef<'_> {
    type Elem = f32;

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        MatRef::row(self, i)
    }

    fn first_rows(self, n: usize) -> Self {
        assert!(n <= self.rows, "row range out of bounds");
        MatRef { rows: n, ..self }
    }
}

impl Rows for Bf16MatRef<'_> {
    type Elem = crate::Bf16;

    fn rows(&self) -> usize {
        Bf16MatRef::rows(self)
    }

    fn cols(&self) -> usize {
        Bf16MatRef::cols(self)
    }

    #[inline]
    fn row(&self, i: usize) -> &[crate::Bf16] {
        Bf16MatRef::row(self, i)
    }

    fn first_rows(self, n: usize) -> Self {
        Bf16MatRef::new(&self.data()[..n * self.cols()], n, self.cols())
    }
}

/// Rows `idx[0], idx[1], …` of `base`, in that order: a gathered operand
/// without the gather. A GEMM packing it reads each selected row straight
/// out of `base`, so the selected rows of a product need no copy of the
/// rows they multiply.
#[derive(Clone, Copy)]
pub struct IndexedRows<'a, H> {
    base: H,
    idx: &'a [u32],
}

impl<'a, H: Rows> IndexedRows<'a, H> {
    /// Select `base`'s rows `idx` (any order, repeats allowed).
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn new(base: H, idx: &'a [u32]) -> Self {
        assert!(
            idx.iter().all(|&i| (i as usize) < base.rows()),
            "row index out of range"
        );
        IndexedRows { base, idx }
    }
}

impl<H: Rows> Rows for IndexedRows<'_, H> {
    type Elem = H::Elem;

    fn rows(&self) -> usize {
        self.idx.len()
    }

    fn cols(&self) -> usize {
        self.base.cols()
    }

    #[inline]
    fn row(&self, i: usize) -> &[H::Elem] {
        self.base.row(self.idx[i] as usize)
    }

    fn first_rows(self, n: usize) -> Self {
        IndexedRows {
            idx: &self.idx[..n],
            ..self
        }
    }
}

/// Immutable strided view.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

impl<'a> MatRef<'a> {
    /// View over `data`, whose row `i` occupies
    /// `data[i*row_stride .. i*row_stride + cols]`.
    ///
    /// # Panics
    /// Panics if the window exceeds `data`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize, row_stride: usize) -> Self {
        assert!(cols <= row_stride || rows <= 1, "rows overlap");
        if rows > 0 {
            let need = (rows - 1) * row_stride + cols;
            assert!(need <= data.len(), "view out of bounds");
        }
        MatRef {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.row_stride..i * self.row_stride + self.cols]
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j]
    }

    /// Restrict to a column range.
    pub fn col_range(&self, lo: usize, hi: usize) -> MatRef<'a> {
        assert!(lo <= hi && hi <= self.cols);
        MatRef {
            data: &self.data[lo..],
            rows: self.rows,
            cols: hi - lo,
            row_stride: self.row_stride,
        }
    }
}

/// Mutable strided view.
pub struct MatMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
}

impl<'a> MatMut<'a> {
    /// Mutable view with the same layout rules as [`MatRef::new`].
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize, row_stride: usize) -> Self {
        assert!(cols <= row_stride || rows <= 1, "rows overlap");
        if rows > 0 {
            let need = (rows - 1) * row_stride + cols;
            assert!(need <= data.len(), "view out of bounds");
        }
        MatMut {
            data,
            rows,
            cols,
            row_stride,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.row_stride..i * self.row_stride + self.cols]
    }

    /// Reborrow immutably.
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
        }
    }

    /// The viewed elements as one slice.
    ///
    /// # Panics
    /// Panics if the view is column-strided (its rows are not adjacent
    /// in memory).
    pub fn into_contiguous(self) -> &'a mut [f32] {
        assert!(
            self.rows <= 1 || self.row_stride == self.cols,
            "view is column-strided"
        );
        &mut self.data[..self.rows * self.cols]
    }

    /// Base pointer (row `i`, column `j` lives at `i*row_stride + j`).
    /// Used by the GEMM driver to hand disjoint row blocks to parallel
    /// tasks.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut f32 {
        self.data.as_mut_ptr()
    }

    /// Restrict to a column range.
    pub fn col_range_mut(&mut self, lo: usize, hi: usize) -> MatMut<'_> {
        assert!(lo <= hi && hi <= self.cols);
        MatMut {
            data: &mut self.data[lo..],
            rows: self.rows,
            cols: hi - lo,
            row_stride: self.row_stride,
        }
    }
}

impl DMatrix {
    /// Whole-matrix immutable view.
    pub fn view(&self) -> MatRef<'_> {
        MatRef {
            data: self.data(),
            rows: self.rows(),
            cols: self.cols(),
            row_stride: self.cols(),
        }
    }

    /// Immutable view of columns `lo..hi`.
    pub fn view_cols(&self, lo: usize, hi: usize) -> MatRef<'_> {
        self.view().col_range(lo, hi)
    }

    /// Immutable view of rows `lo..hi`.
    pub fn view_rows(&self, lo: usize, hi: usize) -> MatRef<'_> {
        assert!(lo <= hi && hi <= self.rows(), "row range out of bounds");
        let cols = self.cols();
        MatRef {
            data: &self.data()[lo * cols..hi * cols],
            rows: hi - lo,
            cols,
            row_stride: cols,
        }
    }

    /// Whole-matrix mutable view.
    pub fn view_mut(&mut self) -> MatMut<'_> {
        let (rows, cols) = self.shape();
        MatMut {
            data: self.data_mut(),
            rows,
            cols,
            row_stride: cols,
        }
    }

    /// Mutable view of rows `lo..hi`.
    pub fn view_rows_mut(&mut self, lo: usize, hi: usize) -> MatMut<'_> {
        assert!(lo <= hi && hi <= self.rows(), "row range out of bounds");
        let cols = self.cols();
        MatMut {
            data: &mut self.data_mut()[lo * cols..hi * cols],
            rows: hi - lo,
            cols,
            row_stride: cols,
        }
    }

    /// Mutable view of columns `lo..hi`.
    pub fn view_cols_mut(&mut self, lo: usize, hi: usize) -> MatMut<'_> {
        assert!(lo <= hi && hi <= self.cols());
        let (rows, cols) = self.shape();
        if rows == 0 || lo == hi {
            return MatMut {
                data: &mut [],
                rows,
                cols: hi - lo,
                row_stride: cols.max(1),
            };
        }
        MatMut {
            data: &mut self.data_mut()[lo..],
            rows,
            cols: hi - lo,
            row_stride: cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_index_correctly() {
        let m = DMatrix::from_fn(3, 4, |i, j| (i * 10 + j) as f32);
        let v = m.view();
        assert_eq!(v.shape(), (3, 4));
        assert_eq!(v.get(2, 3), 23.0);
        assert_eq!(v.row(1), &[10.0, 11.0, 12.0, 13.0]);
        let c = m.view_cols(1, 3);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.get(2, 0), 21.0);
        assert_eq!(c.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn mutable_column_views_write_disjointly() {
        let mut m = DMatrix::zeros(2, 5);
        {
            let mut left = m.view_cols_mut(0, 2);
            left.row_mut(0).fill(1.0);
            left.row_mut(1).fill(2.0);
        }
        {
            let mut right = m.view_cols_mut(2, 5);
            right.row_mut(1)[2] = 9.0;
        }
        assert_eq!(m.row(0), &[1.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[2.0, 2.0, 0.0, 0.0, 9.0]);
    }

    #[test]
    fn rows_first_rows_keeps_stride_and_element() {
        fn leading<H: Rows>(h: H, n: usize) -> (usize, usize, Vec<f32>) {
            let h = h.first_rows(n);
            let last = h.row(n - 1).iter().map(|x| x.to_f32()).collect();
            (h.rows(), h.cols(), last)
        }
        let m = DMatrix::from_fn(4, 6, |i, j| (i * 8 + j) as f32);
        // A column-strided f32 view keeps its row stride.
        assert_eq!(
            leading(m.view_cols(2, 5), 3),
            (3, 3, vec![18.0, 19.0, 20.0])
        );
        let q: Vec<crate::Bf16> = m.data().iter().map(|&x| crate::Bf16::from_f32(x)).collect();
        assert_eq!(
            leading(Bf16MatRef::new(&q, 4, 6), 2),
            (2, 6, m.row(1).to_vec())
        );
    }

    #[test]
    fn indexed_rows_select_in_order_and_pack_like_a_gather() {
        let m = DMatrix::from_fn(5, 3, |i, j| (i * 10 + j) as f32);
        let idx = [4u32, 0, 4, 2];
        let sel = IndexedRows::new(m.view(), &idx);
        assert_eq!((sel.rows(), sel.cols()), (4, 3));
        assert_eq!(sel.row(2), m.row(4));
        assert_eq!(sel.first_rows(2).rows(), 2);
        // A product of the selected rows is the product of the gathered
        // matrix, bit for bit.
        let b = DMatrix::from_fn(3, 2, |i, j| (i + 2 * j) as f32 * 0.3 - 0.2);
        let mut got = DMatrix::zeros(4, 2);
        crate::gemm::gemm_source_nn_v(
            1.0,
            &crate::gemm::DensePack::new(sel),
            b.view(),
            0.0,
            got.view_mut(),
        );
        assert_eq!(got, crate::gemm::matmul(&m.gather_rows(&idx), &b));
    }

    #[test]
    #[should_panic(expected = "row index out of range")]
    fn indexed_rows_reject_out_of_range_indices() {
        let m = DMatrix::zeros(2, 2);
        IndexedRows::new(m.view(), &[2]);
    }

    #[test]
    fn zero_sized_views() {
        let mut m = DMatrix::zeros(0, 4);
        assert_eq!(m.view().rows(), 0);
        assert_eq!(m.view_cols_mut(1, 3).rows(), 0);
        let mut m = DMatrix::zeros(3, 4);
        assert_eq!(m.view_cols_mut(2, 2).cols(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_view_panics() {
        let data = vec![0.0f32; 10];
        MatRef::new(&data, 3, 4, 4);
    }
}
