use crate::{TensorError, TensorResult};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, contiguous 2-D `f32` tensor.
///
/// This is the single numeric container of the whole reproduction: model
/// parameters, embedding matrices, attention logits, gradients and metric
/// accumulators are all `Tensor`s. Serialization (used for model
/// checkpoints and dataset persistence) keeps the row-major buffer as-is.
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Copies into the existing buffer, allocating only when it is too
    /// small: a snapshot refreshed every step reuses its tensors.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        self.rows = source.rows;
        self.cols = source.cols;
    }
}

impl kvec_json::ToJson for Tensor {
    fn to_json(&self) -> kvec_json::Json {
        kvec_json::Json::obj([
            ("data", self.data.to_json()),
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
        ])
    }
}

impl kvec_json::FromJson for Tensor {
    /// Validates shape consistency: `data.len()` must equal `rows * cols`.
    fn from_json(j: &kvec_json::Json) -> Result<Self, kvec_json::JsonError> {
        let data = Vec::<f32>::from_json(j.get("data")?)?;
        let rows = usize::from_json(j.get("rows")?)?;
        let cols = usize::from_json(j.get("cols")?)?;
        Tensor::from_vec(rows, cols, data).map_err(|e| kvec_json::JsonError::new(e.to_string()))
    }
}

impl Tensor {
    /// Creates a tensor of the given shape from a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> TensorResult<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::DataLength {
                shape: (rows, cols),
                len: data.len(),
            });
        }
        Ok(Self { data, rows, cols })
    }

    /// Creates a tensor from nested rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> TensorResult<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(TensorError::DataLength {
                    shape: (r, c),
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            data,
            rows: r,
            cols: c,
        })
    }

    /// Creates an all-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates an all-one tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            data: values.to_vec(),
            rows: 1,
            cols: values.len(),
        }
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self {
            data: values.to_vec(),
            rows: values.len(),
            cols: 1,
        }
    }

    /// Creates a `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            data: vec![value],
            rows: 1,
            cols: 1,
        }
    }

    /// The `(rows, cols)` shape.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access with bounds checking, returning `None` when out of
    /// bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Sets a single element; panics when out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(r < self.rows && c < self.cols, "set({r},{c}) out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Immutable slice view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds (< {})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds (< {})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` into a fresh `1 x cols` tensor.
    pub fn row_tensor(&self, r: usize) -> Tensor {
        Tensor::row_vector(self.row(r))
    }

    /// The value of a `1 x 1` tensor. Panics on any other shape.
    pub fn item(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "item() requires a 1x1 tensor, got {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Appends a row in place (amortized O(cols)). An empty tensor adopts
    /// the row's width; otherwise the width must match.
    ///
    /// Growth is explicit geometric doubling: a full buffer at least
    /// doubles before the copy, so appending `n` rows one at a time costs
    /// O(n·cols) total and O(log n) reallocations — never the O(n²)
    /// memcpy a per-row reallocation would give a long-lived streaming
    /// cache. Pinned by `push_row_reallocates_geometrically`.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        if self.data.capacity() < self.data.len() + row.len() {
            self.data.reserve(self.data.len().max(row.len()));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Capacity of the backing buffer in elements (for growth-policy and
    /// eviction bookkeeping; `capacity() >= len()` always).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Sets the row count to `rows` in place: new rows are zero, dropped
    /// rows are gone, and the allocation is kept, so a buffer reused
    /// across streams grows only to the most rows it ever held.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Removes the first `n` rows in place, shifting the remainder down.
    /// One O(remaining) memmove; the allocation is retained, so a
    /// compact-then-append cycle (the streaming KV cache ring) never
    /// reallocates. Panics when `n > rows`.
    pub fn drop_front_rows(&mut self, n: usize) {
        assert!(
            n <= self.rows,
            "drop_front_rows({n}) out of bounds (rows = {})",
            self.rows
        );
        if n == 0 {
            return;
        }
        self.data.drain(..n * self.cols);
        self.rows -= n;
    }

    /// True when every pairwise difference is at most `tol` in absolute
    /// value and shapes match.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            let max_cols = 10;
            for c in 0..self.cols.min(max_cols) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.data[r * self.cols + c])?;
            }
            if self.cols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::DataLength { .. })
        ));
    }

    #[test]
    fn from_rows_builds_row_major() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(t[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(2, 3);
        t[(1, 2)] = 5.0;
        assert_eq!(t[(1, 2)], 5.0);
        assert_eq!(t.get(1, 2), Some(5.0));
        assert_eq!(t.get(2, 0), None);
    }

    #[test]
    fn row_views() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(t.row_tensor(0).data(), &[1.0, 2.0]);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic]
    fn item_panics_on_matrix() {
        let _ = Tensor::zeros(2, 2).item();
    }

    #[test]
    fn push_row_appends_and_adopts_width() {
        let mut t = Tensor::zeros(0, 0);
        t.push_row(&[1.0, 2.0]);
        t.push_row(&[3.0, 4.0]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn push_row_reallocates_geometrically() {
        // The streaming engine appends one K/V row per arrival for the
        // life of the stream; a per-row reallocation would turn that into
        // O(n²) memcpy. Count actual reallocations via capacity changes:
        // geometric growth does at most ~log2(n) of them.
        let cols = 7;
        let n = 10_000usize;
        let mut t = Tensor::zeros(0, 0);
        let mut reallocs = 0usize;
        let mut last_cap = t.capacity();
        for i in 0..n {
            t.push_row(&vec![i as f32; cols]);
            if t.capacity() != last_cap {
                reallocs += 1;
                last_cap = t.capacity();
            }
        }
        assert_eq!(t.shape(), (n, cols));
        let bound = (n * cols).ilog2() as usize + 2;
        assert!(
            reallocs <= bound,
            "{reallocs} reallocations over {n} pushes (bound {bound}): growth is not geometric"
        );
        // Geometric growth also must not overshoot absurdly.
        assert!(t.capacity() <= 4 * n * cols, "capacity {}", t.capacity());
    }

    #[test]
    fn drop_front_rows_shifts_and_keeps_allocation() {
        let mut t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let cap = t.capacity();
        t.drop_front_rows(2);
        assert_eq!(t.shape(), (1, 2));
        assert_eq!(t.data(), &[5.0, 6.0]);
        assert_eq!(t.capacity(), cap, "compaction must retain the allocation");
        // A follow-up append reuses the freed space without reallocating.
        t.push_row(&[7.0, 8.0]);
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.data(), &[5.0, 6.0, 7.0, 8.0]);
        t.drop_front_rows(0);
        assert_eq!(t.shape(), (2, 2));
        t.drop_front_rows(2);
        assert_eq!(t.shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "drop_front_rows")]
    fn drop_front_rows_bounds_checked() {
        Tensor::zeros(2, 3).drop_front_rows(3);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::row_vector(&[1.0, 2.0]);
        let b = Tensor::row_vector(&[1.0 + 1e-7, 2.0 - 1e-7]);
        assert!(a.allclose(&b, 1e-6));
        assert!(!a.allclose(&b, 1e-9));
        assert!(!a.allclose(&Tensor::zeros(1, 3), 1.0));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(1, 2);
        assert!(!t.has_non_finite());
        t[(0, 1)] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
