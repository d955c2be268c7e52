//! The dense `f32` tensor at the heart of the workspace.

use crate::acct;
use crate::shape::Shape;
use std::fmt;
use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// Errors produced by fallible tensor construction and reshaping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided buffer length does not match the requested shape.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two shapes that had to agree (exactly or via broadcasting) do not.
    ShapeMismatch {
        /// Left-hand operand shape, rendered.
        left: String,
        /// Right-hand operand shape, rendered.
        right: String,
        /// The operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "buffer of {actual} elements cannot fill a shape of {expected} elements"
            ),
            TensorError::ShapeMismatch { left, right, op } => {
                write!(f, "shape mismatch in {op}: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// An owned, contiguous, row-major `f32` tensor.
///
/// ```
/// use dl_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]).unwrap();
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Builds a tensor from a flat row-major buffer.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> crate::Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self.shape.flat_index(index);
        self.data[flat] = value;
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires exactly one element, tensor has {}",
            self.data.len()
        );
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns the same data under a new shape of equal element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> crate::Result<Self> {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    /// Panics on non-matrix input.
    pub fn transpose(&self) -> Self {
        assert_eq!(
            self.rank(),
            2,
            "transpose requires a matrix, got {}",
            self.shape
        );
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        acct::charge(0, 4 * (r * c) as u64, 4 * (r * c) as u64);
        Tensor {
            shape: Shape::from([c, r]),
            data: out,
        }
    }

    /// Extracts row `i` of a matrix as a `[cols]` tensor.
    ///
    /// # Panics
    /// Panics on non-matrix input or out-of-range `i`.
    pub fn row(&self, i: usize) -> Self {
        assert_eq!(
            self.rank(),
            2,
            "row() requires a matrix, got {}",
            self.shape
        );
        let cols = self.dims()[1];
        let start = i * cols;
        Tensor {
            shape: Shape::from([cols]),
            data: self.data[start..start + cols].to_vec(),
        }
    }

    /// Selects rows of a matrix by index, producing `[indices.len(), cols]`.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        assert_eq!(self.rank(), 2, "select_rows requires a matrix");
        let cols = self.dims()[1];
        let mut data = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            let start = i * cols;
            data.extend_from_slice(&self.data[start..start + cols]);
        }
        let moved = 4 * (indices.len() * cols) as u64;
        acct::charge(0, moved, moved);
        Tensor {
            shape: Shape::from([indices.len(), cols]),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Elementwise maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    ///
    /// Cost accounting charges one FLOP per element — the workspace-wide
    /// convention for opaque elementwise closures (shared with the static
    /// model in `dl-nn::cost`).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let n = self.data.len() as u64;
        acct::charge(n, 4 * n, 4 * n);
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        let n = self.data.len() as u64;
        acct::charge(n, 4 * n, 4 * n);
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Adds `bias` to every row of this `[m, n]` matrix in place, then
    /// applies ReLU (`v.max(0.0)`) when `relu` is set: the epilogue of a
    /// dense layer over its GEMM output.
    ///
    /// Each element is `(acc + b)` then `.max(0.0)`, the same two
    /// operations in the same order as `&y + &bias` followed by
    /// `map(|v| v.max(0.0))`, so the bits are the same. So is the charge:
    /// the broadcast add's (`m·n` flops, both operands read, the output
    /// written) plus one elementwise map's when `relu` is set.
    ///
    /// # Panics
    /// Panics unless this tensor is a matrix and `bias` has one value per
    /// column.
    pub fn add_bias_inplace(&mut self, bias: &Tensor, relu: bool) {
        assert_eq!(self.rank(), 2, "bias epilogue needs a matrix");
        let n = self.dims()[1];
        assert_eq!(
            bias.len(),
            n,
            "bias of {} values for {n} columns",
            bias.len()
        );
        let len = self.data.len() as u64;
        acct::charge(len, 4 * (len + n as u64), 4 * len);
        if relu {
            acct::charge(len, 4 * len, 4 * len);
        }
        if n == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(n) {
            if relu {
                for (v, &b) in row.iter_mut().zip(&bias.data) {
                    *v = (*v + b).max(0.0);
                }
            } else {
                for (v, &b) in row.iter_mut().zip(&bias.data) {
                    *v += b;
                }
            }
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    /// Panics on shape mismatch (use arithmetic operators for broadcasting).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip requires identical shapes: {} vs {}",
            self.shape, other.shape
        );
        let n = self.data.len() as u64;
        acct::charge(n, 8 * n, 4 * n);
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise binary operation with NumPy-style broadcasting.
    ///
    /// Equal shapes go through [`Tensor::zip`]. Otherwise each operand gets
    /// broadcast strides (0 on an axis it is broadcast along), and the
    /// output is written in row-major order by a stride walk: an odometer
    /// over the outer axes adds each operand's stride when a coordinate
    /// steps and takes back `stride × dim` when it wraps, and the last axis
    /// runs as one contiguous loop. A last-axis stride is 0 or 1, so that
    /// loop has four cases: both operands contiguous, either one held as a
    /// scalar, or both held. Every output element is `f(a, b)` of the same
    /// two operand elements NumPy's rule picks, whatever order the walk
    /// visits them in. The charge is `out.len()` FLOPs, both operands read
    /// once and the output written once.
    ///
    /// # Panics
    /// Panics when shapes are not broadcast-compatible.
    fn broadcast_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        if self.shape == other.shape {
            return self.zip(other, f);
        }
        let out_shape = self
            .shape
            .broadcast(&other.shape)
            .unwrap_or_else(|| panic!("cannot broadcast {} with {}", self.shape, other.shape));
        let rank = out_shape.rank();
        let a_strides = broadcast_strides(&pad_dims(self.shape.dims(), rank), &self.shape);
        let b_strides = broadcast_strides(&pad_dims(other.shape.dims(), rank), &other.shape);
        let mut out = Vec::with_capacity(out_shape.len());
        if !out_shape.is_empty() {
            let dims = out_shape.dims();
            // Two distinct shapes broadcast to rank ≥ 1.
            let last = rank - 1;
            let inner = dims[last];
            let (a, b) = (&self.data[..], &other.data[..]);
            let mut coord = vec![0; last];
            let (mut a_off, mut b_off) = (0, 0);
            for _ in 0..out_shape.len() / inner {
                match (a_strides[last], b_strides[last]) {
                    (1, 1) => out.extend(
                        a[a_off..a_off + inner]
                            .iter()
                            .zip(&b[b_off..b_off + inner])
                            .map(|(&x, &y)| f(x, y)),
                    ),
                    (1, _) => {
                        let y = b[b_off];
                        out.extend(a[a_off..a_off + inner].iter().map(|&x| f(x, y)));
                    }
                    (_, 1) => {
                        let x = a[a_off];
                        out.extend(b[b_off..b_off + inner].iter().map(|&y| f(x, y)));
                    }
                    _ => {
                        let (x, y) = (a[a_off], b[b_off]);
                        out.extend((0..inner).map(|_| f(x, y)));
                    }
                }
                // After the last row every axis wraps back to 0.
                for axis in (0..last).rev() {
                    coord[axis] += 1;
                    a_off += a_strides[axis];
                    b_off += b_strides[axis];
                    if coord[axis] < dims[axis] {
                        break;
                    }
                    coord[axis] = 0;
                    a_off -= a_strides[axis] * dims[axis];
                    b_off -= b_strides[axis] * dims[axis];
                }
            }
        }
        acct::charge(
            out.len() as u64,
            4 * (self.data.len() + other.data.len()) as u64,
            4 * out.len() as u64,
        );
        Tensor {
            shape: out_shape,
            data: out,
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        let n = self.data.len() as u64;
        acct::charge(n, 4 * n, 0);
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Flat index of the maximum element (first occurrence).
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Sum of squares of all elements.
    pub fn sum_squares(&self) -> f32 {
        let n = self.data.len() as u64;
        acct::charge(2 * n, 4 * n, 0);
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.sum_squares().sqrt()
    }

    /// Reduces along `axis`, summing, producing a tensor with that axis
    /// removed.
    ///
    /// # Panics
    /// Panics when `axis >= rank`.
    pub fn sum_axis(&self, axis: usize) -> Self {
        assert!(
            axis < self.rank(),
            "axis {axis} out of range for {}",
            self.shape
        );
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let out_base = o * inner;
                for i in 0..inner {
                    out[out_base + i] += self.data[base + i];
                }
            }
        }
        acct::charge(
            self.data.len() as u64,
            4 * self.data.len() as u64,
            4 * out.len() as u64,
        );
        let mut new_dims = dims.to_vec();
        new_dims.remove(axis);
        Tensor {
            shape: Shape::new(new_dims),
            data: out,
        }
    }

    /// `sum_axis(0)` of a matrix, written over `out`, which becomes
    /// `[cols]` (its buffer is reused when it is large enough). Same bits
    /// and same charge as `sum_axis(0)`.
    ///
    /// # Panics
    /// Panics on non-matrix input.
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "sum_rows_into requires a matrix");
        let cols = self.dims()[1];
        out.fill_zeros_as(&[cols]);
        if cols > 0 {
            for row in self.data.chunks_exact(cols) {
                for (o, &v) in out.data.iter_mut().zip(row) {
                    *o += v;
                }
            }
        }
        acct::charge(
            self.data.len() as u64,
            4 * self.data.len() as u64,
            4 * cols as u64,
        );
    }

    /// Makes this a `dims`-shaped tensor of zeros, keeping its buffer: no
    /// allocation when the shape is unchanged or the buffer is large
    /// enough. Charges nothing, like the zeroed buffer of a fresh result.
    pub(crate) fn fill_zeros_as(&mut self, dims: &[usize]) {
        if self.dims() != dims {
            self.shape = Shape::new(dims.to_vec());
        }
        self.data.clear();
        self.data.resize(self.shape.len(), 0.0);
    }

    /// Mean along `axis` (axis removed from the result).
    pub fn mean_axis(&self, axis: usize) -> Self {
        let n = self.dims()[axis] as f32;
        let mut t = self.sum_axis(axis);
        t.map_inplace(|x| x / n);
        t
    }

    /// Per-row argmax of a matrix: returns `[rows]` worth of column indices.
    ///
    /// # Panics
    /// Panics on non-matrix input or zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a matrix");
        let (r, c) = (self.dims()[0], self.dims()[1]);
        assert!(c > 0, "argmax_rows requires at least one column");
        (0..r)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                let mut best = 0;
                for (j, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication of two rank-2 tensors.
    ///
    /// Uses an ikj loop order with a pre-zeroed output buffer so the inner
    /// loop is a contiguous fused multiply-add — the classic cache-friendly
    /// ordering for row-major data.
    ///
    /// An `a` equal to `±0.0` is skipped: it adds no term and is not
    /// counted in the charged flops, so a zero in `self` drops its `0·inf`
    /// and `0·NaN` products. A NaN or infinite `a` propagates.
    ///
    /// # Panics
    /// Panics when operands are not matrices or inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Self {
        assert_eq!(self.rank(), 2, "matmul left operand must be a matrix");
        assert_eq!(other.rank(), 2, "matmul right operand must be a matrix");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(
            k, k2,
            "matmul inner dimensions differ: {} vs {}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        let mut nnz = 0u64;
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue; // pays off for pruned (sparse) weight matrices
                }
                nnz += 1;
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        // Effective FLOPs: the zero-skip above means a sparse left operand
        // really does less work, and the accounting reflects that.
        acct::charge(
            2 * nnz * n as u64,
            4 * (m * k + k * n) as u64,
            4 * (m * n) as u64,
        );
        Tensor {
            shape: Shape::from([m, n]),
            data: out,
        }
    }

    /// Dot product of two rank-1 tensors of equal length.
    ///
    /// # Panics
    /// Panics when operands are not vectors of equal length.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot requires vectors");
        assert_eq!(other.rank(), 1, "dot requires vectors");
        assert_eq!(self.len(), other.len(), "dot requires equal lengths");
        let n = self.data.len() as u64;
        acct::charge(2 * n, 8 * n, 0);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// `im2col` for 2-D convolution.
    ///
    /// Input must be `[channels, height, width]`. Produces a matrix of shape
    /// `[channels * kh * kw, out_h * out_w]` whose columns are the flattened
    /// receptive fields, so convolution becomes one `matmul` — the
    /// "convolution as query processing" layout transformation.
    ///
    /// # Panics
    /// Panics when input is not rank 3 or the kernel/stride/pad combination
    /// yields no output positions.
    pub fn im2col(&self, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        assert_eq!(self.rank(), 3, "im2col input must be [C, H, W]");
        let (c, h, w) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let out_h = (h + 2 * pad).checked_sub(kh).map(|v| v / stride + 1);
        let out_w = (w + 2 * pad).checked_sub(kw).map(|v| v / stride + 1);
        let (out_h, out_w) = match (out_h, out_w) {
            (Some(a), Some(b)) if a > 0 && b > 0 => (a, b),
            _ => panic!(
                "im2col: kernel {kh}x{kw} stride {stride} pad {pad} does not fit input {h}x{w}"
            ),
        };
        let rows = c * kh * kw;
        let cols = out_h * out_w;
        let mut out = vec![0.0f32; rows * cols];
        for ch in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    for oy in 0..out_h {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..out_w {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            let col = oy * out_w + ox;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                self.data[(ch * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                            out[row * cols + col] = v;
                        }
                    }
                }
            }
        }
        acct::charge(0, 4 * (c * h * w) as u64, 4 * (rows * cols) as u64);
        Tensor {
            shape: Shape::from([rows, cols]),
            data: out,
        }
    }

    /// Inverse of [`Tensor::im2col`]: scatter-adds the column matrix back
    /// into a `[channels, height, width]` image. Used by the convolution
    /// backward pass.
    ///
    /// # Panics
    /// Panics when `self` does not have the shape `im2col` would produce for
    /// the given geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn col2im(
        &self,
        channels: usize,
        height: usize,
        width: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let out_h = (height + 2 * pad - kh) / stride + 1;
        let out_w = (width + 2 * pad - kw) / stride + 1;
        assert_eq!(
            self.dims(),
            &[channels * kh * kw, out_h * out_w],
            "col2im input shape {} does not match geometry",
            self.shape
        );
        let cols = out_h * out_w;
        let mut out = vec![0.0f32; channels * height * width];
        for ch in 0..channels {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    for oy in 0..out_h {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..out_w {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && iy < height as isize && ix >= 0 && ix < width as isize {
                                let col = oy * out_w + ox;
                                out[(ch * height + iy as usize) * width + ix as usize] +=
                                    self.data[row * cols + col];
                            }
                        }
                    }
                }
            }
        }
        acct::charge(
            self.data.len() as u64,
            4 * self.data.len() as u64,
            4 * out.len() as u64,
        );
        Tensor {
            shape: Shape::from([channels, height, width]),
            data: out,
        }
    }

    // ------------------------------------------------------------------
    // Comparison helpers
    // ------------------------------------------------------------------

    /// True when shapes match and every element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// Left-pads `dims` with 1s to `rank` (broadcast alignment).
fn pad_dims(dims: &[usize], rank: usize) -> Vec<usize> {
    let mut out = vec![1; rank];
    out[rank - dims.len()..].copy_from_slice(dims);
    out
}

/// Strides for a broadcast operand: 0 where the (padded) dimension is 1.
fn broadcast_strides(padded_dims: &[usize], original: &Shape) -> Vec<usize> {
    let orig_strides = original.strides();
    let offset = padded_dims.len() - original.rank();
    padded_dims
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            if i < offset || d == 1 {
                0
            } else {
                orig_strides[i - offset]
            }
        })
        .collect()
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 16 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({}, [{}, {}, ... {} elements])",
                self.shape,
                self.data[0],
                self.data[1],
                self.len()
            )
        }
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f32;
    fn index(&self, index: &[usize]) -> &f32 {
        &self.data[self.shape.flat_index(index)]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, index: &[usize]) -> &mut f32 {
        let flat = self.shape.flat_index(index);
        &mut self.data[flat]
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $f:expr) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.broadcast_with(rhs, $f)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                #[allow(clippy::redundant_closure_call)]
                self.map(|x| ($f)(x, rhs))
            }
        }
        impl $trait for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                (&self).$method(rhs)
            }
        }
        impl $trait<Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                self.$method(&rhs)
            }
        }
        impl $trait<f32> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                (&self).$method(rhs)
            }
        }
    };
}

binop!(Add, add, |a: f32, b: f32| a + b);
binop!(Sub, sub, |a: f32, b: f32| a - b);
binop!(Mul, mul, |a: f32, b: f32| a * b);
binop!(Div, div, |a: f32, b: f32| a / b);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(data: Vec<f32>, dims: &[usize]) -> Tensor {
        Tensor::from_vec(data, dims).expect("valid test tensor")
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Tensor::from_vec(vec![1.0, 2.0], [3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full([3], 2.5).sum(), 7.5);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut x = Tensor::zeros([2, 3]);
        x.set(&[1, 2], 7.0);
        assert_eq!(x.get(&[1, 2]), 7.0);
        assert_eq!(x[&[1, 2][..]], 7.0);
        x[&[0, 0][..]] = 1.0;
        assert_eq!(x.get(&[0, 0]), 1.0);
    }

    #[test]
    fn elementwise_operators_same_shape() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![4.0, 3.0, 2.0, 1.0], &[2, 2]);
        assert_eq!((&a + &b).data(), &[5.0; 4]);
        assert_eq!((&a - &b).data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!((&a * &b).data(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!((&a / &b).data(), &[0.25, 2.0 / 3.0, 1.5, 4.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn scalar_operators() {
        let a = t(vec![1.0, 2.0], &[2]);
        assert_eq!((&a + 1.0).data(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).data(), &[3.0, 6.0]);
    }

    #[test]
    fn broadcasting_row_vector_over_matrix() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let bias = t(vec![10.0, 20.0, 30.0], &[3]);
        let c = &a + &bias;
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcasting_column_vector_over_matrix() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let col = t(vec![10.0, 100.0], &[2, 1]);
        let c = &a * &col;
        assert_eq!(c.data(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn broadcasting_incompatible_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 4]);
        let _ = &a + &b;
    }

    #[test]
    fn matmul_known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = t(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(a.matmul(&eye).data(), a.data());
        assert_eq!(eye.matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_bad_inner_dims() {
        Tensor::zeros([2, 3]).matmul(&Tensor::zeros([4, 2]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn dot_product() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn reductions() {
        let a = t(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert_eq!(a.argmax(), 2);
        assert_eq!(a.sum_squares(), 30.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn sum_axis_both_axes() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let rows = a.sum_axis(0);
        assert_eq!(rows.dims(), &[3]);
        assert_eq!(rows.data(), &[5.0, 7.0, 9.0]);
        let cols = a.sum_axis(1);
        assert_eq!(cols.dims(), &[2]);
        assert_eq!(cols.data(), &[6.0, 15.0]);
    }

    #[test]
    fn mean_axis() {
        let a = t(vec![2.0, 4.0, 6.0, 8.0], &[2, 2]);
        assert_eq!(a.mean_axis(0).data(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = t(vec![1.0, 3.0, 3.0, 0.5, 0.2, 0.1], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn row_and_select_rows() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        assert_eq!(a.row(1).data(), &[3.0, 4.0]);
        let sel = a.select_rows(&[2, 0]);
        assert_eq!(sel.dims(), &[2, 2]);
        assert_eq!(sel.data(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn im2col_identity_kernel_geometry() {
        // 1 channel, 3x3 input, 2x2 kernel, stride 1, no padding -> 2x2 output
        let img = t(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 3, 3],
        );
        let cols = img.im2col(2, 2, 1, 0);
        assert_eq!(cols.dims(), &[4, 4]);
        // first column = top-left receptive field [1,2,4,5]
        assert_eq!(
            (0..4).map(|r| cols.get(&[r, 0])).collect::<Vec<_>>(),
            vec![1.0, 2.0, 4.0, 5.0]
        );
        // last column = bottom-right receptive field [5,6,8,9]
        assert_eq!(
            (0..4).map(|r| cols.get(&[r, 3])).collect::<Vec<_>>(),
            vec![5.0, 6.0, 8.0, 9.0]
        );
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let img = t(vec![1.0], &[1, 1, 1]);
        // 3x3 kernel over 1x1 input with pad 1 -> single output position
        let cols = img.im2col(3, 3, 1, 1);
        assert_eq!(cols.dims(), &[9, 1]);
        let center = cols.get(&[4, 0]);
        assert_eq!(center, 1.0);
        assert_eq!(cols.sum(), 1.0); // everything else is zero padding
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct 2D convolution vs im2col+matmul on a small case.
        let img = t(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 3, 3],
        );
        let kernel = t(vec![1.0, 0.0, 0.0, -1.0], &[1, 4]); // 1 filter of 2x2
        let cols = img.im2col(2, 2, 1, 0);
        let out = kernel.matmul(&cols);
        // direct: out[y][x] = img[y][x] - img[y+1][x+1]
        assert_eq!(out.data(), &[1.0 - 5.0, 2.0 - 6.0, 4.0 - 8.0, 5.0 - 9.0]);
    }

    #[test]
    fn col2im_scatter_adds_overlaps() {
        let img = t(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let cols = img.im2col(1, 1, 1, 0); // trivially each pixel once
        let back = cols.col2im(1, 2, 2, 1, 1, 1, 0);
        assert!(back.approx_eq(&img, 1e-6));
        // 2x2 kernel over 3x3: center pixel participates in all 4 windows
        let img3 = Tensor::ones([1, 3, 3]);
        let cols3 = img3.im2col(2, 2, 1, 0);
        let back3 = cols3.col2im(1, 3, 3, 2, 2, 1, 0);
        assert_eq!(back3.get(&[0, 1, 1]), 4.0);
        assert_eq!(back3.get(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = a.reshape([4]).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.reshape([3]).is_err());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0005, 2.0], &[2]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&Tensor::zeros([2, 1]), 1.0));
    }

    /// (A B)^T == B^T A^T
    #[test]
    fn matmul_transpose_identity() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let m = rng.gen_range(1usize..5);
            let k = rng.gen_range(1usize..5);
            let n = rng.gen_range(1usize..5);
            let a = Tensor::from_vec(
                (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                [m, k],
            )
            .unwrap();
            let b = Tensor::from_vec(
                (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                [k, n],
            )
            .unwrap();
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            assert!(lhs.approx_eq(&rhs, 1e-4), "case {case}");
        }
    }

    /// Matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributive() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let m = rng.gen_range(1usize..4);
            let k = rng.gen_range(1usize..4);
            let n = rng.gen_range(1usize..4);
            let mut gen = |r: usize, c: usize| {
                Tensor::from_vec(
                    (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    [r, c],
                )
                .unwrap()
            };
            let a = gen(m, k);
            let b = gen(k, n);
            let c = gen(k, n);
            let lhs = a.matmul(&(&b + &c));
            let rhs = &a.matmul(&b) + &a.matmul(&c);
            assert!(lhs.approx_eq(&rhs, 1e-4), "case {case}");
        }
    }

    /// sum_axis over all axes equals the full sum.
    #[test]
    fn sum_axis_total() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let r = rng.gen_range(1usize..5);
            let c = rng.gen_range(1usize..5);
            let a = Tensor::from_vec(
                (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                [r, c],
            )
            .unwrap();
            let total: f32 = a.sum();
            let via_axis = a.sum_axis(0).sum();
            assert!((total - via_axis).abs() < 1e-4, "case {case}");
        }
    }

    /// col2im(im2col(x)) with a 1x1 kernel is the identity.
    #[test]
    fn im2col_unit_kernel_roundtrip() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let c = rng.gen_range(1usize..3);
            let h = rng.gen_range(1usize..5);
            let w = rng.gen_range(1usize..5);
            let x = Tensor::from_vec(
                (0..c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                [c, h, w],
            )
            .unwrap();
            let back = x.im2col(1, 1, 1, 0).col2im(c, h, w, 1, 1, 1, 0);
            assert!(back.approx_eq(&x, 1e-6), "case {case}");
        }
    }
}
