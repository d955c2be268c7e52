//! Shape and stride bookkeeping for row-major dense tensors.

use std::fmt;

/// The dimensions of a tensor, stored outermost-first (row-major).
///
/// A `Shape` is cheap to clone (it owns a small `Vec<usize>`) and knows how
/// to translate between multi-dimensional indices and flat offsets.
///
/// ```
/// use dl_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.flat_index(&[1, 2, 3]), 23);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimensions.
    ///
    /// A zero-length `dims` denotes a scalar; zero-sized dimensions are
    /// allowed and give an empty tensor.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Shape of a scalar (rank 0, one element).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the shape holds no elements (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The size of dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides: `strides[i]` is the flat distance between two
    /// elements that differ by one in dimension `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics when the index rank or any coordinate is out of range.
    pub fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut flat = 0;
        let mut stride = 1;
        for axis in (0..self.dims.len()).rev() {
            assert!(
                index[axis] < self.dims[axis],
                "index {} out of bounds for dimension {} of size {}",
                index[axis],
                axis,
                self.dims[axis]
            );
            flat += index[axis] * stride;
            stride *= self.dims[axis];
        }
        flat
    }

    /// Computes the shape two operands broadcast to under NumPy rules
    /// (trailing dimensions aligned; a dimension broadcasts when either side
    /// is 1), or `None` when they are incompatible.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.dims[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.dims[i - (rank - other.rank())]
            };
            *dim = match (a, b) {
                (a, b) if a == b => a,
                (1, b) => b,
                (a, 1) => a,
                _ => return None,
            };
        }
        Some(Shape::new(dims))
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::from([2, 3, 4]).len(), 24);
        assert_eq!(Shape::from([5]).len(), 5);
        assert_eq!(Shape::from([3, 0, 2]).len(), 0);
    }

    #[test]
    fn zero_sized_dimension_is_empty() {
        assert!(Shape::from([3, 0]).is_empty());
        assert!(!Shape::from([3, 1]).is_empty());
    }

    #[test]
    fn row_major_strides() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([7]).strides(), vec![1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn flat_index_row_major_order() {
        let s = Shape::from([2, 3]);
        assert_eq!(s.flat_index(&[0, 0]), 0);
        assert_eq!(s.flat_index(&[0, 2]), 2);
        assert_eq!(s.flat_index(&[1, 0]), 3);
        assert_eq!(s.flat_index(&[1, 2]), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_index_rejects_out_of_range() {
        Shape::from([2, 3]).flat_index(&[0, 3]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn flat_index_rejects_wrong_rank() {
        Shape::from([2, 3]).flat_index(&[0]);
    }

    #[test]
    fn broadcast_equal_shapes() {
        let a = Shape::from([2, 3]);
        assert_eq!(a.broadcast(&a), Some(a.clone()));
    }

    #[test]
    fn broadcast_scalar_with_anything() {
        let a = Shape::from([4, 5]);
        assert_eq!(Shape::scalar().broadcast(&a), Some(a.clone()));
        assert_eq!(a.broadcast(&Shape::scalar()), Some(a));
    }

    #[test]
    fn broadcast_trailing_alignment() {
        let a = Shape::from([5, 1, 3]);
        let b = Shape::from([4, 3]);
        assert_eq!(a.broadcast(&b), Some(Shape::from([5, 4, 3])));
    }

    #[test]
    fn broadcast_incompatible() {
        assert_eq!(Shape::from([2, 3]).broadcast(&Shape::from([2, 4])), None);
    }

    /// Broadcasting is symmetric.
    #[test]
    fn broadcast_symmetric() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let rank_a = rng.gen_range(0..4);
            let a: Vec<usize> = (0..rank_a).map(|_| rng.gen_range(1..4)).collect();
            let rank_b = rng.gen_range(0..4);
            let b: Vec<usize> = (0..rank_b).map(|_| rng.gen_range(1..4)).collect();
            let sa = Shape::new(a);
            let sb = Shape::new(b);
            assert_eq!(sa.broadcast(&sb), sb.broadcast(&sa), "case {case}");
        }
    }

    /// Broadcast result is at least as large in every aligned dimension.
    #[test]
    fn broadcast_dominates_operands() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let rank = rng.gen_range(1..4);
            let a: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..4)).collect();
            let sa = Shape::new(a.clone());
            let ones = Shape::new(vec![1; a.len()]);
            assert_eq!(sa.broadcast(&ones), Some(sa), "case {case}");
        }
    }
}
