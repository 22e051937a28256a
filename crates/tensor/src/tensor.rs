//! The dense tensor type and its elementwise operations.

use crate::shape::Shape;
use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// The next unreserved block of content ids.
static NEXT_ID_BLOCK: AtomicU64 = AtomicU64::new(0);

/// A fresh, process-unique content id. Each thread reserves ids in
/// blocks, so drawing one is a thread-local increment, not a shared
/// atomic per tensor.
fn fresh_id() -> u64 {
    const BLOCK: u64 = 1 << 16;
    thread_local! {
        /// `(next, end)` of this thread's reserved block.
        static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    IDS.with(|ids| {
        let (mut next, mut end) = ids.get();
        if next == end {
            next = NEXT_ID_BLOCK.fetch_add(BLOCK, Ordering::Relaxed);
            end = next + BLOCK;
        }
        ids.set((next + 1, end));
        next
    })
}

/// Error produced when constructing or reshaping a [`Tensor`] with
/// inconsistent sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatchError {
    expected: usize,
    actual: usize,
}

impl fmt::Display for ShapeMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "element count mismatch: shape requires {} elements but {} were provided",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for ShapeMismatchError {}

/// A dense, row-major `f32` tensor with up to four dimensions.
///
/// This is the numeric workhorse of the CLADO reproduction: network
/// activations, weights, and gradients are all `Tensor`s. Data is stored
/// contiguously; vision tensors use the NCHW layout.
///
/// Every tensor carries a *content id*: two tensors with the same id hold
/// the same shape and data, so anything derived from one tensor's data
/// (such as a conv kernel's packed weights) can be reused for any tensor
/// with its id. Constructors and every `&mut` method draw a fresh,
/// process-unique id; [`Clone`], [`Tensor::into_shape`] and
/// [`Tensor::copy_from`] (which takes the source's id) do not. Equality
/// ignores ids.
///
/// # Examples
///
/// ```
/// use clado_tensor::Tensor;
///
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::full([2, 2], 0.5);
/// let c = &a + &b;
/// assert_eq!(c.data(), &[1.5, 2.5, 3.5, 4.5]);
/// # Ok::<(), clado_tensor::ShapeMismatchError>(())
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
    id: u64,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Self {
            data: vec![0.0; shape.numel()],
            shape,
            id: fresh_id(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Self {
            data: vec![value; shape.numel()],
            shape,
            id: fresh_id(),
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeMismatchError`] if `data.len()` differs from the
    /// element count implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, ShapeMismatchError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(ShapeMismatchError {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Self {
            shape,
            data,
            id: fresh_id(),
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The content id (see the type docs).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Mutable view of the underlying data (row-major). Draws a fresh id.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.id = fresh_id();
        &mut self.data
    }

    /// Copies `src`'s data into this tensor's buffer (no allocation) and
    /// takes `src`'s id: restoring a weight from its snapshot gives it
    /// back the snapshot's id, and with it whatever was derived from it.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, src: &Self) {
        self.assert_same_shape(src);
        self.data.copy_from_slice(&src.data);
        self.id = src.id;
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeMismatchError`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Self, ShapeMismatchError> {
        self.clone().into_shape(shape)
    }

    /// [`Tensor::reshape`] by value: keeps the buffer instead of copying it.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeMismatchError`] if the element counts differ.
    pub fn into_shape(self, shape: impl Into<Shape>) -> Result<Self, ShapeMismatchError> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(ShapeMismatchError {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Self {
            shape,
            data: self.data,
            id: self.id,
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
            id: fresh_id(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other);
        Self {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            id: fresh_id(),
        }
    }

    /// `self += alpha * other`, the BLAS `axpy` primitive.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.assert_same_shape(other);
        for (a, &b) in self.data_mut().iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in self.data_mut() {
            *x *= alpha;
        }
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.numel() as f64
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` only for NaN-free empty
    /// input, which [`Shape`] forbids, so in practice a finite value.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value of any element.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm (f64 accumulation).
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Dot product with another same-shaped tensor (f64 accumulation).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn dot(&self, other: &Self) -> f64 {
        self.assert_same_shape(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum()
    }

    /// `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    fn assert_same_shape(&self, other: &Self) {
        assert_eq!(
            self.shape, other.shape,
            "tensor shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        let preview: Vec<f32> = self.data.iter().copied().take(PREVIEW).collect();
        let ellipsis = if self.numel() > PREVIEW { ", …" } else { "" };
        write!(f, "Tensor({} {:?}{})", self.shape, preview, ellipsis)
    }
}

impl Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.shape().dims(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.data()[4], 5.0);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        let err = Tensor::from_vec([2, 2], vec![1.0]).unwrap_err();
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([4], vec![1., 2., 3., 4.]).unwrap();
        let r = t.reshape([2, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([3]).is_err());
        let moved = r.into_shape([4]).unwrap();
        assert_eq!((moved.shape(), moved.data()), (t.shape(), t.data()));
        assert!(moved.into_shape([3]).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec([3], vec![10., 20., 30.]).unwrap();
        assert_eq!((&a + &b).data(), &[11., 22., 33.]);
        assert_eq!((&b - &a).data(), &[9., 18., 27.]);
        assert_eq!((&a * 2.0).data(), &[2., 4., 6.]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.data(), &[11., 22., 33.]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full([2], 1.0);
        let b = Tensor::full([2], 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[7.0, 7.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[3.5, 3.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![-2., 0., 1., 5.]).unwrap();
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.abs_max(), 5.0);
        assert!((t.norm_sq() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec([3], vec![4., 5., 6.]).unwrap();
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_add_panics() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        let _ = &a + &b;
    }

    #[test]
    fn mutation_draws_a_fresh_id_and_copies_keep_it() {
        let t = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]).unwrap();
        // Constructors draw distinct ids; equality ignores them.
        let same = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]).unwrap();
        assert_ne!(t.id(), same.id());
        assert_eq!(t, same);
        let fresh = [
            Tensor::zeros([2, 2]).id(),
            Tensor::full([2, 2], 1.0).id(),
            t.map(|x| x).id(),
            t.zip(&t, |a, _| a).id(),
            (&t + &t).id(),
        ];
        for (k, id) in fresh.iter().enumerate() {
            assert!(fresh[..k].iter().chain([&t.id()]).all(|other| other != id));
        }
        // Clone, into_shape and copy_from keep (or take) the id.
        assert_eq!(t.clone().id(), t.id());
        assert_eq!(t.clone().into_shape([4]).unwrap().id(), t.id());
        assert_eq!(t.reshape([4]).unwrap().id(), t.id());
        let mut dst = Tensor::zeros([2, 2]);
        dst.copy_from(&t);
        assert_eq!((dst.id(), dst.data()), (t.id(), t.data()));
        // Every `&mut` method draws a fresh id, even one that leaves the
        // data as it was.
        type Mutation = (&'static str, fn(&mut Tensor));
        let mutations: [Mutation; 4] = [
            ("data_mut", |x| {
                x.data_mut();
            }),
            ("axpy", |x| x.axpy(0.0, &Tensor::zeros([2, 2]))),
            ("scale", |x| x.scale(1.0)),
            ("add_assign", |x| *x += &Tensor::zeros([2, 2])),
        ];
        for (name, mutate) in mutations {
            let mut m = t.clone();
            mutate(&mut m);
            assert_ne!(m.id(), t.id(), "{name} kept the id");
            assert_eq!(m, t, "{name} changed the data");
        }
    }

    #[test]
    fn finite_check() {
        let mut t = Tensor::zeros([2]);
        assert!(t.is_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.is_finite());
    }
}
