//! # clado-tensor
//!
//! Dense `f32` tensors and the numeric kernels that power the CLADO
//! mixed-precision-quantization reproduction: GEMM, im2col convolutions,
//! pooling, activations, softmax, and seeded initializers.
//!
//! The crate is deliberately small and dependency-light: everything is safe
//! Rust over contiguous `Vec<f32>` buffers in row-major (NCHW) layout.
//!
//! ## Example
//!
//! ```
//! use clado_tensor::{matmul, Tensor};
//!
//! let weights = Tensor::from_vec([2, 2], vec![1.0, -1.0, 0.5, 2.0])?;
//! let x = Tensor::from_vec([2, 1], vec![3.0, 4.0])?;
//! let y = matmul(&weights, &x);
//! assert_eq!(y.data(), &[-1.0, 9.5]);
//! # Ok::<(), clado_tensor::ShapeMismatchError>(())
//! ```

#![warn(missing_docs)]

mod conv;
mod gemm;
pub mod init;
pub mod kernel;
pub mod ops;
mod pool;
mod shape;
mod tensor;

pub use conv::{conv2d_backward, conv2d_forward, im2col, im2col_ld, Conv2dGrads, Conv2dSpec};
pub use gemm::{matmul, matmul_a_bt, matmul_at_b, transpose};
pub use kernel::{active_backend, cpu_features, force_backend, kernel_name, Backend};
pub use pool::{
    avg_pool2d_backward, avg_pool2d_forward, global_avg_pool_backward, global_avg_pool_forward,
    max_pool2d_backward, max_pool2d_forward, MaxPoolOutput,
};
pub use shape::{Shape, MAX_DIMS};
pub use tensor::{ShapeMismatchError, Tensor};
