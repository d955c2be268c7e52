//! # dl-tensor
//!
//! A small, dependency-light dense tensor library that underpins the whole
//! `dl-sys` workspace. It provides exactly what a from-scratch deep learning
//! framework needs:
//!
//! * [`Shape`] — dimension bookkeeping with row-major strides,
//! * [`Tensor`] — an owned, contiguous `f32` tensor with elementwise math,
//!   broadcasting, reductions, matrix multiplication and 2-D convolution
//!   helpers (`im2col`),
//! * [`init`] — seeded random initializers (uniform, normal, Xavier/Glorot,
//!   He) so every experiment in the workspace is reproducible,
//! * [`acct`] — thread-local op-cost accounting (FLOPs, bytes moved) charged
//!   by every kernel above, free when no scope is open,
//! * [`par`] — a zero-dependency parallel + cache-blocked compute backend
//!   (persistent `std::thread` worker pool, `DL_THREADS`/[`par::set_threads`]
//!   thread-count control) whose kernels are **bit-identical** to the
//!   sequential ones and charge identical [`acct`] costs. It also hosts the
//!   reduced-precision kernel layer: a `DL_KERNEL={scalar,unrolled}` dispatch
//!   knob ([`par::with_kernel`]) selecting between the scalar reference
//!   oracle and a `mul_add` GEMM with its own pinned accumulation order, and
//!   [`par::matmul_q8`] — a native int8 GEMM over packed affine codes with
//!   exact integer accumulation and one rescale per output.
//!
//! Design notes (see `DESIGN.md` at the workspace root):
//!
//! * Data is always `f32` and stored contiguously in row-major order. The
//!   tutorial's systems lens is about *data movement and computation*, and a
//!   flat `Vec<f32>` keeps both easy to reason about and fast to iterate.
//! * All shape mismatches are programming errors inside this workspace, so
//!   the arithmetic operators panic with a descriptive message. Fallible
//!   construction (`Tensor::from_vec`) returns [`TensorError`] instead, since
//!   it sits on user-facing input paths.
//! * No interior mutability, no views with lifetimes: the workloads here are
//!   small enough that explicit `clone()`s are cheaper than the complexity
//!   budget of a borrow-splitting view system.

#![warn(missing_docs)]

pub mod acct;
pub mod init;
pub mod par;
mod shape;
mod tensor;

pub use shape::Shape;
pub use tensor::{Tensor, TensorError};

/// Convenience alias used across the workspace for `Result<T, TensorError>`.
pub type Result<T> = std::result::Result<T, TensorError>;
