//! Dense linear-algebra substrate.
//!
//! The paper implements "weight application" — the dense half of GCN
//! training — with Intel MKL's `cblas_dgemm` (Sec. V-A). This crate is the
//! from-scratch replacement: a row-major `f32` matrix type ([`DMatrix`])
//! plus a parallel, cache-blocked GEMM ([`gemm`]) with the three transpose
//! variants GCN training needs (`A·B`, `Aᵀ·B`, `A·Bᵀ`), and the elementwise
//! kernels (ReLU, sigmoid, softmax, concat/split, dropout) used by the
//! neural-network crate.
//!
//! Parallelism runs on whichever rayon pool is current, so core-count
//! sweeps (Fig. 3) simply `install` a local pool around training calls.
//!
//! # Example
//!
//! ```
//! use gsgcn_tensor::{DMatrix, gemm};
//!
//! let a = DMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
//! let b = DMatrix::from_fn(3, 2, |i, j| if i == j { 1.0 } else { 0.0 });
//! let c = gemm::matmul(&a, &b);
//! assert_eq!(c.get(1, 0), 3.0);
//! ```

pub mod alloc;
pub mod amx;
pub mod bf16;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod precision;
pub mod scratch;
pub mod ukernel;
pub mod view;

pub use bf16::{Bf16, Bf16MatRef};
pub use matrix::DMatrix;
pub use precision::Precision;
pub use view::{IndexedRows, MatMut, MatRef, Rows};
