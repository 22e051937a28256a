//! # clado-solver
//!
//! The optimization substrate of the CLADO reproduction: a dense symmetric
//! eigensolver with PSD projection (the paper's sensitivity-matrix
//! preprocessing) and an Integer Quadratic Program solver for the
//! bit-width-assignment problem of equation (11) — standing in for the
//! paper's CVXPY + GUROBI stack.
//!
//! ## Example
//!
//! ```
//! use clado_solver::{IqpProblem, SolverConfig, SymMatrix};
//!
//! let mut g = SymMatrix::zeros(4);
//! g.set(0, 0, 1.0);
//! g.set(1, 1, 0.1);
//! g.set(2, 2, 0.5);
//! g.set(3, 3, 0.05);
//! let g = g.psd_project(); // the paper's PSD approximation step
//! let problem = IqpProblem::new(g, &[2, 2], vec![10, 20, 10, 20], 30)?;
//! let solution = problem.solve(&SolverConfig::default())?;
//! assert!(solution.cost <= 30);
//! # Ok::<(), clado_solver::IqpError>(())
//! ```

#![warn(missing_docs)]

mod iqp;
mod linalg;
mod validate;

pub use iqp::{
    Downgrade, DowngradeReason, IqpError, IqpProblem, MethodUsed, Solution, SolverConfig,
    Termination,
};
pub use linalg::{EigenDecomposition, PsdProjection, SymMatrix};
pub use validate::{harden, ObservedMask, OmegaReport};
