//! Dense symmetric matrices, Jacobi eigendecomposition, and PSD projection.
//!
//! CLADO's sensitivity matrix Ĝ is symmetric but, measured on a small
//! sensitivity set, possibly indefinite. The paper projects it onto the PSD
//! cone by eigendecomposition and clamping negative eigenvalues — exactly
//! what [`SymMatrix::psd_project`] does, backed by a cyclic Jacobi
//! eigensolver (robust and plenty fast for the |𝔹|·I ≲ 200 matrices MPQ
//! produces).

// Index-based loops are kept where they mirror the math directly.
#![allow(clippy::needless_range_loop)]
use std::fmt;

/// Relative off-diagonal tolerance at which Jacobi sweeps stop.
const JACOBI_TOL: f64 = 1e-12;
/// Maximum number of Jacobi sweeps (each sweep visits all off-diag pairs).
const JACOBI_MAX_SWEEPS: usize = 100;

/// A dense symmetric `n×n` matrix of `f64` values.
///
/// Symmetry is maintained by construction: [`SymMatrix::set`] writes both
/// `(i, j)` and `(j, i)`.
///
/// # Examples
///
/// ```
/// use clado_solver::SymMatrix;
///
/// let mut a = SymMatrix::zeros(2);
/// a.set(0, 0, 2.0);
/// a.set(0, 1, 1.0);
/// a.set(1, 1, 2.0);
/// let x = [1.0, -1.0];
/// assert_eq!(a.quadratic_form(&x), 2.0); // xᵀAx = 2 - 2·1 + 2
/// ```
#[derive(Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates an `n×n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range for n={}",
            self.n
        );
        self.data[i * self.n + j]
    }

    /// Sets entries `(i, j)` and `(j, i)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range for n={}",
            self.n
        );
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Evaluates the quadratic form `xᵀ A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n, "vector length must match matrix dimension");
        let mut acc = 0.0;
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            let mut r = 0.0;
            for (a, &xj) in row.iter().zip(x) {
                r += a * xj;
            }
            acc += x[i] * r;
        }
        acc
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Eigendecomposition by the cyclic Jacobi method.
    ///
    /// Returns eigenvalues (ascending) and the matching orthonormal
    /// eigenvectors.
    pub fn eigen(&self) -> EigenDecomposition {
        let n = self.n;
        let mut a = self.data.clone();
        // v holds the accumulated rotations; columns are eigenvectors.
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }
        let norm = self.frobenius_norm().max(f64::MIN_POSITIVE);
        let mut sweeps = 0usize;
        for _sweep in 0..JACOBI_MAX_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a[i * n + j] * a[i * n + j];
                }
            }
            if off.sqrt() <= JACOBI_TOL * norm {
                break;
            }
            sweeps += 1;
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() <= JACOBI_TOL * norm / (n as f64) {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let theta = (aqq - app) / (2.0 * apq);
                    // Tangent of the rotation angle, the stable formula.
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Apply the rotation G(p,q,θ) on both sides of A.
                    for k in 0..n {
                        let akp = a[k * n + p];
                        let akq = a[k * n + q];
                        a[k * n + p] = c * akp - s * akq;
                        a[k * n + q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[p * n + k];
                        let aqk = a[q * n + k];
                        a[p * n + k] = c * apk - s * aqk;
                        a[q * n + k] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[k * n + p];
                        let vkq = v[k * n + q];
                        v[k * n + p] = c * vkp - s * vkq;
                        v[k * n + q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[i * n + i], i)).collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("eigenvalues are finite"));
        let values: Vec<f64> = pairs.iter().map(|&(e, _)| e).collect();
        let mut vectors = vec![0.0; n * n];
        for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
            for k in 0..n {
                vectors[k * n + new_col] = v[k * n + old_col];
            }
        }
        EigenDecomposition {
            n,
            values,
            vectors,
            sweeps,
        }
    }

    /// Projects the matrix onto the PSD cone: eigendecompose, clamp negative
    /// eigenvalues to zero, reassemble (Algorithm 1's final preprocessing
    /// step before the IQP solve).
    pub fn psd_project(&self) -> Self {
        self.psd_project_stats().matrix
    }

    /// [`SymMatrix::psd_project`] plus observability: how many eigenvalues
    /// were clamped to zero and how many Jacobi sweeps the decomposition
    /// took (surfaced as telemetry counters by `clado-core`).
    pub fn psd_project_stats(&self) -> PsdProjection {
        let eig = self.eigen();
        let clipped = eig.values.iter().filter(|&&e| e < 0.0).count();
        let clipped_mass: f64 = eig.values.iter().filter(|&&e| e < 0.0).map(|e| -e).sum();
        let min_eigenvalue = *eig.values.first().expect("n > 0");
        let max_eigenvalue = *eig.values.last().expect("n > 0");
        let total_mass: f64 = eig.values.iter().map(|e| e.abs()).sum();
        let min_positive = eig.values.iter().copied().find(|&e| e > 0.0);
        let condition = match min_positive {
            Some(mp) if max_eigenvalue > 0.0 => max_eigenvalue / mp,
            _ => 1.0,
        };
        PsdProjection {
            matrix: eig.reassemble_with(|e| e.max(0.0)),
            clipped,
            clipped_mass,
            sweeps: eig.sweeps,
            min_eigenvalue,
            max_eigenvalue,
            total_mass,
            condition,
        }
    }

    /// Smallest eigenvalue (convexity diagnostic).
    pub fn min_eigenvalue(&self) -> f64 {
        self.eigen().values[0]
    }

    /// `true` when the LDLᵀ factorization of `A + shift·I` (no pivoting)
    /// finds only positive pivots, i.e. `A + shift·I` is positive definite
    /// up to rounding, so `λ_min(A) > −shift` up to rounding. `O(n³/6)`:
    /// a cheap certificate before falling back to [`Self::min_eigenvalue`].
    pub(crate) fn ldlt_is_positive(&self, shift: f64) -> bool {
        let n = self.n;
        // Row-major unit lower factor; only the strict lower triangle is used.
        let mut l = vec![0.0; n * n];
        let mut d = vec![0.0; n];
        for j in 0..n {
            let mut dj = self.data[j * n + j] + shift;
            for k in 0..j {
                dj -= l[j * n + k] * l[j * n + k] * d[k];
            }
            if dj.is_nan() || dj <= 0.0 {
                return false;
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut s = self.data[i * n + j];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k] * d[k];
                }
                l[i * n + j] = s / dj;
            }
        }
        true
    }

    /// The first non-finite entry `(i, j, value)` in row-major order, if
    /// any. Used as a pre-solve validation: a NaN/Inf that slips into the
    /// IQP objective would silently poison every node bound, so callers
    /// reject the matrix up front instead.
    pub fn first_non_finite(&self) -> Option<(usize, usize, f64)> {
        self.data
            .iter()
            .enumerate()
            .find_map(|(idx, &v)| (!v.is_finite()).then_some((idx / self.n, idx % self.n, v)))
    }
}

impl fmt::Debug for SymMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SymMatrix({}×{}, ‖·‖F={:.3e})",
            self.n,
            self.n,
            self.frobenius_norm()
        )
    }
}

/// The result of [`SymMatrix::eigen`]: eigenvalues in ascending order and
/// the corresponding orthonormal eigenvectors (column `k` of `vectors`
/// pairs with `values[k]`).
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    n: usize,
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Row-major `n×n` matrix whose columns are eigenvectors.
    pub vectors: Vec<f64>,
    /// Jacobi sweeps performed before the off-diagonal norm converged.
    pub sweeps: usize,
}

/// Result of [`SymMatrix::psd_project_stats`].
#[derive(Debug, Clone)]
pub struct PsdProjection {
    /// The projected (PSD) matrix.
    pub matrix: SymMatrix,
    /// Number of negative eigenvalues clamped to zero.
    pub clipped: usize,
    /// Total magnitude `Σ|λ|` of the clamped negative eigenvalues — how
    /// much of the measured matrix the projection discarded. A large
    /// value relative to `‖Ĝ‖F` means the sensitivity measurement was
    /// noisy (or poisoned) and the IQP objective is a poor surrogate.
    pub clipped_mass: f64,
    /// Jacobi sweeps the eigendecomposition took.
    pub sweeps: usize,
    /// Smallest eigenvalue of the *measured* (pre-projection) matrix.
    pub min_eigenvalue: f64,
    /// Largest eigenvalue of the measured matrix.
    pub max_eigenvalue: f64,
    /// Nuclear norm `Σ|λ|` of the measured spectrum. `clipped_mass /
    /// total_mass` is the fraction of the measurement the projection
    /// discarded — the Ω-hardening clip-mass ratio.
    pub total_mass: f64,
    /// Condition number of the *projected* matrix over its strictly
    /// positive eigenvalues (`λ_max / λ_min⁺`; 1.0 when no positive
    /// eigenvalue remains).
    pub condition: f64,
}

impl EigenDecomposition {
    /// Rebuilds `Σ f(λₖ) vₖ vₖᵀ`.
    pub fn reassemble_with(&self, f: impl Fn(f64) -> f64) -> SymMatrix {
        let n = self.n;
        let mut out = SymMatrix::zeros(n);
        for k in 0..n {
            let lam = f(self.values[k]);
            if lam == 0.0 {
                continue;
            }
            for i in 0..n {
                let vik = self.vectors[i * n + k];
                if vik == 0.0 {
                    continue;
                }
                for j in i..n {
                    let add = lam * vik * self.vectors[j * n + k];
                    out.data[i * n + j] += add;
                    if i != j {
                        out.data[j * n + i] += add;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn quadratic_form_basic() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(1, 1, 4.0);
        a.set(0, 1, 2.0);
        approx(a.quadratic_form(&[1.0, 1.0]), 9.0, 1e-12);
        approx(a.quadratic_form(&[1.0, 0.0]), 1.0, 1e-12);
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let mut a = SymMatrix::zeros(3);
        a.set(0, 0, 3.0);
        a.set(1, 1, -1.0);
        a.set(2, 2, 2.0);
        let eig = a.eigen();
        approx(eig.values[0], -1.0, 1e-10);
        approx(eig.values[1], 2.0, 1e-10);
        approx(eig.values[2], 3.0, 1e-10);
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 2.0);
        a.set(1, 1, 2.0);
        a.set(0, 1, 1.0);
        let eig = a.eigen();
        approx(eig.values[0], 1.0, 1e-10);
        approx(eig.values[1], 3.0, 1e-10);
    }

    #[test]
    fn eigen_reconstruction_identity() {
        // A = V Λ Vᵀ must reproduce A.
        let mut a = SymMatrix::zeros(4);
        let vals = [
            [1.5, -0.3, 0.2, 0.0],
            [-0.3, 2.0, 0.5, -0.7],
            [0.2, 0.5, -1.0, 0.1],
            [0.0, -0.7, 0.1, 0.8],
        ];
        for i in 0..4 {
            for j in i..4 {
                a.set(i, j, vals[i][j]);
            }
        }
        let rebuilt = a.eigen().reassemble_with(|e| e);
        for i in 0..4 {
            for j in 0..4 {
                approx(rebuilt.get(i, j), a.get(i, j), 1e-9);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let mut a = SymMatrix::zeros(3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 2.0);
        a.set(2, 2, 3.0);
        a.set(0, 1, 0.5);
        a.set(1, 2, -0.25);
        let eig = a.eigen();
        let n = 3;
        for c1 in 0..n {
            for c2 in 0..n {
                let dot: f64 = (0..n)
                    .map(|k| eig.vectors[k * n + c1] * eig.vectors[k * n + c2])
                    .sum();
                approx(dot, if c1 == c2 { 1.0 } else { 0.0 }, 1e-9);
            }
        }
    }

    #[test]
    fn psd_projection_clamps_negatives() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        a.set(0, 1, 2.0); // eigenvalues -1 and 3
        assert!(a.min_eigenvalue() < 0.0);
        let p = a.psd_project();
        assert!(p.min_eigenvalue() >= -1e-10);
        // Projection of the positive part: eigenvalue 3 with vector (1,1)/√2
        // gives entries 1.5 everywhere.
        approx(p.get(0, 0), 1.5, 1e-9);
        approx(p.get(0, 1), 1.5, 1e-9);
    }

    #[test]
    fn psd_projection_is_idempotent_on_psd_input() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 2.0);
        a.set(1, 1, 1.0);
        a.set(0, 1, 0.5);
        assert!(a.min_eigenvalue() > 0.0);
        let p = a.psd_project();
        for i in 0..2 {
            for j in 0..2 {
                approx(p.get(i, j), a.get(i, j), 1e-9);
            }
        }
    }

    #[test]
    fn psd_quadratic_form_is_nonnegative() {
        let mut a = SymMatrix::zeros(3);
        a.set(0, 0, 0.2);
        a.set(1, 1, -0.6);
        a.set(2, 2, 0.3);
        a.set(0, 1, 0.5);
        a.set(0, 2, -0.4);
        a.set(1, 2, 0.9);
        let p = a.psd_project();
        for x in [[1.0, 0.0, 0.0], [1.0, -2.0, 0.5], [-0.3, 0.7, 1.1]] {
            assert!(p.quadratic_form(&x) >= -1e-9);
        }
    }

    #[test]
    fn psd_project_stats_reports_clip_and_sweep_counts() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        a.set(0, 1, 2.0); // eigenvalues -1 and 3
        let proj = a.psd_project_stats();
        assert_eq!(proj.clipped, 1);
        assert!(
            (proj.clipped_mass - 1.0).abs() < 1e-9,
            "the clamped eigenvalue −1 carries mass 1, got {}",
            proj.clipped_mass
        );
        assert!(proj.sweeps >= 1);
        assert_eq!(proj.matrix, a.psd_project());
        approx(proj.min_eigenvalue, -1.0, 1e-9);
        approx(proj.max_eigenvalue, 3.0, 1e-9);
        approx(proj.total_mass, 4.0, 1e-9);
        // Only one positive eigenvalue survives: condition collapses to
        // λmax/λmin⁺ = 3/3 = 1.
        approx(proj.condition, 1.0, 1e-9);
        // An already-diagonal matrix converges without any sweep and clips
        // nothing.
        let d = SymMatrix::identity(3);
        let proj = d.psd_project_stats();
        assert_eq!(proj.sweeps, 0);
        assert_eq!(proj.clipped, 0);
        assert_eq!(proj.clipped_mass, 0.0);
    }

    #[test]
    fn first_non_finite_locates_the_poisoned_entry() {
        let mut a = SymMatrix::zeros(3);
        a.set(0, 0, 1.0);
        a.set(1, 2, 0.5);
        assert_eq!(a.first_non_finite(), None);
        a.set(1, 2, f64::NAN);
        let (i, j, v) = a.first_non_finite().expect("NaN present");
        // set() mirrors, so row-major order finds (1,2) first.
        assert_eq!((i, j), (1, 2));
        assert!(v.is_nan());
        let mut b = SymMatrix::zeros(2);
        b.set(1, 1, f64::INFINITY);
        let (i, j, v) = b.first_non_finite().expect("Inf present");
        assert_eq!((i, j), (1, 1));
        assert!(v.is_infinite());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bounds_checked() {
        SymMatrix::zeros(2).get(2, 0);
    }
}
