//! Ω-matrix hardening: repair (or reject) measured sensitivity matrices
//! before they reach the IQP objective.
//!
//! Every Ω reaches the solver as a [`SymMatrix`], symmetric by
//! construction, so the defects left to handle are non-finite entries (a
//! poisoned probe) and a spectrum the PSD projection would mostly discard
//! (clip-mass ratio near 1, checked by the caller). The lenient path zeroes
//! off-diagonal non-finite entries (dropping a cross term is safe;
//! inventing one is not), while a non-finite *diagonal* is always rejected,
//! because a layer's own sensitivity cannot be conjured from nothing. Under
//! strict hardening (`--solver-strict`) every non-finite entry is a typed
//! rejection instead.

use crate::iqp::IqpError;
use crate::SymMatrix;

/// What [`harden`] did to the matrix it accepted.
#[derive(Debug, Clone, PartialEq)]
pub struct OmegaReport {
    /// Off-diagonal non-finite entries zeroed (counting both triangles).
    pub repaired_non_finite: usize,
}

/// Hardens a measured Ω into a solver-ready [`SymMatrix`].
///
/// Lenient (`strict == false`): off-diagonal non-finite entries are zeroed
/// (both triangles) and counted in the [`OmegaReport`]; every other entry
/// is passed through bit for bit. Strict: any non-finite entry is a typed
/// rejection.
///
/// # Errors
///
/// [`IqpError::NonFiniteObjective`] for a non-finite diagonal entry (always)
/// or, under `strict`, for the first non-finite entry in row-major order.
pub fn harden(matrix: &SymMatrix, strict: bool) -> Result<(SymMatrix, OmegaReport), IqpError> {
    let n = matrix.dim();
    if let Some(row) = (0..n).find(|&i| !matrix.get(i, i).is_finite()) {
        return Err(IqpError::NonFiniteObjective {
            row,
            col: row,
            value: matrix.get(row, row),
        });
    }
    if strict {
        if let Some((row, col, value)) = matrix.first_non_finite() {
            return Err(IqpError::NonFiniteObjective { row, col, value });
        }
    }
    let mut repaired = matrix.clone();
    let mut repaired_non_finite = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            if !repaired.get(i, j).is_finite() {
                repaired.set(i, j, 0.0);
                repaired_non_finite += 2;
            }
        }
    }
    Ok((
        repaired,
        OmegaReport {
            repaired_non_finite,
        },
    ))
}

/// Which entries of a partially-observed Ω were actually measured.
///
/// A sub-quadratic estimator spends its probe budget on a subset of the
/// cross-term grid; entries it never probed are *unobserved* — zero in the
/// matrix buffer but carrying no information, unlike a measured zero. The
/// mask is symmetric (observing `(i, j)` observes `(j, i)`), mirroring
/// [`SymMatrix`] storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedMask {
    n: usize,
    data: Vec<bool>,
}

impl ObservedMask {
    /// Creates an all-unobserved mask for an `n×n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "mask dimension must be positive");
        Self {
            n,
            data: vec![false; n * n],
        }
    }

    /// Mask dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Whether entry `(i, j)` was observed.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range for n={}",
            self.n
        );
        self.data[i * self.n + j]
    }

    /// Marks entries `(i, j)` and `(j, i)` as observed.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, i: usize, j: usize) {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range for n={}",
            self.n
        );
        self.data[i * self.n + j] = true;
        self.data[j * self.n + i] = true;
    }

    /// Observed entries of the upper triangle (diagonal included).
    pub fn observed(&self) -> usize {
        let mut count = 0;
        for i in 0..self.n {
            for j in i..self.n {
                if self.data[i * self.n + j] {
                    count += 1;
                }
            }
        }
        count
    }

    /// Total upper-triangle entries `n(n+1)/2`.
    pub fn total(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// Observed fraction of the upper triangle in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.observed() as f64 / self.total() as f64
    }

    /// First diagonal index without an observation, if any.
    pub fn first_unobserved_diagonal(&self) -> Option<usize> {
        (0..self.n).find(|&i| !self.data[i * self.n + i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SymMatrix {
        let mut m = SymMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 0.5);
        m.set(1, 1, 2.0);
        m
    }

    fn bits(m: &SymMatrix) -> Vec<u64> {
        let n = m.dim();
        (0..n * n)
            .map(|idx| m.get(idx / n, idx % n).to_bits())
            .collect()
    }

    #[test]
    fn clean_matrix_passes_through_bit_for_bit() {
        let mut input = sample();
        input.set(0, 1, -0.0);
        for strict in [false, true] {
            let (m, report) = harden(&input, strict).expect("clean input");
            assert_eq!(report.repaired_non_finite, 0);
            assert_eq!(bits(&m), bits(&input));
        }
    }

    #[test]
    fn strict_rejects_off_diagonal_non_finite() {
        let mut poisoned = sample();
        poisoned.set(0, 1, f64::INFINITY);
        match harden(&poisoned, true) {
            Err(IqpError::NonFiniteObjective { row, col, .. }) => assert_eq!((row, col), (0, 1)),
            other => panic!("expected NonFiniteObjective, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_non_finite_is_rejected_in_both_modes() {
        let mut m = sample();
        m.set(0, 0, f64::NAN);
        for strict in [false, true] {
            match harden(&m, strict) {
                Err(IqpError::NonFiniteObjective { row, col, value }) => {
                    assert_eq!((row, col), (0, 0));
                    assert!(value.is_nan());
                }
                other => panic!("strict={strict}: expected NonFiniteObjective, got {other:?}"),
            }
        }
    }

    #[test]
    fn observed_mask_counts_upper_triangle() {
        let mut mask = ObservedMask::new(3);
        assert_eq!(mask.total(), 6);
        assert_eq!(mask.observed(), 0);
        mask.set(0, 0);
        mask.set(1, 1);
        mask.set(2, 2);
        mask.set(0, 2);
        assert_eq!(mask.observed(), 4);
        assert!(mask.get(2, 0), "observation is symmetric");
        assert!((mask.fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(mask.first_unobserved_diagonal(), None);
    }

    #[test]
    fn sym_matrix_harden_repairs_mirrored_entries() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        m.set(2, 2, 1.0);
        m.set(0, 1, 0.25);
        m.set(0, 2, f64::NAN); // mirrored into both triangles
        let (repaired, report) = harden(&m, false).expect("lenient repairs");
        assert_eq!(report.repaired_non_finite, 2);
        assert_eq!(repaired.get(0, 2), 0.0);
        assert_eq!(repaired.get(2, 0), 0.0);
        assert_eq!(repaired.get(0, 1), 0.25);
        assert!(harden(&m, true).is_err());
    }
}
