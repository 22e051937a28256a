//! Model-size accounting for mixed-precision assignments.
//!
//! The MPQ knapsack constraint is `Σᵢ |w⁽ⁱ⁾| · b⁽ⁱ⁾ ≤ C_target` (bits).
//! This module provides the bookkeeping: per-layer parameter counts, sizes
//! in bits/bytes/MB, and budget construction from "x-bit UPQ" references.

use crate::BitWidth;

/// Bits per megabyte, used for paper-style size reporting.
const BITS_PER_MB: f64 = 8.0 * 1024.0 * 1024.0;

/// Parameter counts of the quantizable layers of a model, in layer order.
///
/// # Examples
///
/// ```
/// use clado_quant::{BitWidth, LayerSizes};
///
/// let sizes = LayerSizes::new(vec![100, 250, 50]);
/// assert_eq!(sizes.num_layers(), 3);
/// assert_eq!(sizes.total_params(), 400);
/// assert_eq!(sizes.uniform_bits(BitWidth::of(8)), 3200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSizes {
    params: Vec<usize>,
}

impl LayerSizes {
    /// Creates the accounting table from per-layer parameter counts.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty or contains a zero count.
    pub fn new(params: Vec<usize>) -> Self {
        assert!(!params.is_empty(), "a model must have at least one layer");
        assert!(
            params.iter().all(|&p| p > 0),
            "layer parameter counts must be positive"
        );
        Self { params }
    }

    /// Number of quantizable layers `I`.
    pub fn num_layers(&self) -> usize {
        self.params.len()
    }

    /// Parameter count `|w⁽ⁱ⁾|` of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn params(&self, i: usize) -> usize {
        self.params[i]
    }

    /// Per-layer parameter counts as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.params
    }

    /// Total parameter count.
    pub fn total_params(&self) -> usize {
        self.params.iter().sum()
    }

    /// Weight storage, in bits, of a uniform-precision model.
    pub fn uniform_bits(&self, bits: BitWidth) -> u64 {
        self.total_params() as u64 * bits.bits() as u64
    }

    /// Weight storage, in bits, of a mixed-precision assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` length differs from the layer count.
    pub fn assignment_bits(&self, assignment: &[BitWidth]) -> u64 {
        assert_eq!(
            assignment.len(),
            self.params.len(),
            "assignment covers {} layers but the model has {}",
            assignment.len(),
            self.params.len()
        );
        self.params
            .iter()
            .zip(assignment)
            .map(|(&p, &b)| p as u64 * b.bits() as u64)
            .sum()
    }

    /// A budget corresponding to an *average* of `avg_bits` bits per weight
    /// (may be fractional, e.g. 3.0 for the "3-bit UPQ equivalent" sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `avg_bits` is non-positive or non-finite.
    pub fn budget_from_avg_bits(&self, avg_bits: f64) -> u64 {
        assert!(
            avg_bits > 0.0 && avg_bits.is_finite(),
            "avg_bits must be positive"
        );
        (self.total_params() as f64 * avg_bits).round() as u64
    }
}

/// Converts a size in bits to megabytes (paper-style reporting).
pub fn bits_to_mb(bits: u64) -> f64 {
    bits as f64 / BITS_PER_MB
}

/// Average bits per weight implied by a bit budget.
pub fn avg_bits(total_bits: u64, total_params: usize) -> f64 {
    total_bits as f64 / total_params as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> LayerSizes {
        LayerSizes::new(vec![100, 200, 700])
    }

    #[test]
    fn uniform_and_assignment_accounting() {
        let s = sizes();
        assert_eq!(s.total_params(), 1000);
        assert_eq!(s.uniform_bits(BitWidth::of(4)), 4000);
        let assign = vec![BitWidth::of(8), BitWidth::of(4), BitWidth::of(2)];
        assert_eq!(s.assignment_bits(&assign), 800 + 800 + 1400);
    }

    #[test]
    fn budgets() {
        let s = sizes();
        assert_eq!(s.budget_from_avg_bits(3.0), 3000);
        assert_eq!(s.budget_from_avg_bits(2.5), 2500);
    }

    #[test]
    fn mb_conversion() {
        // 8 Mi bits = 1 MB
        assert!((bits_to_mb(8 * 1024 * 1024) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_bits_roundtrip() {
        let s = sizes();
        let b = s.budget_from_avg_bits(3.5);
        assert!((avg_bits(b, s.total_params()) - 3.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "assignment covers")]
    fn wrong_assignment_length_panics() {
        sizes().assignment_bits(&[BitWidth::of(8)]);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_layer_sizes_panics() {
        LayerSizes::new(vec![]);
    }
}
