//! Trainable parameters.

use clado_tensor::Tensor;

/// The role a parameter plays, which determines whether MPQ quantizes it.
///
/// The paper quantizes convolution and fully-connected *weights*; biases and
/// normalization parameters stay in full precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamRole {
    /// A conv/linear weight tensor — the quantization target.
    Weight,
    /// A bias vector.
    Bias,
    /// A normalization scale/shift (BatchNorm γ/β, LayerNorm γ/β).
    Norm,
    /// A non-trained buffer updated by forward passes (BatchNorm running
    /// statistics). Serialized with the model, ignored by optimizers.
    Buffer,
}

/// A trainable tensor with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Role of this parameter.
    pub role: ParamRole,
    /// Whether MPQ may quantize this parameter (only meaningful for
    /// [`ParamRole::Weight`]; stem and classifier layers of some models are
    /// excluded to match the paper's layer lists).
    pub quantizable: bool,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    pub fn new(value: Tensor, role: ParamRole) -> Self {
        let grad = Tensor::zeros(value.shape());
        let quantizable = role == ParamRole::Weight;
        Self {
            value,
            grad,
            role,
            quantizable,
        }
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// Visitor callback for walking a network's parameters in definition order.
///
/// The `&str` argument is the fully-qualified dotted parameter path, e.g.
/// `layer1.0.conv1.weight`.
pub type ParamVisitor<'a> = dyn FnMut(&str, &mut Param) + 'a;

/// Read-only visitor callback: identical walk order and paths to
/// [`ParamVisitor`], but through shared references, so inspection
/// (snapshots, statistics, serialization) needs no `&mut` access.
pub type ParamVisitorRef<'a> = dyn FnMut(&str, &Param) + 'a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_role_default() {
        let p = Param::new(Tensor::full([2, 2], 1.0), ParamRole::Weight);
        assert_eq!(p.grad.data(), &[0.0; 4]);
        assert!(p.quantizable);
        let b = Param::new(Tensor::zeros([2]), ParamRole::Bias);
        assert!(!b.quantizable);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::zeros([3]), ParamRole::Weight);
        p.grad.data_mut()[1] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0; 3]);
    }
}
