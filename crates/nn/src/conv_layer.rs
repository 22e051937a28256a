//! Convolution layer wrapping the `clado-tensor` conv kernels.

use crate::layer::{join, Layer};
use crate::param::{Param, ParamRole, ParamVisitor, ParamVisitorRef};
use clado_tensor::{conv2d_backward, conv2d_forward, init, Conv2dSpec, Tensor};
use rand::Rng;

/// A 2-D convolution layer (dense, grouped, or depthwise).
#[derive(Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Param,
    bias: Option<Param>,
    cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// `bias` is typically `false` when a BatchNorm follows.
    pub fn new(spec: Conv2dSpec, bias: bool, rng: &mut impl Rng) -> Self {
        let fan_in = (spec.in_channels / spec.groups) * spec.kernel * spec.kernel;
        let weight = init::kaiming_normal(spec.weight_shape(), fan_in, rng);
        Self {
            spec,
            weight: Param::new(weight, ParamRole::Weight),
            bias: bias.then(|| Param::new(Tensor::zeros([spec.out_channels]), ParamRole::Bias)),
            cache: None,
        }
    }

    /// Marks the weight as excluded from quantization (e.g. the stem conv
    /// of ResNet-style models, which the paper's layer lists omit).
    pub fn unquantized(mut self) -> Self {
        self.weight.quantizable = false;
        self
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, _training: bool) -> Tensor {
        let y = conv2d_forward(
            &x,
            &self.weight.value,
            self.bias.as_ref().map(|b| &b.value),
            &self.spec,
        );
        self.cache = Some(x);
        y
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let x = self
            .cache
            .take()
            .expect("backward requires a training forward");
        let grads = conv2d_backward(&x, &self.weight.value, &d_out, &self.spec);
        self.weight.grad += &grads.weight;
        if let Some(b) = &mut self.bias {
            b.grad += &grads.bias;
        }
        grads.input
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        f(&join(prefix, "weight"), &mut self.weight);
        if let Some(b) = &mut self.bias {
            f(&join(prefix, "bias"), b);
        }
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        f(&join(prefix, "weight"), &self.weight);
        if let Some(b) = &self.bias {
            f(&join(prefix, "bias"), b);
        }
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = Conv2dSpec::new(3, 8, 3, 1, 1);
        let mut conv = Conv2d::new(spec, true, &mut rng);
        let x = init::normal([2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(x, true);
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
        let dx = conv.backward(Tensor::zeros(y.shape()));
        assert_eq!(dx.shape().dims(), &[2, 3, 8, 8]);
    }

    #[test]
    fn gradient_accumulates_across_backwards() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let mut conv = Conv2d::new(spec, false, &mut rng);
        let x = Tensor::full([1, 1, 2, 2], 1.0);
        let d = Tensor::full([1, 1, 2, 2], 1.0);
        conv.forward(x.clone(), true);
        conv.backward(d.clone());
        let g1 = conv.weight.grad.data()[0];
        conv.forward(x, true);
        conv.backward(d);
        assert!((conv.weight.grad.data()[0] - 2.0 * g1).abs() < 1e-6);
    }

    #[test]
    fn visit_params_exposes_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(Conv2dSpec::new(2, 4, 3, 1, 1), true, &mut rng);
        let mut names = Vec::new();
        conv.visit_params("stem", &mut |n, p| {
            names.push((n.to_string(), p.role));
        });
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].0, "stem.weight");
        assert_eq!(names[0].1, ParamRole::Weight);
        assert_eq!(names[1].0, "stem.bias");
    }

    #[test]
    fn unquantized_stem() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(Conv2dSpec::new(2, 4, 3, 1, 1), false, &mut rng).unquantized();
        let mut quantizable = Vec::new();
        conv.visit_params("", &mut |_, p| quantizable.push(p.quantizable));
        assert_eq!(quantizable, vec![false]);
    }
}
