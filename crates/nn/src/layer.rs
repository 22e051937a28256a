//! The [`Layer`] trait, activation/structural layers, and [`Sequential`].

use crate::param::{Param, ParamVisitor, ParamVisitorRef};
use clado_tensor::{kernel, ops, Shape, Tensor};

/// Object-safe cloning for boxed layers.
///
/// Implemented automatically for every `Layer + Clone` type; lets
/// `Box<dyn Layer>` (and therefore [`Sequential`] and whole networks) be
/// cloned so the measurement engine can hand each worker thread its own
/// replica.
pub trait LayerClone {
    /// Clones `self` into a fresh boxed trait object.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A differentiable network module.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// cache, accumulates parameter gradients internally, and returns the
/// gradient with respect to its input. Layers are stateful and not
/// re-entrant: call `forward` then `backward` in strict alternation.
/// `infer` is the forward for calls that never run a backward.
///
/// `Send` is a supertrait so replicated networks can move across the
/// scoped worker threads of the sensitivity engine.
pub trait Layer: LayerClone + Send {
    /// Forward pass. `training` selects batch statistics (BatchNorm);
    /// both modes keep what `backward` needs, so evaluation-mode
    /// gradients (`forward(x, false)` then `backward`) work too.
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor;

    /// Inference forward: bitwise equal to `forward(x, false)`, but it
    /// keeps nothing for a backward and works in place on `x` where the
    /// layer can. It takes `&self`, so it cannot disturb the cache of a
    /// pending `backward`.
    fn infer(&self, x: Tensor) -> Tensor;

    /// [`Layer::infer`] of a borrowed input: bitwise `infer(x.clone())`,
    /// and `x` is left as it was. The default clones; a layer that only
    /// reads its input (a convolution, or a container whose first step
    /// does) overrides it so that no copy is made.
    fn infer_ref(&self, x: &Tensor) -> Tensor {
        self.infer(x.clone())
    }

    /// Backward pass: consumes the cached activations from the most recent
    /// `forward`, accumulates parameter gradients, returns `∂L/∂input`.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode `forward`.
    fn backward(&mut self, d_out: Tensor) -> Tensor;

    /// Visits every parameter with its dotted path prefixed by `prefix`.
    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor);

    /// Read-only counterpart of [`Layer::visit_params`]: same parameters,
    /// same order, same dotted paths, but through `&self`.
    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef);

    /// Name-free parameter walk for hot paths: visits the same parameters
    /// in the same order as [`Layer::visit_params`] but builds no path
    /// strings. Layers with parameters should override this; the default
    /// delegates to `visit_params` (correct, just slower).
    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_params("", &mut |_, p| f(p));
    }
}

/// Joins a prefix and a name with a dot, eliding empty prefixes.
pub(crate) fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// MobileNetV3 hard-swish.
    HardSwish,
}

/// Evaluation-mode `kind` applied in place: per element the arithmetic
/// of `forward(x, false)` (GELU on the active kernel backend).
pub(crate) fn activate_in_place(kind: ActKind, x: &mut Tensor) {
    let d = x.data_mut();
    match kind {
        ActKind::Relu => d.iter_mut().for_each(|v| *v = v.max(0.0)),
        ActKind::Gelu => kernel::gelu_with(kernel::active_backend(), d),
        ActKind::HardSwish => d.iter_mut().for_each(|v| *v = ops::hardswish_scalar(*v)),
    }
}

/// A stateless activation layer.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActKind,
    cached_input: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer.
    pub fn new(kind: ActKind) -> Self {
        Self {
            kind,
            cached_input: None,
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let y = match self.kind {
            ActKind::Relu => ops::relu_forward(&x),
            ActKind::Gelu if training => ops::gelu_forward(&x),
            ActKind::Gelu => ops::gelu_forward_eval(&x),
            ActKind::HardSwish => ops::hardswish_forward(&x),
        };
        self.cached_input = Some(x);
        y
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        activate_in_place(self.kind, &mut x);
        x
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward requires a training forward");
        match self.kind {
            ActKind::Relu => ops::relu_backward(&x, &d_out),
            ActKind::Gelu => ops::gelu_backward(&x, &d_out),
            ActKind::HardSwish => ops::hardswish_backward(&x, &d_out),
        }
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut ParamVisitorRef) {}
}

/// Flattens `[N, C, H, W]` to `[N, C·H·W]`.
#[derive(Debug, Default, Clone)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let _ = training;
        self.cached_shape = Some(x.shape());
        self.infer(x)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        let n = x.shape().dim(0);
        let rest = x.numel() / n;
        x.into_shape([n, rest]).expect("element count preserved")
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .take()
            .expect("backward requires a training forward");
        d_out.reshape(shape).expect("element count preserved")
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut ParamVisitorRef) {}
}

/// Max pooling layer.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Shape)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a square window.
    pub fn new(window: usize, stride: usize) -> Self {
        Self {
            window,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let out = clado_tensor::max_pool2d_forward(&x, self.window, self.stride);
        let _ = training;
        self.cache = Some((out.argmax, x.shape()));
        out.output
    }

    fn infer(&self, x: Tensor) -> Tensor {
        clado_tensor::max_pool2d_forward(&x, self.window, self.stride).output
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let (argmax, shape) = self
            .cache
            .take()
            .expect("backward requires a training forward");
        clado_tensor::max_pool2d_backward(&d_out, &argmax, shape)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut ParamVisitorRef) {}
}

/// Average pooling layer.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    stride: usize,
    cached_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with a square window.
    pub fn new(window: usize, stride: usize) -> Self {
        Self {
            window,
            stride,
            cached_shape: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let _ = training;
        self.cached_shape = Some(x.shape());
        self.infer(x)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        clado_tensor::avg_pool2d_forward(&x, self.window, self.stride)
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .take()
            .expect("backward requires a training forward");
        clado_tensor::avg_pool2d_backward(&d_out, self.window, self.stride, shape)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut ParamVisitorRef) {}
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool {
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let _ = training;
        self.cached_shape = Some(x.shape());
        self.infer(x)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        clado_tensor::global_avg_pool_forward(&x)
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .take()
            .expect("backward requires a training forward");
        clado_tensor::global_avg_pool_backward(&d_out, shape)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut ParamVisitorRef) {}
}

/// An ordered container of named sub-layers executed front to back.
///
/// The direct children are the network's *stages*: the sensitivity engine's
/// prefix-activation cache splits execution at stage boundaries by running
/// them one at a time ([`Sequential::forward_stage`] /
/// [`Sequential::infer_stage`]). The zoo
/// builders push every residual or encoder block straight onto the root
/// under a dotted name (`layer1.0`, `layer.2`), so a probe re-runs only
/// the blocks from its perturbed layer's block on; child names may contain
/// dots because parameter paths are built by joining them.
#[derive(Clone)]
pub struct Sequential {
    children: Vec<(String, Box<dyn Layer>)>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self {
            children: Vec::new(),
        }
    }

    /// Appends a named child, builder style.
    pub fn push(mut self, name: impl Into<String>, layer: impl Layer + 'static) -> Self {
        self.children.push((name.into(), Box::new(layer)));
        self
    }

    /// Appends a named boxed child.
    pub fn push_boxed(mut self, name: impl Into<String>, layer: Box<dyn Layer>) -> Self {
        self.children.push((name.into(), layer));
        self
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// `true` if there are no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Name of the child at position `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= self.len()`.
    pub fn stage_name(&self, stage: usize) -> &str {
        &self.children[stage].0
    }

    /// Runs only the single child at position `stage` (one step of the
    /// fold that [`Layer::forward`] performs over all children).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= self.len()`.
    pub fn forward_stage(&mut self, stage: usize, x: Tensor, training: bool) -> Tensor {
        let (_, layer) = &mut self.children[stage];
        layer.forward(x, training)
    }

    /// [`Layer::infer`] of the single child at position `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= self.len()`.
    pub fn infer_stage(&self, stage: usize, x: Tensor) -> Tensor {
        self.children[stage].1.infer(x)
    }

    /// [`Layer::infer_ref`] of the single child at position `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= self.len()`.
    pub fn infer_stage_ref(&self, stage: usize, x: &Tensor) -> Tensor {
        self.children[stage].1.infer_ref(x)
    }

    /// Visits the parameters of the single child at position `stage`,
    /// producing the same dotted paths as the full walk.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= self.len()`.
    pub fn visit_stage_params(&mut self, stage: usize, f: &mut ParamVisitor) {
        let (name, layer) = &mut self.children[stage];
        layer.visit_params(name, f);
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        self.children
            .iter_mut()
            .fold(x, |acc, (_, l)| l.forward(acc, training))
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.children.iter().fold(x, |acc, (_, l)| l.infer(acc))
    }

    /// The first child reads `x` borrowed; the rest run [`Layer::infer`].
    fn infer_ref(&self, x: &Tensor) -> Tensor {
        match self.children.split_first() {
            Some(((_, first), rest)) => rest
                .iter()
                .fold(first.infer_ref(x), |acc, (_, l)| l.infer(acc)),
            None => x.clone(),
        }
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        self.children
            .iter_mut()
            .rev()
            .fold(d_out, |acc, (_, l)| l.backward(acc))
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        for (name, layer) in &mut self.children {
            layer.visit_params(&join(prefix, name), f);
        }
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        for (name, layer) in &self.children {
            layer.visit_params_ref(&join(prefix, name), f);
        }
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for (_, layer) in &mut self.children {
            layer.visit_params_fast(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Param, ParamRole};

    #[test]
    fn activation_roundtrip() {
        let mut relu = Activation::new(ActKind::Relu);
        let x = Tensor::from_vec([3], vec![-1.0, 0.5, 2.0]).unwrap();
        let y = relu.forward(x, true);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0]);
        let dx = relu.backward(Tensor::full([3], 1.0));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "training forward")]
    fn backward_without_forward_panics() {
        let mut relu = Activation::new(ActKind::Relu);
        relu.backward(Tensor::zeros([1]));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros([2, 3, 4, 4]);
        let y = fl.forward(x, true);
        assert_eq!(y.shape().dims(), &[2, 48]);
        let dx = fl.backward(Tensor::zeros([2, 48]));
        assert_eq!(dx.shape().dims(), &[2, 3, 4, 4]);
    }

    #[derive(Clone)]
    struct Probe;

    impl Layer for Probe {
        fn forward(&mut self, x: Tensor, _t: bool) -> Tensor {
            self.infer(x)
        }
        fn infer(&self, x: Tensor) -> Tensor {
            x.map(|v| v + 1.0)
        }
        fn backward(&mut self, d: Tensor) -> Tensor {
            d
        }
        fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
            let mut p = Param::new(Tensor::zeros([1]), ParamRole::Weight);
            f(&join(prefix, "w"), &mut p);
        }
        fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
            let p = Param::new(Tensor::zeros([1]), ParamRole::Weight);
            f(&join(prefix, "w"), &p);
        }
    }

    #[test]
    fn sequential_composes_and_names_params() {
        let mut seq = Sequential::new().push("a", Probe).push("b", Probe);
        let y = seq.forward(Tensor::zeros([2]), false);
        assert_eq!(y.data(), &[2.0, 2.0]);
        let mut names = Vec::new();
        seq.visit_params("net", &mut |n, _| names.push(n.to_string()));
        assert_eq!(names, vec!["net.a.w", "net.b.w"]);
        let mut ref_names = Vec::new();
        seq.visit_params_ref("net", &mut |n, _| ref_names.push(n.to_string()));
        assert_eq!(ref_names, names, "ref walk mirrors the mutable walk");
    }

    #[test]
    fn prefix_plus_suffix_equals_full_forward() {
        let x = Tensor::from_vec([2], vec![0.0, 1.0]).unwrap();
        for stage in 0..=3 {
            let mut seq = Sequential::new()
                .push("a", Probe)
                .push("b", Probe)
                .push("c", Probe);
            let boundary = (0..stage).fold(x.clone(), |a, s| seq.forward_stage(s, a, false));
            assert_eq!(boundary.data()[0], stage as f32);
            let y = (stage..3).fold(boundary, |a, s| seq.infer_stage(s, a));
            assert_eq!(y.data(), &[3.0, 4.0], "split at stage {stage}");
        }
    }

    #[test]
    fn cloned_sequential_is_independent() {
        let mut seq = Sequential::new().push("a", Probe).push("b", Probe);
        let mut copy = seq.clone();
        assert_eq!(copy.len(), seq.len());
        let y1 = seq.forward(Tensor::zeros([1]), false);
        let y2 = copy.forward(Tensor::zeros([1]), false);
        assert_eq!(y1.data(), y2.data());
    }

    #[test]
    fn pooling_layers_delegate() {
        let mut mp = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let y = mp.forward(x, true);
        assert_eq!(y.data(), &[4.0]);
        let dx = mp.backward(Tensor::full([1, 1, 1, 1], 1.0));
        assert_eq!(dx.data(), &[0., 0., 0., 1.]);

        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let y = gap.forward(x, true);
        assert_eq!(y.data(), &[2.5]);
    }
}
