//! The [`Network`] container: a named-layer model with the weight access
//! the MPQ machinery needs (enumerate / read / substitute quantizable
//! weights).

use crate::layer::{Layer, Sequential};
use crate::param::{Param, ParamRole};
use clado_telemetry::Telemetry;
use clado_tensor::Tensor;
use std::fmt;

/// Metadata describing one quantizable layer of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizableLayer {
    /// Index in the paper's layer numbering (0-based, definition order).
    pub index: usize,
    /// Dotted parameter path, e.g. `layer1.0.conv1.weight`.
    pub name: String,
    /// Parameter count `|w⁽ⁱ⁾|`.
    pub numel: usize,
    /// Block identifier for BRECQ-style intra-block ablations: layers with
    /// the same `block` id belong to the same residual block / encoder
    /// block.
    pub block: usize,
    /// Index of the top-level root-stack child (the *stage*) containing
    /// this layer; in the zoo models, one stage per residual or encoder
    /// block. Activations before this stage are unaffected by perturbing
    /// the layer, which is what the sensitivity engine's prefix-activation
    /// cache exploits.
    pub stage: usize,
}

/// A complete model: a root layer stack plus the bookkeeping CLADO needs.
///
/// `Clone` produces a fully independent replica (weights, gradients,
/// forward caches), which is how the parallel sensitivity engine gives
/// each worker thread its own network.
#[derive(Clone)]
pub struct Network {
    root: Sequential,
    num_classes: usize,
    quantizable: Vec<QuantizableLayer>,
    /// Walk-order parameter slot of each quantizable layer's weight,
    /// resolved once at [`Network::reindex`] so the hot accessors need no
    /// string formatting or name comparisons.
    slots: Vec<usize>,
    /// Optional telemetry handle. When enabled, every stage fold records
    /// a per-stage span under `forward.<module>`; when disabled (the
    /// default) the fold reads no clock.
    telemetry: Telemetry,
    /// `forward.<module>` span paths, built once when telemetry
    /// attaches so the timed forward loops never format strings.
    span_paths: Vec<String>,
}

impl Network {
    /// Wraps a root layer stack.
    ///
    /// Quantizable layers are discovered by walking the parameters; block
    /// ids are derived from the second path component (e.g. everything
    /// under `layer2.1` shares a block), which matches how the paper
    /// groups layers for the BRECQ-style ablation.
    pub fn new(root: Sequential, num_classes: usize) -> Self {
        let mut net = Self {
            root,
            num_classes,
            quantizable: Vec::new(),
            slots: Vec::new(),
            telemetry: Telemetry::disabled(),
            span_paths: Vec::new(),
        };
        net.reindex();
        net
    }

    fn reindex(&mut self) {
        let mut layers = Vec::new();
        let mut slots = Vec::new();
        let mut block_names: Vec<String> = Vec::new();
        // Walk stage by stage so each quantizable layer learns which
        // top-level child contains it; `slot` counts *every* parameter in
        // walk order, giving the string-free handles the accessors use.
        let mut slot = 0usize;
        for stage in 0..self.root.len() {
            self.root.visit_stage_params(stage, &mut |name, p| {
                if p.role == ParamRole::Weight && p.quantizable {
                    let block_key = block_key_of(name);
                    let block = match block_names.iter().position(|b| *b == block_key) {
                        Some(i) => i,
                        None => {
                            block_names.push(block_key);
                            block_names.len() - 1
                        }
                    };
                    layers.push(QuantizableLayer {
                        index: layers.len(),
                        name: name.trim_end_matches(".weight").to_string(),
                        numel: p.numel(),
                        block,
                        stage,
                    });
                    slots.push(slot);
                }
                slot += 1;
            });
        }
        self.quantizable = layers;
        self.slots = slots;
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The quantizable layers in paper order.
    pub fn quantizable_layers(&self) -> &[QuantizableLayer] {
        &self.quantizable
    }

    /// Parameter counts of the quantizable layers, in order.
    pub fn layer_param_counts(&self) -> Vec<usize> {
        self.quantizable.iter().map(|l| l.numel).collect()
    }

    /// Number of stages (top-level children of the root stack).
    pub fn num_stages(&self) -> usize {
        self.root.len()
    }

    /// The stage containing quantizable layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn stage_of(&self, index: usize) -> usize {
        self.quantizable[index].stage
    }

    /// Attaches a telemetry handle. With an enabled handle every root
    /// stage a forward, inference or range call runs records one span,
    /// named after the first component of the stage name: the stages `layer1.0` and
    /// `layer1.1` both record under `forward.layer1`, so the span sums the
    /// module's blocks. Pass [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if telemetry.is_enabled() && self.span_paths.is_empty() {
            self.span_paths = (0..self.root.len())
                .map(|s| {
                    let name = self.root.stage_name(s);
                    format!("forward.{}", name.split('.').next().unwrap_or(name))
                })
                .collect();
        }
        self.telemetry = telemetry;
    }

    /// The currently attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Forward pass to logits `[N, num_classes]`. Both modes keep what
    /// [`Network::backward`] needs; a pass that never runs a backward
    /// should call [`Network::infer`].
    pub fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let _span = self.telemetry.span("forward");
        self.run_stages(0, self.root.len(), x, Pass::Forward(training))
    }

    /// Inference pass to logits: bitwise equal to `forward(x, false)`, but
    /// every layer runs [`Layer::infer`], so nothing is kept for a
    /// backward and a pending backward's state stays as it was.
    pub fn infer(&mut self, x: Tensor) -> Tensor {
        let _span = self.telemetry.span("forward");
        self.run_stages(0, self.root.len(), x, Pass::Infer)
    }

    /// Runs only the stages before `stage` and returns the boundary
    /// activation that feeds stage `stage`; see [`Network::forward_range`].
    pub fn forward_prefix(&mut self, stage: usize, x: Tensor, training: bool) -> Tensor {
        self.forward_range(0, stage, x, training)
    }

    /// Resumes a forward pass at `stage` from a boundary activation
    /// produced by [`Network::forward_prefix`] at the same split; see
    /// [`Network::forward_range`].
    pub fn forward_from(&mut self, stage: usize, x: Tensor, training: bool) -> Tensor {
        self.forward_range(stage, self.root.len(), x, training)
    }

    /// [`Network::forward_from`] in evaluation mode on a borrowed boundary
    /// activation; see [`Network::infer_range`].
    pub fn infer_from(&mut self, stage: usize, x: &Tensor) -> Tensor {
        self.infer_range(stage, self.root.len(), x)
    }

    /// [`Network::forward_range`] in evaluation mode on a borrowed
    /// activation: stage `from` reads `x` through [`Layer::infer_ref`], so
    /// a cached activation is evaluated without being copied. Bitwise
    /// `forward_range(from, to, x.clone(), false)`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > self.num_stages()`.
    pub fn infer_range(&mut self, from: usize, to: usize, x: &Tensor) -> Tensor {
        assert!(
            from <= to && to <= self.root.len(),
            "stage range {from}..{to}"
        );
        if from == to {
            return x.clone();
        }
        let first = {
            let _s = self
                .telemetry
                .is_enabled()
                .then(|| self.telemetry.span(&self.span_paths[from]));
            self.root.infer_stage_ref(from, x)
        };
        self.run_stages(from + 1, to, first, Pass::Infer)
    }

    /// Runs the contiguous stage slice `from..to`. Ranges that tile
    /// `0..num_stages()` compose bitwise-identically to one full forward;
    /// the batched probe evaluator uses this to advance a prefix cache
    /// stage by stage. These are the probe path's calls, which never run
    /// a backward: with `training == false` every stage runs
    /// [`Layer::infer`].
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > self.num_stages()`.
    pub fn forward_range(&mut self, from: usize, to: usize, x: Tensor, training: bool) -> Tensor {
        let pass = if training {
            Pass::Forward(true)
        } else {
            Pass::Infer
        };
        self.run_stages(from, to, x, pass)
    }

    /// The stage fold over `from..to`, with one `forward.<stage>` span per
    /// stage when telemetry is on. Timed and untimed folds perform the
    /// identical operation sequence.
    fn run_stages(&mut self, from: usize, to: usize, x: Tensor, pass: Pass) -> Tensor {
        assert!(
            from <= to && to <= self.root.len(),
            "stage range {from}..{to}"
        );
        let timed = self.telemetry.is_enabled();
        let mut acc = x;
        for stage in from..to {
            let _s = timed.then(|| self.telemetry.span(&self.span_paths[stage]));
            acc = match pass {
                Pass::Forward(training) => self.root.forward_stage(stage, acc, training),
                Pass::Infer => self.root.infer_stage(stage, acc),
            };
        }
        acc
    }

    /// Backward pass from logit gradients (after a training forward).
    pub fn backward(&mut self, d_logits: Tensor) {
        let _ = self.root.backward(d_logits);
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.root.visit_params("", &mut |_, p| p.zero_grad());
    }

    /// Visits every parameter (training, serialization).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        self.root.visit_params("", f);
    }

    /// Read-only walk over every parameter (inspection, snapshots).
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&str, &Param)) {
        self.root.visit_params_ref("", f);
    }

    /// Returns a copy of the weight tensor of quantizable layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn weight(&self, index: usize) -> Tensor {
        let slot = self.slots[index];
        let mut cursor = 0usize;
        let mut out = None;
        self.root.visit_params_ref("", &mut |_, p| {
            if cursor == slot {
                out = Some(p.value.clone());
            }
            cursor += 1;
        });
        out.expect("indexed layer exists")
    }

    /// Clones the gradient tensor of each quantizable layer's weight, in
    /// layer order.
    pub fn quantizable_weight_grads(&self) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(self.quantizable.len());
        let mut cursor = 0usize;
        let mut qi = 0usize;
        self.root.visit_params_ref("", &mut |_, p| {
            if qi < self.slots.len() && cursor == self.slots[qi] {
                out.push(p.grad.clone());
                qi += 1;
            }
            cursor += 1;
        });
        assert_eq!(out.len(), self.quantizable.len(), "walk covers every slot");
        out
    }

    /// Replaces the weight tensor of quantizable layer `index`, copying
    /// into the existing buffer (no allocation). The weight takes
    /// `value`'s content id ([`Tensor::copy_from`]), so restoring it from
    /// a snapshot reuses what kernels derived from the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the shape differs.
    pub fn set_weight(&mut self, index: usize, value: &Tensor) {
        let slot = self.slots[index];
        let mut cursor = 0usize;
        let mut found = false;
        self.root.visit_params_fast(&mut |p| {
            if cursor == slot {
                assert_eq!(
                    p.value.shape(),
                    value.shape(),
                    "weight shape mismatch for layer {index}"
                );
                p.value.copy_from(value);
                found = true;
            }
            cursor += 1;
        });
        assert!(found, "quantizable layer {index} not found");
    }

    /// Adds `delta` to the weight tensor of quantizable layer `index`
    /// (the Δw perturbations of Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the shape differs.
    pub fn perturb_weight(&mut self, index: usize, delta: &Tensor) {
        let slot = self.slots[index];
        let mut cursor = 0usize;
        let mut found = false;
        self.root.visit_params_fast(&mut |p| {
            if cursor == slot {
                p.value.axpy(1.0, delta);
                found = true;
            }
            cursor += 1;
        });
        assert!(found, "quantizable layer {index} not found");
    }

    /// Calls `f` on each quantizable weight, in layer order.
    fn visit_weights(&self, mut f: impl FnMut(&Tensor)) {
        let mut cursor = 0usize;
        let mut qi = 0usize;
        self.root.visit_params_ref("", &mut |_, p| {
            if qi < self.slots.len() && cursor == self.slots[qi] {
                f(&p.value);
                qi += 1;
            }
            cursor += 1;
        });
        assert_eq!(qi, self.quantizable.len(), "walk covers every slot");
    }

    /// Snapshots all quantizable weights (cheap undo for perturbations).
    pub fn snapshot_weights(&self) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(self.quantizable.len());
        self.visit_weights(|w| out.push(w.clone()));
        out
    }

    /// The content ids ([`Tensor::id`]) of the quantizable weights, in
    /// layer order: equal ids mean bitwise equal weights.
    pub fn weight_ids(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.quantizable.len());
        self.visit_weights(|w| out.push(w.id()));
        out
    }

    /// Snapshots *every* parameter and buffer (including BatchNorm running
    /// statistics). Use around procedures that mutate non-weight state,
    /// e.g. QAT fine-tuning.
    pub fn snapshot_all(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.root
            .visit_params_ref("", &mut |_, p| out.push(p.value.clone()));
        out
    }

    /// Restores a snapshot taken by [`Network::snapshot_all`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the parameter walk.
    pub fn restore_all(&mut self, snapshot: &[Tensor]) {
        let mut idx = 0usize;
        self.root.visit_params("", &mut |name, p| {
            let src = snapshot
                .get(idx)
                .unwrap_or_else(|| panic!("snapshot too short at {name}"));
            assert_eq!(
                p.value.shape(),
                src.shape(),
                "snapshot shape mismatch at {name}"
            );
            p.value.copy_from(src);
            idx += 1;
        });
        assert_eq!(idx, snapshot.len(), "snapshot has extra entries");
    }

    /// Restores a snapshot taken by [`Network::snapshot_weights`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length differs from the layer count.
    pub fn restore_weights(&mut self, snapshot: &[Tensor]) {
        assert_eq!(
            snapshot.len(),
            self.quantizable.len(),
            "snapshot length mismatch"
        );
        for (i, w) in snapshot.iter().enumerate() {
            self.set_weight(i, w);
        }
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network({} quantizable layers, {} classes)",
            self.quantizable.len(),
            self.num_classes
        )
    }
}

/// How [`Network::run_stages`] runs each stage.
#[derive(Clone, Copy)]
enum Pass {
    /// [`Layer::forward`] in the given mode, keeping backward state.
    Forward(bool),
    /// [`Layer::infer`].
    Infer,
}

/// Derives the BRECQ block key from a dotted layer path: the first two path
/// components (e.g. `layer2.1.conv1.weight` → `layer2.1`).
fn block_key_of(name: &str) -> String {
    let parts: Vec<&str> = name.split('.').collect();
    if parts.len() >= 3 {
        format!("{}.{}", parts[0], parts[1])
    } else {
        parts[0].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_layer::Conv2d;
    use crate::dense::Linear;
    use crate::layer::{ActKind, Activation, Flatten, GlobalAvgPool};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        let root = Sequential::new()
            .push(
                "stem",
                Conv2d::new(Conv2dSpec::new(1, 4, 3, 1, 1), false, &mut rng).unquantized(),
            )
            .push(
                "layer1",
                Sequential::new()
                    .push(
                        "0",
                        Conv2d::new(Conv2dSpec::new(4, 4, 3, 1, 1), false, &mut rng),
                    )
                    .push("relu", Activation::new(ActKind::Relu)),
            )
            .push("pool", GlobalAvgPool::new())
            .push("fc", Linear::new(4, 3, &mut rng));
        Network::new(root, 3)
    }

    #[test]
    fn discovers_quantizable_layers_in_order() {
        let net = tiny_net();
        let names: Vec<&str> = net
            .quantizable_layers()
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        // Stem is excluded (unquantized); conv + fc remain.
        assert_eq!(names, vec!["layer1.0", "fc"]);
        assert_eq!(net.quantizable_layers()[0].numel, 4 * 4 * 9);
    }

    #[test]
    fn weight_get_set_roundtrip() {
        let mut net = tiny_net();
        let w = net.weight(0);
        let mut w2 = w.clone();
        w2.data_mut()[0] += 1.0;
        net.set_weight(0, &w2);
        assert_eq!(net.weight(0).data()[0], w.data()[0] + 1.0);
    }

    #[test]
    fn perturb_and_restore() {
        let mut net = tiny_net();
        let snap = net.snapshot_weights();
        let delta = Tensor::full(net.weight(1).shape(), 0.5);
        net.perturb_weight(1, &delta);
        assert!((net.weight(1).data()[0] - (snap[1].data()[0] + 0.5)).abs() < 1e-6);
        net.restore_weights(&snap);
        assert_eq!(net.weight(1).data(), snap[1].data());
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net();
        let x = Tensor::zeros([2, 1, 6, 6]);
        let y = net.forward(x, false);
        assert_eq!(y.shape().dims(), &[2, 3]);
    }

    #[test]
    fn flatten_is_reexported_and_usable() {
        // Ensure Flatten composes in networks (compile-time sanity).
        let mut rng = StdRng::seed_from_u64(1);
        let root = Sequential::new()
            .push(
                "conv",
                Conv2d::new(Conv2dSpec::new(1, 2, 3, 1, 1), false, &mut rng),
            )
            .push("flat", Flatten::new())
            .push("fc", Linear::new(2 * 4 * 4, 2, &mut rng));
        let mut net = Network::new(root, 2);
        let y = net.forward(Tensor::zeros([1, 1, 4, 4]), false);
        assert_eq!(y.shape().dims(), &[1, 2]);
    }

    #[test]
    fn stages_resolve_to_root_children() {
        let net = tiny_net();
        // Root children: stem, layer1, pool, fc.
        assert_eq!(net.num_stages(), 4);
        assert_eq!(net.stage_of(0), 1, "layer1.0 lives in stage 1");
        assert_eq!(net.stage_of(1), 3, "fc lives in stage 3");
    }

    #[test]
    fn ref_walk_mirrors_mut_walk() {
        let mut net = tiny_net();
        let mut mut_walk = Vec::new();
        net.visit_params(&mut |n, p| mut_walk.push((n.to_string(), p.numel())));
        let mut ref_walk = Vec::new();
        net.visit_params_ref(&mut |n, p| ref_walk.push((n.to_string(), p.numel())));
        assert_eq!(ref_walk, mut_walk);
    }

    #[test]
    fn prefix_suffix_split_matches_full_forward() {
        let mut net = tiny_net();
        let x = Tensor::full([2, 1, 6, 6], 0.3);
        let full = net.forward(x.clone(), false);
        for stage in 0..=net.num_stages() {
            let boundary = net.forward_prefix(stage, x.clone(), false);
            let y = net.forward_from(stage, boundary, false);
            assert_eq!(y.data(), full.data(), "split at stage {stage}");
        }
    }

    #[test]
    fn cloned_network_is_an_independent_replica() {
        let mut net = tiny_net();
        let mut replica = net.clone();
        let x = Tensor::full([1, 1, 6, 6], 0.5);
        assert_eq!(
            net.forward(x.clone(), false).data(),
            replica.forward(x.clone(), false).data()
        );
        let delta = Tensor::full(replica.weight(0).shape(), 1.0);
        replica.perturb_weight(0, &delta);
        assert_ne!(replica.weight(0).data(), net.weight(0).data());
    }

    #[test]
    fn forward_with_telemetry_matches_plain_forward_bitwise() {
        let mut plain = tiny_net();
        let mut timed = plain.clone();
        let telemetry = Telemetry::new();
        timed.set_telemetry(telemetry.clone());
        let x = Tensor::full([2, 1, 6, 6], 0.25);
        let a = plain.forward(x.clone(), false);
        let b = timed.forward(x, false);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        let spans = telemetry.spans();
        assert!(spans.iter().any(|(p, _)| p == "forward"));
        assert!(spans.iter().any(|(p, _)| p == "forward.layer1"));
        assert!(spans.iter().any(|(p, _)| p == "forward.fc"));
    }

    #[test]
    fn forward_range_tiles_compose_to_full_forward() {
        let mut net = tiny_net();
        let x = Tensor::full([2, 1, 6, 6], 0.4);
        let full = net.forward(x.clone(), false);
        let stages = net.num_stages();
        for split in 0..=stages {
            let mid = net.forward_range(0, split, x.clone(), false);
            let y = net.forward_range(split, stages, mid, false);
            assert_eq!(y.data(), full.data(), "tiling at {split}");
        }
    }

    #[test]
    fn block_ids_group_by_prefix() {
        let mut rng = StdRng::seed_from_u64(2);
        let root = Sequential::new().push(
            "layer1",
            Sequential::new()
                .push(
                    "0",
                    Sequential::new()
                        .push(
                            "conv1",
                            Conv2d::new(Conv2dSpec::new(1, 1, 1, 1, 0), false, &mut rng),
                        )
                        .push(
                            "conv2",
                            Conv2d::new(Conv2dSpec::new(1, 1, 1, 1, 0), false, &mut rng),
                        ),
                )
                .push(
                    "1",
                    Sequential::new().push(
                        "conv1",
                        Conv2d::new(Conv2dSpec::new(1, 1, 1, 1, 0), false, &mut rng),
                    ),
                ),
        );
        let net = Network::new(root, 2);
        let blocks: Vec<usize> = net.quantizable_layers().iter().map(|l| l.block).collect();
        assert_eq!(blocks, vec![0, 0, 1]);
    }
}
