//! `Network::infer` and the probe path's range calls are the evaluation
//! forward without its backward bookkeeping: on all six zoo models, at
//! batch 1, 8 and 64, dispatched and on the forced scalar backend, their
//! logits are bitwise those of `forward(x, false)`, whole and split at
//! every stage boundary. The borrowed entries (`Layer::infer_ref` of each
//! stage, `Network::infer_from`) give bitwise the same and leave their
//! input as it was. An `infer` between a `forward` and its `backward`
//! changes no gradient.
//!
//! `force_backend` is process-wide, so this must stay the only test in its
//! binary.

use clado_models::ModelKind;
use clado_nn::{Network, ParamRole};
use clado_tensor::{force_backend, init, Backend, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODELS: [ModelKind; 6] = [
    ModelKind::ResNet20,
    ModelKind::ResNet34,
    ModelKind::ResNet50,
    ModelKind::MobileNet,
    ModelKind::RegNet,
    ModelKind::ViT,
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A zoo model whose normalization parameters and running statistics are
/// drawn at random, so BatchNorm is not the identity map of a fresh build.
fn model(kind: ModelKind) -> Network {
    let mut net = kind.build(10, 3);
    let mut rng = StdRng::seed_from_u64(kind as u64);
    net.visit_params(&mut |name, p| {
        if p.role == ParamRole::Weight || p.role == ParamRole::Bias {
            return;
        }
        for v in p.value.data_mut() {
            *v = if name.ends_with("running_var") {
                rng.gen_range(0.25..2.0)
            } else if name.ends_with("gamma") {
                rng.gen_range(0.5..1.5)
            } else {
                rng.gen_range(-0.5..0.5)
            };
        }
    });
    net
}

/// Whole-network and split-at-every-stage inference against the
/// evaluation forward.
fn check_logits(kind: ModelKind, net: &mut Network, batch: usize, backend: &str) {
    let mut rng = StdRng::seed_from_u64(batch as u64);
    let x = init::normal([batch, 3, 16, 16], 0.0, 1.0, &mut rng);
    let want = bits(&net.forward(x.clone(), false));
    let case = format!("{kind} batch {batch} ({backend})");
    assert_eq!(bits(&net.infer(x.clone())), want, "{case}: infer");
    for stage in 0..=net.num_stages() {
        let boundary = net.forward_prefix(stage, x.clone(), false);
        let kept = bits(&boundary);
        let y = net.infer_from(stage, &boundary);
        assert_eq!(bits(&y), want, "{case}: borrowed split at stage {stage}");
        assert_eq!(bits(&boundary), kept, "{case}: infer_from moved its input");
        let y = net.forward_from(stage, boundary, false);
        assert_eq!(bits(&y), want, "{case}: split at stage {stage}");
    }
}

/// Each stage's `Layer::infer_ref(&x)` (through `Network::infer_range`
/// over that one stage) is bitwise its `infer(x.clone())`, and leaves `x`
/// as it was.
fn check_borrowed(kind: ModelKind, net: &mut Network, batch: usize, backend: &str) {
    let mut rng = StdRng::seed_from_u64(batch as u64 + 1);
    let mut x = init::normal([batch, 3, 16, 16], 0.0, 1.0, &mut rng);
    let case = format!("{kind} batch {batch} ({backend})");
    for stage in 0..net.num_stages() {
        let kept = bits(&x);
        let want = bits(&net.forward_range(stage, stage + 1, x.clone(), false));
        let got = net.infer_range(stage, stage + 1, &x);
        assert_eq!(bits(&got), want, "{case}: infer_ref of stage {stage}");
        assert_eq!(bits(&x), kept, "{case}: stage {stage} moved its input");
        x = got;
    }
}

/// Every parameter gradient, in walk order.
fn grads(net: &Network) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    net.visit_params_ref(&mut |_, p| out.push(bits(&p.grad)));
    out
}

/// `forward(x, false)` + `backward`, with and without an `infer` of
/// another input (another batch size) in between.
fn check_gradients(kind: ModelKind, net: &Network, backend: &str) {
    let mut rng = StdRng::seed_from_u64(99);
    let x = init::normal([8, 3, 16, 16], 0.0, 1.0, &mut rng);
    let other = init::normal([3, 3, 16, 16], 0.0, 1.0, &mut rng);
    let seed = init::normal([8, 10], 0.0, 1.0, &mut rng);
    let run = |interleave: bool| {
        let mut net = net.clone();
        net.zero_grad();
        net.forward(x.clone(), false);
        if interleave {
            net.infer(other.clone());
        }
        net.backward(seed.clone());
        grads(&net)
    };
    assert_eq!(
        run(true),
        run(false),
        "{kind} ({backend}): an infer between forward and backward moved a gradient"
    );
}

#[test]
fn infer_is_the_evaluation_forward_bitwise() {
    for (backend, name) in [(None, "dispatched"), (Some(Backend::Scalar), "scalar")] {
        force_backend(backend);
        for kind in MODELS {
            let mut net = model(kind);
            for batch in [1, 8, 64] {
                check_logits(kind, &mut net, batch, name);
                check_borrowed(kind, &mut net, batch, name);
            }
            check_gradients(kind, &net, name);
        }
    }
    force_backend(None);
}
