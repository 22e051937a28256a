//! Edge-case coverage across crates: optimizer/buffer interactions, model
//! determinism, mask validation, and error-path displays.

use clado_models::{
    build_mobilenet, build_regnet, build_vit, MobileNetConfig, RegNetConfig, ViTConfig,
};
use clado_nn::{BatchNorm2d, Network, ParamRole, Sequential, Sgd};
use clado_quant::BitWidthSet;
use clado_solver::{IqpError, IqpProblem, SymMatrix};
use clado_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SGD must not touch Buffer parameters (BatchNorm running statistics).
#[test]
fn sgd_leaves_batchnorm_buffers_untouched() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Network::new(
        Sequential::new()
            .push(
                "conv",
                clado_nn::Conv2d::new(
                    clado_tensor::Conv2dSpec::new(1, 2, 3, 1, 1),
                    false,
                    &mut rng,
                ),
            )
            .push("bn", BatchNorm2d::new(2))
            .push("pool", clado_nn::GlobalAvgPool::new())
            .push("fc", clado_nn::Linear::new(2, 2, &mut rng)),
        2,
    );
    // Run a training forward to move the running stats off their defaults.
    let x = init::normal([4, 1, 6, 6], 1.0, 1.0, &mut rng);
    let logits = net.forward(x, true);
    let (_, grad) = clado_nn::cross_entropy(&logits, &[0, 1, 0, 1]);
    net.backward(grad);

    let mut buffers_before = Vec::new();
    net.visit_params(&mut |name, p| {
        if p.role == ParamRole::Buffer {
            buffers_before.push((name.to_string(), p.value.clone()));
        }
    });
    assert_eq!(buffers_before.len(), 2, "running mean + var");

    Sgd::new(0.5, 0.9, 1e-2).step(&mut net);

    let mut idx = 0;
    net.visit_params(&mut |name, p| {
        if p.role == ParamRole::Buffer {
            assert_eq!(name, buffers_before[idx].0);
            assert_eq!(
                p.value.data(),
                buffers_before[idx].1.data(),
                "SGD modified buffer {name}"
            );
            idx += 1;
        }
    });
}

/// Every zoo builder is deterministic: same seed ⇒ identical forward output.
#[test]
fn zoo_builders_are_deterministic() {
    let x = Tensor::full([1, 3, 16, 16], 0.25);
    let pairs: Vec<(Network, Network)> = vec![
        (
            build_mobilenet(&MobileNetConfig::mobilenet_mini(10, 3)),
            build_mobilenet(&MobileNetConfig::mobilenet_mini(10, 3)),
        ),
        (
            build_regnet(&RegNetConfig::regnet_mini(10, 3)),
            build_regnet(&RegNetConfig::regnet_mini(10, 3)),
        ),
        (
            build_vit(&ViTConfig::vit_mini(10, 3)),
            build_vit(&ViTConfig::vit_mini(10, 3)),
        ),
    ];
    for (mut a, mut b) in pairs {
        let ya = a.forward(x.clone(), false);
        let yb = b.forward(x.clone(), false);
        assert_eq!(ya.data(), yb.data());
    }
}

/// Different seeds give different weights (no accidental seed pinning).
#[test]
fn zoo_builders_respect_the_seed() {
    let a = build_vit(&ViTConfig::vit_mini(10, 1));
    let b = build_vit(&ViTConfig::vit_mini(10, 2));
    assert_ne!(a.weight(0).data(), b.weight(0).data());
}

/// Block-mask length validation on the sensitivity matrix.
#[test]
#[should_panic(expected = "block id per layer")]
fn block_mask_length_is_validated() {
    use clado_core::{measure_sensitivities, SensitivityOptions};
    use clado_models::{SynthVision, SynthVisionConfig};
    let mut rng = StdRng::seed_from_u64(4);
    let mut net = Network::new(
        Sequential::new()
            .push(
                "conv",
                clado_nn::Conv2d::new(clado_tensor::Conv2dSpec::new(3, 4, 3, 1, 1), true, &mut rng),
            )
            .push("pool", clado_nn::GlobalAvgPool::new())
            .push("fc", clado_nn::Linear::new(4, 3, &mut rng)),
        3,
    );
    let data = SynthVision::generate(SynthVisionConfig {
        classes: 3,
        img: 8,
        train: 16,
        val: 8,
        seed: 2,
        noise: 0.2,
        label_noise: 0.0,
    });
    let set = data.train.subset(&(0..8).collect::<Vec<_>>());
    let sm = measure_sensitivities(
        &mut net,
        &set,
        &BitWidthSet::new(&[2, 8]),
        &SensitivityOptions::default(),
    )
    .expect("sensitivity measurement");
    let _ = sm.block_masked(&[0]); // wrong length: 1 id for 2 layers
}

/// IqpError display strings are informative.
#[test]
fn iqp_error_displays() {
    let g = SymMatrix::zeros(4);
    let err = IqpProblem::new(g, &[2, 2], vec![5, 9, 7, 9], 10).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("infeasible") && msg.contains("12") && msg.contains("10"),
        "{msg}"
    );

    let overflow = IqpError::CostOverflow { group: 3 };
    assert!(overflow.to_string().contains("overflow"), "{overflow}");
    let degenerate = IqpError::DegenerateObjective {
        clip_mass_ratio: 0.9,
    };
    let msg = degenerate.to_string();
    assert!(msg.contains("0.9") || msg.contains("90"), "{msg}");
}

/// Ω hardening repairs a poisoned cross term leniently and rejects it (with
/// coordinates) under strict mode; the hardened matrix still solves.
#[test]
fn omega_hardening_edge_cases() {
    use clado_solver::{harden, SolverConfig};

    let mut g = SymMatrix::zeros(4);
    for i in 0..4 {
        g.set(i, i, 0.5 + i as f64 * 0.1);
    }
    g.set(0, 3, f64::NAN);
    assert!(g.get(3, 0).is_nan()); // both triangles

    let (repaired, report) = harden(&g, false).expect("lenient repair");
    assert_eq!(report.repaired_non_finite, 2);
    assert_eq!(repaired.get(0, 3), 0.0);
    let problem = IqpProblem::new(repaired, &[2, 2], vec![1, 2, 1, 2], 4).expect("valid instance");
    let solution = problem.solve(&SolverConfig::default()).expect("solves");
    assert!(problem.is_feasible(&solution.choices));

    match harden(&g, true) {
        Err(IqpError::NonFiniteObjective { row, col, .. }) => {
            assert_eq!((row.min(col), row.max(col)), (0, 3))
        }
        other => panic!("strict hardening should reject, got {other:?}"),
    }
}

/// BatchNorm running statistics serialize with the model and affect
/// evaluation-mode behaviour after a reload.
#[test]
fn batchnorm_buffers_roundtrip_through_weights_io() {
    use clado_models::{build_resnet, load_weights, save_weights, ResNetConfig};
    let mut rng = StdRng::seed_from_u64(5);
    let mut a = build_resnet(&ResNetConfig::resnet20_mini(4, 8));
    // Shift running stats away from defaults with training passes.
    for _ in 0..3 {
        let x = init::normal([8, 3, 16, 16], 0.5, 1.0, &mut rng);
        a.forward(x, true);
    }
    let path = std::env::temp_dir().join(format!("clado-bnbuf-{}.cldw", std::process::id()));
    save_weights(&mut a, &path).unwrap();
    let mut b = build_resnet(&ResNetConfig::resnet20_mini(4, 8));
    load_weights(&mut b, &path).unwrap();
    std::fs::remove_file(&path).ok();
    let probe = Tensor::full([1, 3, 16, 16], 0.3);
    let ya = a.forward(probe.clone(), false);
    let yb = b.forward(probe, false);
    assert_eq!(
        ya.data(),
        yb.data(),
        "eval outputs differ ⇒ buffers not serialized"
    );
}

/// Activation layers are composable inside arbitrary Sequential nesting and
/// their visitor paths stay stable (used by the weight cache).
#[test]
fn visitor_paths_are_stable_across_identical_builds() {
    let collect = || {
        let mut net = build_mobilenet(&MobileNetConfig::mobilenet_mini(10, 3));
        let mut names = Vec::new();
        net.visit_params(&mut |n, _| names.push(n.to_string()));
        names
    };
    assert_eq!(collect(), collect());
}
