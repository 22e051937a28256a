//! End-to-end estimator behaviour: determinism across thread counts,
//! journal resume, budget accounting, CLSM v4 provenance, and the
//! assignment-regret gate the CI `estimators` job enforces.

use clado_core::journal::load_journal;
use clado_core::{
    eval_loss, measure_sensitivities, sensitivities_from_bytes, sensitivities_to_bytes,
    AssignOptions, MeasureError, OmegaPlan, OmegaProvenance, SensitivityOptions, ShardContext,
};
use clado_estim::{
    assignment_regret, estimate_sensitivities, EstimatedOmega, EstimationPlan, EstimatorKind,
    EstimatorOptions, GridEstimation, DEFAULT_ESTIMATOR_SEED,
};
use clado_models::{DataSplit, SynthVision, SynthVisionConfig};
use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
use clado_quant::{BitWidthSet, LayerSizes};
use clado_tensor::Conv2dSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// A toy with enough layers that a 25% budget leaves real headroom above
/// the mandatory base+diagonal floor: one conv plus `extra + 1` linear
/// layers (I = extra + 2 quantizable layers).
fn setup(extra: usize) -> (Network, SynthVision) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut seq = Sequential::new()
        .push(
            "conv1",
            Conv2d::new(Conv2dSpec::new(3, 6, 3, 1, 1), true, &mut rng),
        )
        .push("relu1", clado_nn::Activation::new(clado_nn::ActKind::Relu))
        .push("pool", GlobalAvgPool::new());
    for e in 0..extra {
        seq = seq
            .push(format!("mid{e}"), Linear::new(6, 6, &mut rng))
            .push(
                format!("midrelu{e}"),
                clado_nn::Activation::new(clado_nn::ActKind::Relu),
            );
    }
    let net = Network::new(seq.push("fc", Linear::new(6, 4, &mut rng)), 4);
    let data = SynthVision::generate(SynthVisionConfig {
        classes: 4,
        img: 8,
        train: 48,
        val: 32,
        seed: 21,
        noise: 0.2,
        label_noise: 0.0,
    });
    (net, data)
}

fn sens_set(data: &SynthVision) -> DataSplit {
    data.train.subset(&(0..16).collect::<Vec<_>>())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clado-estim-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bitwise_equal(a: &EstimatedOmega, b: &EstimatedOmega, label: &str) {
    assert_eq!(
        a.matrix.base_loss.to_bits(),
        b.matrix.base_loss.to_bits(),
        "{label}: base loss differs"
    );
    let (ga, gb) = (a.matrix.matrix(), b.matrix.matrix());
    assert_eq!(ga.dim(), gb.dim(), "{label}: dimension differs");
    for i in 0..ga.dim() {
        for j in 0..ga.dim() {
            assert_eq!(
                ga.get(i, j).to_bits(),
                gb.get(i, j).to_bits(),
                "{label}: Ω[{i},{j}] differs"
            );
        }
    }
    assert_eq!(a.probes_spent, b.probes_spent, "{label}: spent differs");
    for i in 0..a.observed.dim() {
        for j in i..a.observed.dim() {
            assert_eq!(
                a.observed.get(i, j),
                b.observed.get(i, j),
                "{label}: mask[{i},{j}] differs"
            );
        }
    }
}

#[test]
fn grid_estimators_are_bitwise_identical_across_thread_counts() {
    let bits = BitWidthSet::new(&[2, 8]);
    for kind in EstimatorKind::ALL {
        let (mut net, data) = setup(4);
        let set = sens_set(&data);
        let mut opts = EstimatorOptions::new(kind);
        opts.measure.threads = 1;
        let serial = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("serial run");
        opts.measure.threads = 4;
        let threaded = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("threaded run");
        assert_bitwise_equal(&serial, &threaded, kind.name());
        assert!(serial.probe_fraction() <= 0.26, "{kind}: over budget");
    }
}

#[test]
fn estimation_resumes_bitwise_identically_from_a_partial_journal() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(4);
    let set = sens_set(&data);
    let mut opts = EstimatorOptions::new(EstimatorKind::BlockTopK);
    opts.measure.threads = 1;
    let reference = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("reference");

    // Full run into a journal, then drop one committed shard to simulate
    // a crash mid-sweep, then resume.
    let dir = temp_dir("resume");
    opts.measure.checkpoint_dir = Some(dir.clone());
    let first = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("journaled run");
    assert_bitwise_equal(&reference, &first, "journaled");
    let mut shards: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("journal dir")
        .map(|e| e.expect("entry").path())
        .collect();
    shards.sort();
    assert!(shards.len() > 2, "expected several shard files");
    std::fs::remove_file(shards.last().expect("one shard")).expect("drop a shard");

    opts.measure.resume = true;
    let resumed = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("resumed run");
    assert_bitwise_equal(&reference, &resumed, "resumed");
    assert!(
        resumed.matrix.stats.resumed > 0,
        "resume restored no probes"
    );
    // `probes_spent` is the plan's cost, not this process's: unchanged.
    assert_eq!(resumed.probes_spent, reference.probes_spent);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The plan is two rounds long — base and diagonal, then the pairs they
/// select — and those rounds hold every probe the estimate spends.
#[test]
fn estimation_plan_has_two_rounds() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(4);
    let set = sens_set(&data);
    let dir = temp_dir("two-rounds");
    let mut opts = EstimatorOptions::new(EstimatorKind::BlockTopK);
    opts.measure.checkpoint_dir = Some(dir.clone());
    let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("journaled run");
    let ctx = ShardContext::new(
        &net,
        set.len(),
        &bits,
        opts.measure.scheme,
        opts.measure.batch_size,
        true,
    );
    let plan = EstimationPlan::new(&ctx, EstimatorKind::BlockTopK, 0);
    let records = load_journal(&dir, plan.fingerprint())
        .expect("journal")
        .records;
    let probes = |index| -> usize {
        plan.round(index, &records)
            .expect("round")
            .iter()
            .map(|(_, ids)| ids.len())
            .sum()
    };
    assert_eq!(probes(0), 1 + 2 * 6, "round 0 is the base and diagonal");
    assert!(probes(1) > 0, "round 1 selects pair probes");
    assert_eq!(probes(0) + probes(1), est.probes_spent);
    assert_eq!(probes(0) + probes(1), records.len());
    assert_eq!(probes(2), 0, "there is no third round");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retired estimators are refused by name, with a message that says
/// they were removed rather than that they never existed.
#[test]
fn removed_estimator_names_are_refused_as_removed() {
    for name in ["adaptive", "sketched", "hutchinson"] {
        let why = name.parse::<EstimatorKind>().expect_err("refused");
        assert!(why.contains("removed"), "unexpected reason: {why}");
    }
    let why = "adaptiv".parse::<EstimatorKind>().expect_err("refused");
    assert!(
        why.contains("unknown estimator"),
        "unexpected reason: {why}"
    );
    assert_eq!("blocktopk".parse(), Ok(EstimatorKind::BlockTopK));
}

/// A `.clsm` file an adaptive run wrote before the estimator was removed
/// still loads, and still names its provenance.
#[test]
fn an_adaptive_clsm_file_still_loads() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(2);
    let set = sens_set(&data);
    let opts = EstimatorOptions::new(EstimatorKind::BlockTopK);
    let mut est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("blocktopk");
    est.matrix.stats.provenance =
        OmegaProvenance::estimated(OmegaProvenance::TAG_ADAPTIVE, 40, DEFAULT_ESTIMATOR_SEED);
    let loaded =
        sensitivities_from_bytes(&sensitivities_to_bytes(&est.matrix)).expect("old file loads");
    assert_eq!(
        loaded.stats.provenance.estimator,
        OmegaProvenance::TAG_ADAPTIVE
    );
    assert!(
        loaded.stats.provenance.to_string().contains("adaptive"),
        "provenance: {}",
        loaded.stats.provenance
    );
}

/// The retired sketched (1), adaptive (2) and hutchinson (4) tags, like
/// any other unknown tag, name no estimator: they are refused up front
/// with the reason every job-taking caller reports.
#[test]
fn grid_estimation_rejects_hutchinson_and_unknown_estimators() {
    for tag in [
        OmegaProvenance::TAG_SKETCHED,
        OmegaProvenance::TAG_ADAPTIVE,
        OmegaProvenance::TAG_HUTCHINSON,
        200u8,
    ] {
        let why = GridEstimation::from_job(tag, 0).expect_err("refused");
        assert!(
            why.contains("unknown estimator"),
            "unexpected reason: {why}"
        );
    }
    assert_eq!(GridEstimation::from_job(0, 0), Ok(None));
    assert_eq!(
        GridEstimation::from_job(EstimatorKind::BlockTopK.tag(), 40),
        Ok(Some(GridEstimation {
            kind: EstimatorKind::BlockTopK,
            probe_budget: 40,
        }))
    );
}

#[test]
fn estimator_journals_are_isolated_by_fingerprint() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(2);
    let set = sens_set(&data);
    let dir = temp_dir("fp-isolation");
    let mut opts = EstimatorOptions::new(EstimatorKind::BlockTopK);
    opts.measure.checkpoint_dir = Some(dir.clone());
    estimate_sensitivities(&mut net, &set, &bits, &opts).expect("blocktopk run");

    // Same directory, different budget: the fingerprint must reject the
    // journal rather than silently mixing probe sets.
    let mut other = EstimatorOptions::new(EstimatorKind::BlockTopK);
    other.probe_budget = usize::MAX;
    other.measure.checkpoint_dir = Some(dir.clone());
    other.measure.resume = true;
    let err = estimate_sensitivities(&mut net, &set, &bits, &other)
        .expect_err("a full-budget run must not resume a default-budget journal");
    assert!(
        matches!(err, MeasureError::Journal(_)),
        "expected a journal error, got {err:?}"
    );
    // Nor may an exact sweep resume it.
    let exact = SensitivityOptions {
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..SensitivityOptions::default()
    };
    let err = measure_sensitivities(&mut net, &set, &bits, &exact)
        .expect_err("an exact sweep must not resume an estimation journal");
    assert!(
        matches!(err, MeasureError::Journal(_)),
        "expected a journal error, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_accounting_floors_and_caps() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(4);
    let set = sens_set(&data);
    let i = 6; // conv + 4 mid + fc
    let k = 2;
    let full = 1 + k * i + k * k * i * (i - 1) / 2;
    let mandatory = 1 + k * i;

    // A budget below the floor is raised to it (diagonal is mandatory).
    let mut opts = EstimatorOptions::new(EstimatorKind::BlockTopK);
    opts.probe_budget = 2;
    let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("floored run");
    assert_eq!(est.probes_spent, mandatory);
    assert_eq!(est.full_sweep_probes, full);

    // A budget above the sweep is capped: every entry observed.
    opts.probe_budget = 10 * full;
    let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("capped run");
    assert_eq!(est.probes_spent, full);
    assert!((est.observed.fraction() - 1.0).abs() < 1e-12);

    // The default budget is 25% of the sweep.
    opts.probe_budget = 0;
    let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("default run");
    assert!(est.probes_spent <= full / 4);
    assert!(est.probes_spent >= mandatory);
}

#[test]
fn full_budget_estimation_matches_exact_measurement_bitwise() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(2);
    let set = sens_set(&data);
    let exact = measure_sensitivities(&mut net, &set, &bits, &SensitivityOptions::default())
        .expect("exact measurement");
    for kind in EstimatorKind::ALL {
        let mut opts = EstimatorOptions::new(kind);
        opts.probe_budget = usize::MAX;
        let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("full-budget run");
        // At full budget every probe is measured, so the raw entries must
        // equal the exact sweep's before projection; compare through the
        // shared PSD path.
        let (ge, gx) = (est.matrix.matrix(), &exact.psd_projected());
        for i in 0..gx.dim() {
            for j in 0..gx.dim() {
                assert_eq!(
                    ge.get(i, j).to_bits(),
                    gx.get(i, j).to_bits(),
                    "{kind}: Ω[{i},{j}] differs from exact"
                );
            }
        }
        assert_eq!(est.matrix.base_loss.to_bits(), exact.base_loss.to_bits());
    }
}

#[test]
fn estimated_omega_roundtrips_clsm_v4_with_provenance() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(2);
    let set = sens_set(&data);
    let opts = EstimatorOptions::new(EstimatorKind::BlockTopK);
    let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("blocktopk");
    let prov = est.matrix.stats.provenance;
    assert_eq!(prov.estimator, OmegaProvenance::TAG_BLOCK_TOPK);
    assert_eq!(prov.seed, DEFAULT_ESTIMATOR_SEED);
    assert!(prov.probe_budget > 0);

    let bytes = sensitivities_to_bytes(&est.matrix);
    let loaded = sensitivities_from_bytes(&bytes).expect("roundtrip");
    assert_eq!(loaded.stats.provenance, prov);
    let (ga, gb) = (est.matrix.matrix(), loaded.matrix());
    for i in 0..ga.dim() {
        for j in 0..ga.dim() {
            assert_eq!(ga.get(i, j).to_bits(), gb.get(i, j).to_bits());
        }
    }
}

/// Every estimate observes the whole diagonal: a variable's own
/// sensitivity cannot be defaulted, so the budget floor covers it.
#[test]
fn estimated_omega_observes_every_diagonal() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(3);
    let set = sens_set(&data);
    let opts = EstimatorOptions::new(EstimatorKind::BlockTopK);
    let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("blocktopk");
    assert_eq!(est.observed.first_unobserved_diagonal(), None);
    let fraction = est.observed.fraction();
    assert!(fraction > 0.0 && fraction <= 1.0, "{fraction}");
}

/// The acceptance gate: at a 25% probe budget, the blocktopk estimator
/// must reach an IQP assignment whose task loss is within 1%
/// of the exact-Ω assignment's. The CI `estimators` job runs this test.
#[test]
fn regret_gate_at_quarter_budget() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(4);
    let set = sens_set(&data);
    let eval = data.val.subset(&(0..24).collect::<Vec<_>>());
    let exact = measure_sensitivities(&mut net, &set, &bits, &SensitivityOptions::default())
        .expect("exact measurement");
    let sizes = LayerSizes::new(net.layer_param_counts());
    let budget_bits = sizes.budget_from_avg_bits(5.0);
    let full = exact.stats.evaluations;

    for kind in EstimatorKind::ALL {
        let opts = EstimatorOptions {
            probe_budget: full / 4,
            ..EstimatorOptions::new(kind)
        };
        let est = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("estimation");
        assert!(
            est.probes_spent <= full / 4,
            "{kind}: {} probes exceeds 25% of {full}",
            est.probes_spent
        );
        let regret = assignment_regret(
            &mut net,
            &eval,
            &exact,
            &est.matrix,
            &sizes,
            budget_bits,
            &AssignOptions::default(),
            opts.measure.scheme,
            opts.measure.batch_size,
        )
        .expect("regret evaluation");
        assert!(
            regret.relative <= 0.01,
            "{kind}: regret {:.4}% exceeds the 1% gate ({regret})",
            regret.relative * 100.0
        );
    }
}

#[test]
fn weights_are_restored_after_estimation_and_regret() {
    let bits = BitWidthSet::new(&[2, 8]);
    let (mut net, data) = setup(3);
    let set = sens_set(&data);
    let before = net.snapshot_weights();
    for kind in EstimatorKind::ALL {
        let opts = EstimatorOptions::new(kind);
        let _ = estimate_sensitivities(&mut net, &set, &bits, &opts).expect("estimation");
    }
    let after = net.snapshot_weights();
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.data(), b.data());
    }
    // Estimation must not disturb the base loss either.
    let l1 = eval_loss(&mut net, &set, 32);
    net.restore_weights(&before);
    let l2 = eval_loss(&mut net, &set, 32);
    assert_eq!(l1.to_bits(), l2.to_bits());
}
