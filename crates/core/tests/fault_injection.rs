//! Fault-injection suite for the crash-safe sensitivity measurement.
//!
//! Every test arms deterministic fail points (debug builds only), breaks a
//! sweep somewhere in the middle, and then proves the recovery invariant:
//! a resumed run produces the **bitwise-identical** sensitivity matrix an
//! uninterrupted run would have, with the fault-tolerance stats reporting
//! exactly what happened.
//!
//! Abort-style kills (no unwinding at all) cannot run in-process; the CLI
//! integration test covers those by killing a `clado sensitivity`
//! subprocess via `CLADO_FAULTPOINTS=...=abort` and resuming it.
#![cfg(debug_assertions)]

use clado_core::{
    measure_sensitivities, MeasureError, OmegaPlan, ProbeId, SensitivityMatrix, SensitivityOptions,
    ShardContext, ShardSpec, PROBE_BATCH,
};
use clado_models::{DataSplit, SynthVision, SynthVisionConfig};
use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
use clado_quant::{BitWidthSet, QuantScheme};
use clado_telemetry::faultinject::{arm, disarm, test_guard, FaultSpec};
use clado_telemetry::Telemetry;
use clado_tensor::Conv2dSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

/// Three quantizable layers (conv1, conv2, fc) × |𝔹| = 2 gives
/// 1 base + 6 diagonal + 12 pairwise = 19 probe evaluations.
fn setup() -> (Network, DataSplit) {
    let mut rng = StdRng::seed_from_u64(3);
    let net = Network::new(
        Sequential::new()
            .push(
                "conv1",
                Conv2d::new(Conv2dSpec::new(3, 6, 3, 1, 1), true, &mut rng),
            )
            .push("relu1", clado_nn::Activation::new(clado_nn::ActKind::Relu))
            .push(
                "conv2",
                Conv2d::new(Conv2dSpec::new(6, 6, 3, 1, 1), true, &mut rng),
            )
            .push("relu2", clado_nn::Activation::new(clado_nn::ActKind::Relu))
            .push("pool", GlobalAvgPool::new())
            .push("fc", Linear::new(6, 4, &mut rng)),
        4,
    );
    let data = SynthVision::generate(SynthVisionConfig {
        classes: 4,
        img: 8,
        train: 48,
        val: 32,
        seed: 9,
        noise: 0.2,
        label_noise: 0.0,
    });
    let set = data.train.subset(&(0..16).collect::<Vec<_>>());
    (net, set)
}

fn bits() -> BitWidthSet {
    BitWidthSet::new(&[2, 8])
}

fn opts(checkpoint: Option<&PathBuf>, resume: bool) -> SensitivityOptions {
    SensitivityOptions {
        threads: 1,
        checkpoint_dir: checkpoint.cloned(),
        resume,
        ..Default::default()
    }
}

fn temp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clado-faultinj-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn assert_bitwise_equal(a: &SensitivityMatrix, b: &SensitivityMatrix, label: &str) {
    assert_eq!(
        a.base_loss.to_bits(),
        b.base_loss.to_bits(),
        "{label}: base loss"
    );
    let dim = a.matrix().dim();
    assert_eq!(dim, b.matrix().dim(), "{label}: dimension");
    for u in 0..dim {
        for v in u..dim {
            assert_eq!(
                a.matrix().get(u, v).to_bits(),
                b.matrix().get(u, v).to_bits(),
                "{label}: entry ({u},{v}) differs"
            );
        }
    }
}

fn reference(net: &mut Network, set: &DataSplit) -> SensitivityMatrix {
    measure_sensitivities(net, set, &bits(), &opts(None, false)).expect("reference run")
}

#[test]
fn sweep_killed_mid_run_resumes_to_the_identical_matrix() {
    let _guard = test_guard();
    let (mut net, set) = setup();
    let want = reference(&mut net, &set);
    let ckpt = temp_ckpt("kill-resume");

    // Kill the sweep at roughly 50%: every probe evaluation after the
    // 10th panics, and the first panic becomes a structured WorkerPanic
    // error. Everything completed before the kill (base + all 6 diagonal
    // probes) is already journaled.
    arm("measure.probe_panic", FaultSpec::panic().skip(10));
    let err = measure_sensitivities(&mut net, &set, &bits(), &opts(Some(&ckpt), false))
        .expect_err("sweep must die at the armed point");
    disarm("measure.probe_panic");
    assert!(
        matches!(err, MeasureError::WorkerPanic { .. }),
        "expected WorkerPanic, got {err:?}"
    );
    let shards = fs::read_dir(&ckpt)
        .expect("checkpoint dir exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "clsj")
        })
        .count();
    assert!(
        shards > 0,
        "completed probes were journaled before the kill"
    );

    // Resume with the fault disarmed: journaled probes are skipped, the
    // rest are re-measured, and the matrix is bitwise identical.
    let sm = measure_sensitivities(&mut net, &set, &bits(), &opts(Some(&ckpt), true))
        .expect("resume completes");
    assert!(sm.stats.resumed > 0, "resume restored journaled probes");
    assert_eq!(
        sm.stats.resumed + sm.stats.evaluations,
        want.stats.evaluations,
        "resumed + re-evaluated covers every probe exactly once"
    );
    assert_bitwise_equal(&sm, &want, "resumed run");
    let _ = fs::remove_dir_all(&ckpt);
}

#[test]
fn worker_thread_death_is_a_structured_error_and_resumable() {
    let _guard = test_guard();
    let (mut net, set) = setup();
    let want = reference(&mut net, &set);
    let ckpt = temp_ckpt("worker-lost");

    // Two worker threads: every probe after the 10th panics inside the
    // per-item guard, on whichever thread runs it, and the sweep
    // surfaces the lowest failing item typed after journaling the rest.
    arm("measure.probe_panic", FaultSpec::panic().skip(10));
    let mut broken = opts(Some(&ckpt), false);
    broken.threads = 2;
    let err = measure_sensitivities(&mut net, &set, &bits(), &broken)
        .expect_err("a probe panic must surface");
    disarm("measure.probe_panic");
    assert!(
        matches!(err, MeasureError::WorkerPanic { .. }),
        "expected WorkerPanic, got {err:?}"
    );

    let sm = measure_sensitivities(&mut net, &set, &bits(), &opts(Some(&ckpt), true))
        .expect("resume completes");
    assert!(sm.stats.resumed > 0);
    assert_bitwise_equal(&sm, &want, "resume after worker death");
    let _ = fs::remove_dir_all(&ckpt);
}

#[test]
fn persistent_non_finite_loss_is_quarantined_not_propagated() {
    let _guard = test_guard();
    let (mut net, set) = setup();
    let want = reference(&mut net, &set);

    // Poison one probe's loss (the 6th evaluation, a diagonal probe): it
    // is quarantined on its first evaluation, not re-evaluated, and only
    // the Ω entries that read it degrade to zero.
    arm("measure.probe_nan", FaultSpec::trigger().skip(5).times(1));
    let sm = measure_sensitivities(&mut net, &set, &bits(), &opts(None, false))
        .expect("quarantine must not fail the sweep");
    disarm("measure.probe_nan");

    assert_eq!(sm.stats.quarantined, 1, "one probe quarantined");
    assert_eq!(
        sm.stats.evaluations, want.stats.evaluations,
        "every probe, the poisoned one included, ran exactly once"
    );
    let dim = sm.matrix().dim();
    let mut zeroed = Vec::new();
    for u in 0..dim {
        for v in u..dim {
            let (got, clean) = (sm.matrix().get(u, v), want.matrix().get(u, v));
            assert!(got.is_finite(), "entry ({u},{v}) leaked a non-finite value");
            if got.to_bits() != clean.to_bits() {
                assert_eq!(got, 0.0, "entry ({u},{v}) changed but did not degrade");
                zeroed.push((u, v));
            }
        }
    }
    // A diagonal probe feeds one row of Ω: its own entry and every cross
    // term with it. Every other entry keeps the reference bits.
    let row = (0..dim)
        .find(|&r| zeroed.iter().all(|&(u, v)| u == r || v == r))
        .unwrap_or_else(|| panic!("degraded entries span several rows: {zeroed:?}"));
    assert!(
        zeroed.contains(&(row, row)),
        "the quarantined diagonal entry degraded to 0: {zeroed:?}"
    );
}

#[test]
fn base_loss_that_never_recovers_is_a_typed_error() {
    let _guard = test_guard();
    let (mut net, set) = setup();

    // The very first evaluation is the base loss; poisoning it leaves
    // nothing to measure against.
    arm("measure.probe_nan", FaultSpec::trigger().times(1));
    let err = measure_sensitivities(&mut net, &set, &bits(), &opts(None, false))
        .expect_err("non-finite base loss must fail");
    disarm("measure.probe_nan");
    assert!(
        matches!(err, MeasureError::NonFiniteBaseLoss { .. }),
        "got {err:?}"
    );
}

#[test]
fn corrupted_journal_shards_are_remeasured_not_trusted() {
    let _guard = test_guard();
    let (mut net, set) = setup();
    let want = reference(&mut net, &set);
    let ckpt = temp_ckpt("corrupt");

    // Complete a fully-checkpointed run, then vandalize the journal.
    let full = measure_sensitivities(&mut net, &set, &bits(), &opts(Some(&ckpt), false))
        .expect("checkpointed run");
    assert_bitwise_equal(&full, &want, "checkpointed run");
    let mut shards: Vec<PathBuf> = fs::read_dir(&ckpt)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "clsj"))
        .collect();
    shards.sort();
    assert!(shards.len() >= 3, "expected several shards, got {shards:?}");

    // Truncate one shard mid-record, flip a byte in another, and drop a
    // stray .tmp from a "crashed" commit.
    let bytes = fs::read(&shards[1]).unwrap();
    fs::write(&shards[1], &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = fs::read(&shards[2]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&shards[2], bytes).unwrap();
    fs::write(ckpt.join("journal-999999.clsj.tmp"), b"crashed commit").unwrap();

    // Resume: valid shards restore their probes, corrupt ones are
    // silently re-measured, and the matrix is still bitwise identical.
    let sm = measure_sensitivities(&mut net, &set, &bits(), &opts(Some(&ckpt), true))
        .expect("resume over a vandalized journal");
    assert!(sm.stats.resumed > 0, "valid shards still resumed");
    assert!(
        sm.stats.evaluations > 0,
        "corrupt shards forced re-measurement"
    );
    assert_bitwise_equal(&sm, &want, "resume over corruption");
    let _ = fs::remove_dir_all(&ckpt);
}

#[test]
fn fully_journaled_run_resumes_with_zero_evaluations() {
    let _guard = test_guard();
    let (mut net, set) = setup();
    let ckpt = temp_ckpt("complete");

    let first = measure_sensitivities(&mut net, &set, &bits(), &opts(Some(&ckpt), false))
        .expect("checkpointed run");
    let second = measure_sensitivities(&mut net, &set, &bits(), &opts(Some(&ckpt), true))
        .expect("resume of a complete journal");
    assert_eq!(second.stats.evaluations, 0, "nothing left to measure");
    assert_eq!(second.stats.resumed, first.stats.evaluations);
    assert_bitwise_equal(&second, &first, "fully-resumed run");
    let _ = fs::remove_dir_all(&ckpt);
}

#[test]
fn shard_path_quarantines_a_persistent_non_finite_probe() {
    let _guard = test_guard();
    let (mut net, set) = setup();
    let want = reference(&mut net, &set);
    let ctx = ShardContext::new(
        &net,
        set.len(),
        &bits(),
        QuantScheme::PerTensorSymmetric,
        PROBE_BATCH,
        true,
    );
    let poisoned_shard = ShardSpec::Pair { outer: 0 };
    let mut replica = net.clone();
    let mut records = HashMap::new();
    let mut poisoned = None;
    for shard in ctx.shards() {
        if shard == poisoned_shard {
            // Poison the shard's third probe.
            arm("measure.probe_nan", FaultSpec::trigger().skip(2).times(1));
        }
        let (recs, stats) = ctx.run_shard(&mut replica, &set, shard, &Telemetry::disabled());
        disarm("measure.probe_nan");
        if shard == poisoned_shard {
            assert_eq!(stats.quarantined, 1, "one probe quarantined");
            let rec = recs[2];
            assert!(rec.quarantined && rec.loss.is_nan(), "{rec:?}");
            poisoned = Some(rec.id);
        }
        records.extend(recs.into_iter().map(|r| (r.id, r)));
    }

    let (sm, _) = ctx.assemble(&records).expect("assembly");
    assert_eq!(sm.stats.quarantined, 1);
    let g = sm.matrix();
    let Some(ProbeId::Pair {
        layer_i,
        bit_m,
        layer_j,
        bit_n,
    }) = poisoned
    else {
        panic!("expected a poisoned pair probe, got {poisoned:?}");
    };
    let k = bits().len();
    let (u, v) = (
        layer_i as usize * k + bit_m as usize,
        layer_j as usize * k + bit_n as usize,
    );
    assert_ne!(want.matrix().get(u, v), 0.0, "clean entry is non-zero");
    assert_eq!(g.get(u, v), 0.0, "quarantined entry degrades to zero");
}
