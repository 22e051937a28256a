//! Measurement-engine benchmark — serial/full-forward vs parallel/
//! prefix-cached sensitivity measurement on a ResNet-style model.
//!
//! Runs Algorithm 1 six times on the same (untrained) ResNet-20 analogue
//! and sensitivity set — (a) one thread with the prefix cache disabled
//! (the pre-engine baseline), (b) one thread with the cache, (c) all cores
//! with the cache, (d) configuration (b) again with telemetry enabled,
//! (e) configuration (b) with probe journaling to a checkpoint directory,
//! (f) a distributed sweep: a loopback-TCP coordinator sharding the probe
//! grid across three worker threads — checks all six matrices are bitwise
//! identical, and records the timings (including the telemetry overhead
//! ratio (d)/(b), the fault-free checkpointing overhead ratio (e)/(b),
//! and `distributed.speedup_ratio` (b)/(f) with its
//! `distributed.startup_seconds`/`distributed.steady_seconds` split —
//! how much of (f) is handshake + model rebuild rather than shard
//! service) to `BENCH_sensitivity.json`
//! at the repo root, as a `clado-telemetry-manifest/v1` document. A
//! solver phase times a dense cross-term IQP with and without an armed
//! deadline and records `solver.anytime_overhead_ratio` — the cost of the
//! cooperative cancellation checks when nothing fires.
//!
//! Two more phases follow: sustained single-threaded GEMM throughput of
//! the dispatched kernel (`bench.gemm_gflops`), and an eq. (11) IQP solve
//! on the measured matrix whose bit choices land in the manifest
//! (`bench.assignment_hash` and the `bit_assignment` config entry). That
//! solve runs on the dispatched backend only; the scalar-versus-SIMD plan
//! identity is checked by `crates/core/tests/backend_identity.rs`. The
//! manifest `config` also records the dispatched kernel backend and
//! detected CPU features. Every phase runs under a root telemetry span so
//! the manifest's `span_coverage` reflects the whole benchmark wall time.
//!
//! The overhead ratios compare configurations whose true difference is a
//! few percent, far below single-shot wall-time noise on a busy machine,
//! so configurations (b), (d), and (e) each run `REPS` times and the
//! ratios use the minimum wall time of each.
//!
//! ```text
//! cargo bench -p clado-bench --bench sensitivity_engine
//! ```

use clado_core::{
    assign_bits, measure_sensitivities, AssignOptions, SensitivityMatrix, SensitivityOptions,
    ShardContext,
};
use clado_dist::{
    run_sweep, run_worker, scheme_to_u8, JobControl, JobSpec, PoolOptions, WorkerOptions,
    WorkerPool,
};
use clado_estim::{
    assignment_regret, error_vs_exact, estimate_sensitivities, EstimatorKind, EstimatorOptions,
};
use clado_models::{build_resnet, DataSplit, ResNetConfig, SynthVision, SynthVisionConfig};
use clado_nn::Network;
use clado_quant::{BitWidthSet, LayerSizes, QuantScheme};
use clado_telemetry::Telemetry;
use std::path::Path;

/// Repetitions for the noise-sensitive overhead configurations.
const REPS: usize = 3;

/// Runs a configuration `REPS` times; returns the first matrix (they are
/// all bitwise identical) and the minimum wall time across repetitions.
fn best_of(mut run: impl FnMut() -> SensitivityMatrix) -> (SensitivityMatrix, f64) {
    let mut first: Option<SensitivityMatrix> = None;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let sm = run();
        best = best.min(sm.stats.seconds);
        first.get_or_insert(sm);
    }
    (first.expect("REPS >= 1"), best)
}

fn measure(
    label: &str,
    threads: usize,
    use_prefix_cache: bool,
    telemetry: Telemetry,
    checkpoint_dir: Option<std::path::PathBuf>,
) -> SensitivityMatrix {
    let mut network = build_resnet(&ResNetConfig::resnet20_mini(10, 41));
    // Per-stage `forward.<stage>` spans attribute the kernel hot path in
    // the manifest (the handle is disabled for every configuration but
    // the telemetry one, so the other timings stay span-free).
    network.set_telemetry(telemetry.clone());
    let data = SynthVision::generate(SynthVisionConfig {
        train: 128,
        val: 32,
        ..Default::default()
    });
    let set = data.train.subset(&(0..96).collect::<Vec<_>>());
    let sm = measure_sensitivities(
        &mut network,
        &set,
        &BitWidthSet::new(&[2, 8]),
        &SensitivityOptions {
            threads,
            use_prefix_cache,
            telemetry,
            checkpoint_dir,
            ..Default::default()
        },
    )
    .expect("sensitivity measurement");
    println!(
        "  {label:<28} {:>7.2}s   {} threads, {} full + {} suffix evals",
        sm.stats.seconds, sm.stats.threads_used, sm.stats.full_evals, sm.stats.prefix_cache_hits
    );
    sm
}

/// The same model + sensitivity set the serial configurations use;
/// distributed workers rebuild it independently from the job spec.
fn bench_setup() -> (Network, DataSplit) {
    let network = build_resnet(&ResNetConfig::resnet20_mini(10, 41));
    let data = SynthVision::generate(SynthVisionConfig {
        train: 128,
        val: 32,
        ..Default::default()
    });
    let set = data.train.subset(&(0..96).collect::<Vec<_>>());
    (network, set)
}

/// Configuration (f): a loopback-TCP worker pool sharding the sweep
/// across `workers` in-process worker threads. Returns the assembled
/// matrix, its wall time, and the sweep's startup/steady-state
/// split (time to first lease grant vs shard-service time after it) —
/// the split explains how much of `distributed.speedup_ratio` is fixed
/// setup cost rather than per-shard overhead.
fn measure_distributed(workers: usize) -> (SensitivityMatrix, f64, f64, f64) {
    let (network, set) = bench_setup();
    let bits = BitWidthSet::new(&[2, 8]);
    let scheme = QuantScheme::PerTensorSymmetric;
    let batch_size = SensitivityOptions::default().batch_size;
    let ctx = ShardContext::new(&network, set.len(), &bits, scheme, batch_size, true);
    let job = JobSpec {
        model: "resnet20-mini".into(),
        set_size: set.len() as u64,
        set_seed: 0,
        batch_size: batch_size as u64,
        bits: bits.iter().map(|b| b.bits()).collect(),
        scheme: scheme_to_u8(scheme),
        use_prefix_cache: true,
        fingerprint: ctx.fingerprint(),
        trace_id: 0,
    };
    let pool = WorkerPool::bind("127.0.0.1:0", PoolOptions::default()).expect("bind worker pool");
    let addr = pool.worker_addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                run_worker(&addr, |_job| Ok(bench_setup()), &WorkerOptions::default())
            })
        })
        .collect();
    let start = std::time::Instant::now();
    let outcome = run_sweep(
        &pool,
        &ctx,
        job,
        None,
        false,
        &mut JobControl::wait(Some(std::time::Duration::from_secs(120))),
    )
    .expect("distributed sweep");
    let secs = start.elapsed().as_secs_f64();
    pool.shutdown();
    for h in handles {
        h.join().expect("worker thread").expect("worker run");
    }
    let (startup, steady) = (outcome.startup_seconds, outcome.steady_seconds);
    println!(
        "  {:<28} {secs:>7.2}s   {} workers, {} evictions, straggler {:.2}s, \
         startup {startup:.2}s + steady {steady:.2}s",
        "distributed, 3 workers",
        outcome.workers.len(),
        outcome.evictions,
        outcome.straggler_seconds
    );
    (outcome.matrix, secs, startup, steady)
}

/// Anytime-solver overhead: the cooperative deadline/cancel checks ride on
/// every branch-and-bound node, DP cell, and exhaustive enumeration step.
/// This phase solves the same planted dense cross-term IQP with the default
/// config and with an armed-but-unreachable deadline, in interleaved
/// rounds, and returns min(armed)/min(plain) — the price of anytime
/// solving when nothing fires (expected under 1.02×).
fn solver_anytime_overhead() -> f64 {
    use clado_solver::{IqpProblem, SolverConfig, SymMatrix};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::time::{Duration, Instant};

    let layers = 12;
    let choices = 3;
    let n = layers * choices;
    let mut rng = StdRng::seed_from_u64(41);
    let mut g = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let v = rng.gen_range(-1.0f64..1.0);
            g.set(i, j, if i == j { v.abs() } else { 0.2 * v });
        }
    }
    let params: Vec<u64> = (0..layers).map(|_| 64 * rng.gen_range(1u64..=64)).collect();
    let costs: Vec<u64> = params
        .iter()
        .flat_map(|&p| [2, 4, 8].iter().map(move |&b| p * b))
        .collect();
    let budget = params.iter().sum::<u64>() * 4;
    let problem =
        IqpProblem::new(g, &vec![choices; layers], costs, budget).expect("valid instance");

    // One solve is under a millisecond, so each timing sample loops the
    // solve, and plain/armed samples interleave round-robin so slow drift
    // on the host (frequency scaling, background load) hits both sides
    // equally instead of biasing whichever phase ran second.
    let solves_per_sample = 40;
    let rounds = 7;
    let plain = SolverConfig::default();
    let armed = SolverConfig {
        deadline: Some(Instant::now() + Duration::from_secs(3600)),
        ..Default::default()
    };
    let sample = |config: &SolverConfig| {
        let mut choices = None;
        let start = Instant::now();
        for _ in 0..solves_per_sample {
            let solution = problem.solve(config).expect("solves");
            choices.get_or_insert(solution.choices);
        }
        (
            choices.expect("solves_per_sample >= 1"),
            start.elapsed().as_secs_f64(),
        )
    };
    sample(&plain); // warm caches before the measured rounds
    let (mut plain_secs, mut armed_secs) = (f64::INFINITY, f64::INFINITY);
    let (mut plain_choices, mut armed_choices) = (None, None);
    for _ in 0..rounds {
        let (c, s) = sample(&plain);
        plain_secs = plain_secs.min(s);
        plain_choices.get_or_insert(c);
        let (c, s) = sample(&armed);
        armed_secs = armed_secs.min(s);
        armed_choices.get_or_insert(c);
    }
    assert_eq!(
        plain_choices, armed_choices,
        "an unreachable deadline changed the solution"
    );
    let ratio = armed_secs / plain_secs;
    println!(
        "  {:<28} {plain_secs:>7.3}s   armed deadline {armed_secs:.3}s → {ratio:.3}× overhead \
         ({solves_per_sample} solves/sample)",
        "anytime solver, 12 layers"
    );
    ratio
}

/// Sustained single-threaded GEMM throughput of the dispatched kernel:
/// square 256³ multiplies, best rate over a few samples.
fn gemm_gflops() -> f64 {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let n = 256usize;
    let mut rng = StdRng::seed_from_u64(7);
    let a = clado_tensor::Tensor::from_vec(
        [n, n],
        (0..n * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
    .expect("shape matches");
    let b = clado_tensor::Tensor::from_vec(
        [n, n],
        (0..n * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
    .expect("shape matches");
    let flops_per = 2.0 * (n as f64).powi(3);
    let mut best = 0.0f64;
    let mut sink = 0.0f32;
    for _ in 0..4 {
        let start = std::time::Instant::now();
        let mut iters = 0u32;
        while start.elapsed().as_secs_f64() < 0.25 {
            let c = clado_tensor::matmul(&a, &b);
            sink += c.data()[0];
            iters += 1;
        }
        best = best.max(flops_per * f64::from(iters) / start.elapsed().as_secs_f64() / 1e9);
    }
    assert!(sink.is_finite());
    println!(
        "  {:<28} {best:>7.2} GFLOP/s ({} kernel)",
        "sgemm 256x256x256",
        clado_tensor::kernel_name()
    );
    best
}

/// Solves the eq. (11) IQP on the measured matrix at a 4-bit average
/// budget and returns the assignment the manifest records.
fn solve_assignment(sens: &SensitivityMatrix) -> clado_core::BitAssignment {
    let (network, _) = bench_setup();
    let sizes = LayerSizes::new(network.layer_param_counts());
    let budget = sizes.total_params() as u64 * 4;
    let assignment =
        assign_bits(sens, &sizes, budget, &AssignOptions::default()).expect("IQP solves");
    println!(
        "  {:<28} {}   avg {:.2} bits",
        "IQP assignment, 4-bit budget",
        assignment.bitmap(),
        assignment.avg_bits(&sizes)
    );
    assignment
}

/// FNV-1a over the per-layer bit choices — a compact manifest gauge that
/// changes iff the assignment changes.
fn assignment_hash(assignment: &clado_core::BitAssignment) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in &assignment.bits {
        h ^= u32::from(b.bits());
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Accuracy/cost frontier of the sub-quadratic Ω estimators: entry-wise
/// error (relative Frobenius vs. the exact matrix) and IQP assignment
/// regret (relative Δtask-loss at a 4-bit budget) at 10/25/50% probe
/// budgets, recorded as
/// `bench.estimator.{frontier,probe_fraction,regret}.<name>.f<pct>`
/// gauges — the tracked figure for the estimation subsystem.
fn estimator_frontier(exact: &SensitivityMatrix, registry: &Telemetry) {
    let (mut network, set) = bench_setup();
    let bits = BitWidthSet::new(&[2, 8]);
    let scheme = QuantScheme::PerTensorSymmetric;
    let batch_size = SensitivityOptions::default().batch_size;
    let ctx = ShardContext::new(&network, set.len(), &bits, scheme, batch_size, true);
    let full_sweep = ctx.total_probes();
    let sizes = LayerSizes::new(network.layer_param_counts());
    let budget_bits = sizes.total_params() as u64 * 4;
    println!(
        "  {:<12} {:>6} {:>11} {:>9} {:>9}",
        "estimator", "budget", "probes", "error", "regret"
    );
    for kind in EstimatorKind::ALL {
        for pct in [10usize, 25, 50] {
            let est = estimate_sensitivities(
                &mut network,
                &set,
                &bits,
                &EstimatorOptions {
                    probe_budget: full_sweep * pct / 100,
                    ..EstimatorOptions::new(kind)
                },
            )
            .expect("estimation");
            let error = error_vs_exact(est.matrix.matrix(), exact.matrix(), &est.observed);
            let regret = assignment_regret(
                &mut network,
                &set,
                exact,
                &est.matrix,
                &sizes,
                budget_bits,
                &AssignOptions::default(),
                scheme,
                batch_size,
            )
            .expect("regret IQP solves");
            println!(
                "  {:<12} {pct:>5}% {:>5}/{:<5} {:>9.3} {:>+9.4}",
                kind.to_string(),
                est.probes_spent,
                est.full_sweep_probes,
                error.full_rel_frobenius,
                regret.relative
            );
            registry.set_gauge(
                &format!("bench.estimator.frontier.{kind}.f{pct}"),
                error.full_rel_frobenius,
            );
            registry.set_gauge(
                &format!("bench.estimator.probe_fraction.{kind}.f{pct}"),
                est.probe_fraction(),
            );
            registry.set_gauge(
                &format!("bench.estimator.regret.{kind}.f{pct}"),
                regret.relative,
            );
        }
    }
}

fn assert_bitwise_equal(a: &SensitivityMatrix, b: &SensitivityMatrix, label: &str) {
    assert_eq!(a.base_loss.to_bits(), b.base_loss.to_bits(), "{label}");
    let dim = a.matrix().dim();
    for u in 0..dim {
        for v in u..dim {
            assert_eq!(
                a.matrix().get(u, v).to_bits(),
                b.matrix().get(u, v).to_bits(),
                "{label}: entry ({u},{v})"
            );
        }
    }
}

fn main() {
    println!("=== Sensitivity-measurement engine: serial/full vs parallel/prefix ===");
    let registry = Telemetry::new();
    let phase = |name: &str| registry.span(name);

    let naive = {
        let _s = phase("serial_full");
        measure(
            "serial, full forward",
            1,
            false,
            Telemetry::disabled(),
            None,
        )
    };
    let (cached, cached_secs) = {
        let _s = phase("serial_prefix");
        best_of(|| measure("serial, prefix cache", 1, true, Telemetry::disabled(), None))
    };
    let parallel = {
        let _s = phase("parallel_prefix");
        measure(
            "all cores, prefix cache",
            0,
            true,
            Telemetry::disabled(),
            None,
        )
    };
    // No phase span here: this configuration records its own `measure`
    // (and `forward`) root spans on the registry.
    let (timed, timed_secs) = best_of(|| {
        measure(
            "serial, prefix + telemetry",
            1,
            true,
            registry.clone(),
            None,
        )
    });
    let ckpt_dir = std::env::temp_dir().join(format!("clado-bench-ckpt-{}", std::process::id()));
    let (journaled, journaled_secs) = {
        let _s = phase("serial_journal");
        best_of(|| {
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            measure(
                "serial, prefix + journal",
                1,
                true,
                Telemetry::disabled(),
                Some(ckpt_dir.clone()),
            )
        })
    };
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (distributed, distributed_secs, dist_startup_secs, dist_steady_secs) = {
        let _s = phase("distributed");
        measure_distributed(3)
    };
    let anytime_overhead = {
        let _s = phase("solver_anytime");
        solver_anytime_overhead()
    };
    let gflops = {
        let _s = phase("gemm_throughput");
        gemm_gflops()
    };
    let assignment = {
        let _s = phase("assignment");
        solve_assignment(&cached)
    };
    println!("=== Sub-quadratic Ω estimation: accuracy/cost frontier ===");
    {
        let _s = phase("estimators");
        estimator_frontier(&cached, &registry);
    }
    assert_bitwise_equal(&naive, &cached, "prefix cache changed the matrix");
    assert_bitwise_equal(&naive, &parallel, "parallelism changed the matrix");
    assert_bitwise_equal(&naive, &timed, "telemetry changed the matrix");
    assert_bitwise_equal(&naive, &journaled, "journaling changed the matrix");
    assert_bitwise_equal(&naive, &distributed, "distribution changed the matrix");
    assert_eq!(
        journaled.stats.resumed + journaled.stats.retried + journaled.stats.quarantined,
        0,
        "a fault-free checkpointed run must not report recovery activity"
    );

    let cache_speedup = naive.stats.seconds / cached_secs;
    let total_speedup = naive.stats.seconds / parallel.stats.seconds;
    let overhead_ratio = timed_secs / cached_secs;
    let checkpoint_overhead = journaled_secs / cached_secs;
    let distributed_speedup = cached_secs / distributed_secs;
    println!("  prefix-cache speedup  {cache_speedup:>6.2}×");
    println!("  combined speedup      {total_speedup:>6.2}×   (matrices bitwise identical)");
    println!("  telemetry overhead    {overhead_ratio:>6.3}×   (enabled / disabled wall time)");
    println!("  checkpoint overhead   {checkpoint_overhead:>6.3}×   (journaled / plain wall time)");
    println!("  distributed speedup   {distributed_speedup:>6.2}×   (serial-prefix / 3-worker wall time)");
    println!(
        "  distributed split     {dist_startup_secs:>6.2}s   startup (bind → first lease) \
         + {dist_steady_secs:.2}s steady-state"
    );
    if distributed_speedup < 1.0 {
        let (secs, phase) = if dist_startup_secs >= dist_steady_secs {
            (
                dist_startup_secs,
                "startup (handshake + per-worker model rebuild)",
            )
        } else {
            (
                dist_steady_secs,
                "steady-state shard service (per-shard work too small to amortize \
                 frame round-trips and duplicated prefix builds)",
            )
        };
        println!(
            "  NOTE: distributed ratio < 1 — {secs:.2}s of the {distributed_secs:.2}s \
             wall time is {phase}"
        );
    }
    println!(
        "  anytime overhead      {anytime_overhead:>6.3}×   (armed deadline / plain solve wall time)"
    );

    // The bench record *is* a telemetry manifest: timings land in gauges,
    // the instrumented run's counters and span tree come along for free.
    registry.set_gauge("bench.serial_full_seconds", naive.stats.seconds);
    registry.set_gauge("bench.serial_prefix_seconds", cached_secs);
    registry.set_gauge("bench.parallel_prefix_seconds", parallel.stats.seconds);
    registry.set_gauge("bench.prefix_cache_speedup", cache_speedup);
    registry.set_gauge("bench.combined_speedup", total_speedup);
    registry.set_gauge("telemetry.overhead_ratio", overhead_ratio);
    registry.set_gauge("bench.serial_journal_seconds", journaled_secs);
    registry.set_gauge("bench.checkpoint_overhead_ratio", checkpoint_overhead);
    registry.set_gauge("bench.distributed_seconds", distributed_secs);
    registry.set_gauge("distributed.speedup_ratio", distributed_speedup);
    registry.set_gauge("distributed.startup_seconds", dist_startup_secs);
    registry.set_gauge("distributed.steady_seconds", dist_steady_secs);
    registry.set_gauge("solver.anytime_overhead_ratio", anytime_overhead);
    registry.set_gauge("bench.gemm_gflops", gflops);
    registry.set_gauge(
        "bench.assignment_hash",
        f64::from(assignment_hash(&assignment)),
    );
    let json = registry.manifest(
        "bench.sensitivity_engine",
        &[
            ("model", "resnet20-mini".into()),
            ("threads", parallel.stats.threads_used.into()),
            ("evaluations", naive.stats.evaluations.into()),
            ("bitwise_identical", true.into()),
            ("resumed", journaled.stats.resumed.into()),
            ("retried", journaled.stats.retried.into()),
            ("quarantined", journaled.stats.quarantined.into()),
            ("kernel", clado_tensor::kernel_name().into()),
            ("cpu_features", clado_tensor::cpu_features().into()),
            ("bit_assignment", assignment.bitmap().into()),
        ],
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sensitivity.json");
    std::fs::write(&out, json).expect("write BENCH_sensitivity.json");
    println!("  recorded → {}", out.display());
}
