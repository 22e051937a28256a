//! End-to-end tests of the distributed sweep on the worker pool over
//! loopback TCP: bitwise parity with the single-process engine, lease
//! eviction for dead and hung workers, fingerprint/version rejection,
//! malformed-frame robustness (during the handshake and while idle),
//! pushed leases and `JobDone`, prompt job dispatch and worker exit,
//! jobs that end at their deadline, idle limit or cancel with no timer
//! tick, and crash-safe resume (including journal interop with the
//! single-process engine).
//!
//! Every test takes the fault-injection `test_guard`, which serializes
//! the suite: the fault registry is process-global, so a fault armed
//! for one test must never fire inside another's workers.

use clado_core::{
    load_sensitivities, measure_sensitivities, save_sensitivities, MeasureError, OmegaPlan,
    ProbeId, SensitivityMatrix, SensitivityOptions, ShardContext, ShardSpec,
};
use clado_dist::{
    protocol, run_sweep, run_worker, DistError, DistOutcome, Fallback, Job, JobControl, JobSpec,
    Message, PoolOptions, WorkerOptions, WorkerPool,
};
use clado_models::{DataSplit, SynthVision, SynthVisionConfig};
use clado_nn::Network;
use clado_quant::{BitWidthSet, QuantScheme};
use clado_telemetry::faultinject::{self, test_guard, FaultSpec};
use clado_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn setup() -> (Network, DataSplit) {
    let mut rng = StdRng::seed_from_u64(3);
    let net = Network::new(
        clado_nn::Sequential::new()
            .push(
                "conv1",
                clado_nn::Conv2d::new(clado_tensor::Conv2dSpec::new(3, 6, 3, 1, 1), true, &mut rng),
            )
            .push("relu1", clado_nn::Activation::new(clado_nn::ActKind::Relu))
            .push(
                "conv2",
                clado_nn::Conv2d::new(clado_tensor::Conv2dSpec::new(6, 6, 3, 1, 1), true, &mut rng),
            )
            .push("relu2", clado_nn::Activation::new(clado_nn::ActKind::Relu))
            .push("pool", clado_nn::GlobalAvgPool::new())
            .push("fc", clado_nn::Linear::new(6, 4, &mut rng)),
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

fn context(net: &Network, set: &DataSplit) -> ShardContext {
    ShardContext::new(
        net,
        set.len(),
        &bits(),
        QuantScheme::PerTensorSymmetric,
        64,
        true,
    )
}

fn job(fingerprint: u64) -> JobSpec {
    JobSpec {
        model: "synthetic".into(),
        set_size: 16,
        set_seed: 0,
        batch_size: 64,
        bits: vec![2, 8],
        scheme: 0,
        use_prefix_cache: true,
        fingerprint,
        trace_id: 0,
    }
}

/// A one-shard job: the base probe.
fn base_job(fingerprint: u64) -> Job {
    Job {
        spec: job(fingerprint),
        shards: vec![(ShardSpec::Base, vec![ProbeId::Base])],
        records: Default::default(),
        journal: None,
    }
}

fn bind(opts: PoolOptions) -> WorkerPool {
    WorkerPool::bind("127.0.0.1:0", opts).expect("bind worker pool")
}

/// One sweep of `plan` on `pool` with the suite's idle timeout.
fn sweep(
    pool: &WorkerPool,
    plan: &dyn OmegaPlan,
    job: JobSpec,
    checkpoint_dir: Option<&std::path::Path>,
    resume: bool,
) -> Result<DistOutcome, DistError> {
    run_sweep(
        pool,
        plan,
        job,
        checkpoint_dir,
        resume,
        &mut JobControl::wait(Some(Duration::from_secs(60))),
    )
}

/// Shuts the pool down (idle workers get `Shutdown`) and joins workers.
fn finish(pool: WorkerPool, workers: Vec<WorkerHandle>) {
    pool.shutdown();
    for handle in workers {
        handle.join().expect("worker thread").expect("worker run");
    }
}

type WorkerHandle = std::thread::JoinHandle<Result<clado_dist::WorkerReport, DistError>>;

/// Spawns `n` worker threads against `addr`, each reconstructing the
/// synthetic job from clones. Returns their join handles.
fn spawn_workers(
    addr: &str,
    n: usize,
    net: &Network,
    set: &DataSplit,
    opts: &WorkerOptions,
) -> Vec<WorkerHandle> {
    (0..n)
        .map(|_| {
            let addr = addr.to_string();
            let net = net.clone();
            let set = set.clone();
            let opts = opts.clone();
            std::thread::spawn(move || {
                run_worker(&addr, move |_job| Ok((net.clone(), set.clone())), &opts)
            })
        })
        .collect()
}

/// Blocks until `pool` has `n` live workers.
fn await_live_workers(pool: &WorkerPool, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.live_workers() < n {
        assert!(Instant::now() < deadline, "{n} worker(s) go live");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn reference_matrix(net: &Network, set: &DataSplit) -> SensitivityMatrix {
    let mut net = net.clone();
    measure_sensitivities(&mut net, set, &bits(), &SensitivityOptions::default())
        .expect("single-process reference")
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
                "{label}: entry ({u},{v})"
            );
        }
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clado-dist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn distributed_sweep_matches_single_process_bitwise() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let ctx = context(&net, &set);
    let pool = bind(PoolOptions::default());
    let addr = pool.worker_addr().to_string();
    let workers = spawn_workers(&addr, 3, &net, &set, &WorkerOptions::default());
    let outcome = sweep(&pool, &ctx, job(ctx.fingerprint()), None, false).expect("sweep");
    finish(pool, workers);
    assert_bitwise_equal(&outcome.matrix, &reference, "3 workers");
    assert_eq!(
        outcome.matrix.stats.evaluations,
        reference.stats.evaluations
    );
    assert_eq!(outcome.evictions, 0);
    assert_eq!(outcome.rejected, 0);
    assert_eq!(outcome.resumed, 0);
    assert!(!outcome.workers.is_empty());
    let shard_total: u64 = outcome.workers.iter().map(|w| w.shards).sum();
    assert_eq!(shard_total, 6, "every shard reported by exactly one worker");
    assert_eq!(outcome.shard_seconds.len(), 6, "one service time per shard");
    assert!(outcome.straggler_seconds >= 0.0);
}

/// A worker keeps its last job's model tables for the next job on the
/// same model. One worker sweeps set seeds a, b, a: the second and third
/// jobs reuse the tables, and every Ω is bitwise the in-process sweep of
/// its set, so nothing derived from one set leaks into another.
#[test]
fn one_worker_sweeps_sets_a_b_a_bitwise_like_in_process() {
    let _guard = test_guard();
    let (net, _) = setup();
    let data = SynthVision::generate(SynthVisionConfig {
        classes: 4,
        img: 8,
        train: 48,
        val: 32,
        seed: 9,
        noise: 0.2,
        label_noise: 0.0,
    });
    let pool = bind(PoolOptions::default());
    let addr = pool.worker_addr().to_string();
    let telemetry = Telemetry::new();
    let worker = {
        let (net, train) = (net.clone(), data.train.clone());
        let opts = WorkerOptions {
            telemetry: telemetry.clone(),
            ..WorkerOptions::default()
        };
        std::thread::spawn(move || {
            let provider = move |job: &JobSpec| {
                let set = train.sample_subset(job.set_size as usize, job.set_seed);
                Ok((net.clone(), set))
            };
            run_worker(&addr, provider, &opts)
        })
    };
    await_live_workers(&pool, 1);
    for seed in [1, 2, 1] {
        let set = data.train.sample_subset(16, seed);
        let ctx = context(&net, &set);
        let spec = JobSpec {
            set_seed: seed,
            ..job(ctx.fingerprint())
        };
        let outcome = sweep(&pool, &ctx, spec, None, false).expect("pooled sweep");
        assert!(
            outcome.workers.iter().any(|w| w.shards > 0),
            "the worker swept"
        );
        let reference = reference_matrix(&net, &set);
        assert_bitwise_equal(&outcome.matrix, &reference, &format!("set seed {seed}"));
    }
    finish(pool, vec![worker]);
    assert_eq!(telemetry.counter_value("dist.pool.tables_reuse"), 2);
}

/// Same budget ⇒ a 2-worker distributed estimation sweep is bitwise
/// identical to the single-process estimator: its pair selection reads
/// only the diagonal records, and the sweep runs the same PSD projection
/// the single-process path does.
#[test]
fn distributed_estimation_matches_single_process_bitwise() {
    use clado_estim::{estimate_sensitivities, EstimationPlan, EstimatorKind, EstimatorOptions};
    let _guard = test_guard();
    let (net, set) = setup();
    // Mandatory base+diagonal is 1 + |𝔹|I = 7 probes here; 13 leaves
    // six probes of pair headroom so selection genuinely happens.
    let budget = 13usize;
    for kind in EstimatorKind::ALL {
        let single = estimate_sensitivities(
            &mut net.clone(),
            &set,
            &bits(),
            &EstimatorOptions {
                probe_budget: budget,
                ..EstimatorOptions::new(kind)
            },
        )
        .expect("single-process estimate");
        let ctx = context(&net, &set);
        let plan = EstimationPlan::new(&ctx, kind, budget);
        let pool = bind(PoolOptions::default());
        let addr = pool.worker_addr().to_string();
        let workers = spawn_workers(&addr, 2, &net, &set, &WorkerOptions::default());
        let outcome = sweep(&pool, &plan, job(ctx.fingerprint()), None, false)
            .expect("distributed estimation");
        finish(pool, workers);
        assert_bitwise_equal(&outcome.matrix, &single.matrix, kind.name());
        assert_eq!(
            outcome.matrix.stats.provenance, single.matrix.stats.provenance,
            "{kind}: distributed provenance matches single-process"
        );
        assert_eq!(
            outcome.matrix.stats.evaluations, single.probes_spent,
            "{kind}: every planned probe measured once"
        );
        assert_eq!(outcome.evictions, 0, "{kind}");
        assert_eq!(outcome.rejected, 0, "{kind}");
    }
}

/// Pool workers evaluate exactly the probe ids their leases carry: in a
/// 2-worker blocktopk sweep the workers' summed `measure.evaluations`
/// is the plan's probe count — the base and diagonal probes are measured
/// once, not once more per worker to rebuild the plan.
#[test]
fn estimated_pool_sweep_measures_each_planned_probe_once() {
    use clado_estim::{estimate_sensitivities, EstimationPlan, EstimatorKind, EstimatorOptions};
    let _guard = test_guard();
    let (net, set) = setup();
    let budget = 13usize;
    let planned = estimate_sensitivities(
        &mut net.clone(),
        &set,
        &bits(),
        &EstimatorOptions {
            probe_budget: budget,
            ..EstimatorOptions::new(EstimatorKind::BlockTopK)
        },
    )
    .expect("single-process estimate")
    .probes_spent;
    let ctx = context(&net, &set);
    let plan = EstimationPlan::new(&ctx, EstimatorKind::BlockTopK, budget);
    let telemetry = Telemetry::new();
    let pool = bind(PoolOptions::default());
    let addr = pool.worker_addr().to_string();
    let opts = WorkerOptions {
        telemetry: telemetry.clone(),
        ..WorkerOptions::default()
    };
    let workers = spawn_workers(&addr, 2, &net, &set, &opts);
    let outcome =
        sweep(&pool, &plan, job(ctx.fingerprint()), None, false).expect("distributed estimation");
    finish(pool, workers);
    assert_eq!(outcome.evictions, 0);
    assert_eq!(
        telemetry.counter_value("measure.evaluations") as usize,
        planned,
        "workers measured {} probes for a {planned}-probe plan",
        telemetry.counter_value("measure.evaluations")
    );
}

#[cfg(debug_assertions)]
#[test]
fn dead_worker_mid_lease_is_evicted_and_sweep_still_matches() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let ctx = context(&net, &set);
    // Exactly one worker thread dies the moment it takes its second
    // lease (skip 1 so the sweep is mid-flight), with the lease held.
    faultinject::arm("dist.worker.shard", FaultSpec::panic().skip(1).times(1));
    let pool = bind(PoolOptions {
        heartbeat_timeout: Duration::from_millis(500),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let workers = spawn_workers(
        &addr,
        3,
        &net,
        &set,
        &WorkerOptions {
            heartbeat_interval: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let outcome = sweep(&pool, &ctx, job(ctx.fingerprint()), None, false)
        .expect("sweep survives a dead worker");
    pool.shutdown();
    let results: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
    let panicked = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(panicked, 1, "exactly one worker thread died");
    assert!(
        faultinject::hits("dist.worker.shard") >= 2,
        "skip=1 + fire=1"
    );
    assert!(
        outcome.evictions >= 1,
        "the dead worker's lease was evicted and requeued"
    );
    assert_bitwise_equal(&outcome.matrix, &reference, "after worker death");
    assert_eq!(
        outcome.matrix.stats.evaluations,
        reference.stats.evaluations
    );
}

/// Sends `Hello` on a raw connection to `addr`.
fn raw_hello(addr: &str, protocol: u16, pid: u32) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut s = &stream;
    protocol::send(&mut s, &Message::Hello { protocol, pid }).expect("hello");
    stream
}

/// A raw worker on `addr` that has taken its `Job` and answered `Ready`
/// with `fingerprint`; its reads give up after `read_timeout`.
fn raw_ready(addr: &str, fingerprint: u64, pid: u32, read_timeout: Duration) -> TcpStream {
    let stream = raw_hello(addr, clado_dist::PROTOCOL_VERSION, pid);
    stream
        .set_read_timeout(Some(read_timeout))
        .expect("read timeout");
    let mut s = &stream;
    let Message::Job(_) = protocol::recv(&mut s).expect("job") else {
        panic!("expected job");
    };
    let ready = Message::Ready {
        fingerprint,
        clock_us: 0,
    };
    protocol::send(&mut s, &ready).expect("ready");
    stream
}

/// Evaluates a pushed lease on `net` and reports it.
fn complete_lease(stream: &TcpStream, ctx: &ShardContext, net: &mut Network, set: &DataSplit) {
    let mut s = stream;
    let Message::Lease {
        lease,
        shard,
        probes,
        ..
    } = protocol::recv(&mut s).expect("a pushed lease")
    else {
        panic!("expected a lease");
    };
    let (records, stats) = ctx.run_probes(net, set, &probes, &Telemetry::disabled());
    let done = Message::ShardDone {
        lease,
        shard,
        records,
        stats,
        events: Vec::new(),
    };
    protocol::send(&mut s, &done).expect("shard done");
}

/// The pool pushes the first lease right after `Ready`, and `JobDone`
/// right after the last `ShardDone`: the worker never asks.
#[test]
fn a_ready_worker_is_sent_its_lease_unprompted() {
    let _guard = test_guard();
    let (net, set) = setup();
    let ctx = context(&net, &set);
    let fp = ctx.fingerprint();
    let pool = bind(PoolOptions {
        heartbeat_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let outcome = std::thread::scope(|scope| {
        let running = scope.spawn(|| {
            pool.run_job(
                base_job(fp),
                &mut JobControl::wait(Some(Duration::from_secs(5))),
            )
        });
        let stream = raw_ready(&addr, fp, 5, Duration::from_secs(2));
        complete_lease(&stream, &ctx, &mut net.clone(), &set);
        let mut s = &stream;
        let reply = protocol::recv(&mut s).expect("a pushed JobDone");
        assert_eq!(reply, Message::JobDone);
        running.join().expect("job thread").expect("job")
    });
    pool.shutdown();
    assert_eq!(outcome.workers.len(), 1);
    assert_eq!(outcome.workers[0].shards, 1);
}

/// A worker bound to a job whose only shard another worker holds waits
/// without asking, and is sent `JobDone` as soon as that shard completes
/// — long before its heartbeat deadline.
#[test]
fn a_waiting_worker_is_sent_job_done_when_the_shard_completes() {
    let _guard = test_guard();
    let (net, set) = setup();
    let ctx = context(&net, &set);
    let fp = ctx.fingerprint();
    let pool = bind(PoolOptions {
        heartbeat_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let outcome = std::thread::scope(|scope| {
        let running = scope.spawn(|| {
            pool.run_job(
                base_job(fp),
                &mut JobControl::wait(Some(Duration::from_secs(5))),
            )
        });
        let read_timeout = Duration::from_secs(2);
        let holder = raw_ready(&addr, fp, 6, read_timeout);
        let waiter = raw_ready(&addr, fp, 7, read_timeout);
        // Let the waiter's connection take its `Ready` and find nothing
        // leasable before the shard completes.
        std::thread::sleep(Duration::from_millis(100));
        complete_lease(&holder, &ctx, &mut net.clone(), &set);
        for (who, stream) in [("holder", &holder), ("waiter", &waiter)] {
            let mut s = stream;
            let reply = protocol::recv(&mut s).unwrap_or_else(|e| panic!("{who}: {e}"));
            assert_eq!(reply, Message::JobDone, "{who}");
        }
        running.join().expect("job thread").expect("job")
    });
    pool.shutdown();
    assert_eq!(outcome.evictions, 0);
    assert_eq!(outcome.workers.len(), 2, "both workers passed Ready");
}

#[test]
fn hung_worker_is_evicted_by_heartbeat_deadline() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let ctx = context(&net, &set);
    let fp = ctx.fingerprint();
    let pool = bind(PoolOptions {
        heartbeat_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();

    // A "hung" worker: completes the handshake, takes a lease, then
    // goes silent — no heartbeats, no result. The pool must evict it at
    // the deadline and reassign the shard.
    let (leased_tx, leased_rx) = std::sync::mpsc::channel();
    let outcome = std::thread::scope(|scope| {
        let running = scope.spawn(|| sweep(&pool, &ctx, job(fp), None, false));
        let hung = scope.spawn(|| {
            let stream = raw_ready(&addr, fp, 0, Duration::from_secs(10));
            let mut s = &stream;
            match protocol::recv(&mut s).expect("pushed lease") {
                Message::Lease { .. } => {}
                other => panic!("expected a lease, got kind {}", other.kind()),
            }
            leased_tx.send(()).expect("signal the lease");
            // Hold the lease silently past the heartbeat deadline.
            std::thread::sleep(Duration::from_millis(1500));
        });
        // The hung worker takes the first lease before any real worker
        // joins.
        leased_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("hung worker holds a lease");
        let workers = spawn_workers(
            &addr,
            1,
            &net,
            &set,
            &WorkerOptions {
                heartbeat_interval: Duration::from_millis(50),
                ..Default::default()
            },
        );
        let outcome = running
            .join()
            .expect("sweep thread")
            .expect("sweep survives a hung worker");
        hung.join().expect("hung worker thread");
        pool.shutdown();
        for handle in workers {
            handle.join().expect("worker thread").expect("worker run");
        }
        outcome
    });
    assert!(outcome.evictions >= 1, "the hung lease was evicted");
    assert_bitwise_equal(&outcome.matrix, &reference, "after hung-worker eviction");
}

/// A worker whose lease loop outlasts the heartbeat timeout (kept alive
/// by heartbeats) stays pooled once it is idle again: the idle phase
/// measures silence from its own start, not from before the job.
#[test]
fn worker_stays_pooled_after_a_job_longer_than_the_heartbeat_timeout() {
    let _guard = test_guard();
    let (net, set) = setup();
    let ctx = context(&net, &set);
    let fp = ctx.fingerprint();
    let hb = Duration::from_millis(300);
    let pool = bind(PoolOptions {
        heartbeat_timeout: hb,
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let outcome = std::thread::scope(|scope| {
        let running = scope.spawn(|| sweep(&pool, &ctx, job(fp), None, false));
        // A hand-driven worker that holds its first lease for twice the
        // heartbeat timeout, heartbeating, and evaluates every shard.
        let stream = raw_ready(&addr, fp, 4, Duration::from_secs(10));
        let mut s = &stream;
        let mut net = net.clone();
        let mut held_long = false;
        loop {
            match protocol::recv(&mut s).expect("pushed lease or JobDone") {
                Message::Lease { lease, shard, .. } => {
                    if !held_long {
                        for _ in 0..4 {
                            std::thread::sleep(hb / 2);
                            protocol::send(&mut s, &Message::Heartbeat { lease })
                                .expect("heartbeat");
                        }
                        held_long = true;
                    }
                    let (records, stats) =
                        ctx.run_shard(&mut net, &set, shard, &Telemetry::disabled());
                    let done = Message::ShardDone {
                        lease,
                        shard,
                        records,
                        stats,
                        events: Vec::new(),
                    };
                    protocol::send(&mut s, &done).expect("shard done");
                }
                Message::JobDone => break,
                other => panic!("unexpected kind {}", other.kind()),
            }
        }
        // Idle between jobs, heartbeating well inside the timeout.
        for _ in 0..4 {
            std::thread::sleep(hb / 2);
            protocol::send(&mut s, &Message::Heartbeat { lease: 0 }).expect("idle heartbeat");
        }
        assert_eq!(pool.live_workers(), 1, "the idle worker is still pooled");
        running.join().expect("sweep thread").expect("sweep")
    });
    pool.shutdown();
    assert_eq!(outcome.evictions, 0);
    assert_eq!(outcome.workers.len(), 1);
}

#[test]
fn fingerprint_mismatch_worker_is_rejected() {
    let _guard = test_guard();
    let (net, set) = setup();
    let ctx = context(&net, &set);
    let fp = ctx.fingerprint();
    let pool = bind(PoolOptions::default());
    let addr = pool.worker_addr().to_string();

    let outcome = std::thread::scope(|scope| {
        let running = scope.spawn(|| sweep(&pool, &ctx, job(fp), None, false));
        // An impostor with a different configuration fingerprint must be
        // refused with a Reject frame naming both fingerprints.
        let impostor = scope.spawn(|| {
            let stream = raw_ready(&addr, fp ^ 0xFFFF, 1, Duration::from_secs(10));
            let mut s = &stream;
            match protocol::recv(&mut s).expect("reject reply") {
                Message::Reject { reason } => {
                    assert!(
                        reason.contains("fingerprint mismatch"),
                        "reject reason: {reason}"
                    );
                }
                other => panic!("expected Reject, got kind {}", other.kind()),
            }
        });
        // A worker announcing an incompatible protocol version is also
        // turned away before any job state is exchanged.
        let old_version = scope.spawn(|| {
            let stream = raw_hello(&addr, 99, 2);
            let mut s = &stream;
            match protocol::recv(&mut s).expect("reject reply") {
                Message::Reject { reason } => {
                    assert!(reason.contains("version"), "reject reason: {reason}");
                }
                other => panic!("expected Reject, got kind {}", other.kind()),
            }
        });
        impostor.join().expect("impostor thread");
        old_version.join().expect("old-version thread");
        // The honest worker joins only after both refusals, so the sweep
        // is still open when the impostor asks for its job.
        let workers = spawn_workers(&addr, 1, &net, &set, &WorkerOptions::default());
        let outcome = running
            .join()
            .expect("sweep thread")
            .expect("sweep completes");
        pool.shutdown();
        for handle in workers {
            handle.join().expect("worker thread").expect("worker run");
        }
        outcome
    });
    assert_eq!(outcome.rejected, 2, "both impostors were rejected");
    let reference = reference_matrix(&net, &set);
    assert_bitwise_equal(&outcome.matrix, &reference, "after rejected impostors");
}

#[test]
fn malformed_frames_never_disturb_the_sweep() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let ctx = context(&net, &set);
    let telemetry = Telemetry::new();
    let pool = bind(PoolOptions {
        telemetry: telemetry.clone(),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();

    // A rogue's gallery of malformed clients: garbage bytes, a
    // truncated frame, an oversized length header, and a corrupted
    // version field. Each must be dropped without panicking the pool or
    // corrupting the sweep.
    let heartbeat = Message::Heartbeat { lease: 0 };
    let mut good_frame = Vec::new();
    clado_dist::frame::write_frame(&mut good_frame, heartbeat.kind(), &heartbeat.encode())
        .expect("encode");
    let mut oversized = good_frame.clone();
    oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut bad_version = good_frame.clone();
    bad_version[4] = 0xFF;
    let payloads: Vec<Vec<u8>> = vec![
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        good_frame[..7].to_vec(),
        oversized,
        bad_version,
    ];
    let rogues: Vec<_> = payloads
        .into_iter()
        .map(|bytes| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                use std::io::Write;
                let mut stream = TcpStream::connect(&addr).expect("connect");
                stream.write_all(&bytes).expect("write garbage");
                // Close immediately; the pool should classify and drop
                // without waiting for its heartbeat deadline.
            })
        })
        .collect();
    let workers = spawn_workers(&addr, 2, &net, &set, &WorkerOptions::default());
    let outcome = sweep(&pool, &ctx, job(ctx.fingerprint()), None, false)
        .expect("sweep completes despite rogues");
    for rogue in rogues {
        rogue.join().expect("rogue thread");
    }
    finish(pool, workers);
    assert_bitwise_equal(&outcome.matrix, &reference, "after malformed frames");
    assert!(
        telemetry.counter_value("dist.pool.protocol_errors") >= 3,
        "malformed clients were counted: {}",
        telemetry.counter_value("dist.pool.protocol_errors")
    );
}

/// A handshaken worker that corrupts a frame while idle between jobs is
/// dropped and counted as a protocol error — the same classification
/// as a malformed frame during the handshake or mid-lease.
#[test]
fn corrupted_frame_from_an_idle_worker_is_a_protocol_error() {
    let _guard = test_guard();
    let telemetry = Telemetry::new();
    let pool = bind(PoolOptions {
        telemetry: telemetry.clone(),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let stream = raw_hello(&addr, clado_dist::PROTOCOL_VERSION, 3);
    let live_deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pool.live_workers() < 1 {
        assert!(
            std::time::Instant::now() < live_deadline,
            "worker goes live"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A well-formed heartbeat frame with one payload byte flipped: the
    // header parses, the checksum does not match.
    let heartbeat = Message::Heartbeat { lease: 0 };
    let mut frame = Vec::new();
    clado_dist::frame::write_frame(&mut frame, heartbeat.kind(), &heartbeat.encode())
        .expect("encode");
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    {
        use std::io::Write;
        (&stream).write_all(&frame).expect("write corrupted frame");
    }
    let counted_deadline = std::time::Instant::now() + Duration::from_secs(10);
    while telemetry.counter_value("dist.pool.protocol_errors") < 1 {
        assert!(
            std::time::Instant::now() < counted_deadline,
            "the corrupted idle frame is counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(pool.live_workers(), 0, "the corrupting worker was dropped");
    drop(stream);
    pool.shutdown();
    assert_eq!(telemetry.counter_value("dist.pool.protocol_errors"), 1);
}

/// A job posted to an idle pool is leased at once: the idle worker's
/// connection is woken by the post, not by its next heartbeat (10 s
/// apart here) or a timer. Each job is posted only after the worker has
/// taken the previous `JobDone`, so every dispatch starts from idle.
#[test]
fn a_job_posted_to_an_idle_worker_is_leased_at_once() {
    let _guard = test_guard();
    let (net, set) = setup();
    let ctx = context(&net, &set);
    let pool = bind(PoolOptions {
        heartbeat_timeout: Duration::from_secs(30),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let telemetry = Telemetry::new();
    let opts = WorkerOptions {
        heartbeat_interval: Duration::from_secs(10),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let workers = spawn_workers(&addr, 1, &net, &set, &opts);
    await_live_workers(&pool, 1);
    let mut delays = Vec::new();
    for done in 0..20 {
        let deadline = Instant::now() + Duration::from_secs(10);
        while telemetry.counter_value("dist.pool.jobs_completed") < done {
            assert!(Instant::now() < deadline, "the worker finishes job {done}");
            std::thread::sleep(Duration::from_millis(1));
        }
        let posted = Instant::now();
        let outcome = pool
            .run_job(
                base_job(ctx.fingerprint()),
                &mut JobControl::wait(Some(Duration::from_secs(60))),
            )
            .expect("one-shard job");
        let leased = outcome.first_lease.expect("the worker leased the shard");
        delays.push(leased.duration_since(posted));
    }
    finish(pool, workers);
    delays.sort();
    let median = delays[delays.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median dispatch delay {median:?} (all: {delays:?})"
    );
}

/// A worker leaves as soon as the pool says `Shutdown`: its heartbeat
/// thread is woken from its wait, not joined after a full interval.
#[test]
fn worker_exits_promptly_when_the_pool_shuts_down() {
    let _guard = test_guard();
    let pool = bind(PoolOptions {
        heartbeat_timeout: Duration::from_secs(30),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let opts = WorkerOptions {
        heartbeat_interval: Duration::from_secs(10),
        ..Default::default()
    };
    let worker =
        std::thread::spawn(move || run_worker(&addr, |_job| Err("no job is posted".into()), &opts));
    await_live_workers(&pool, 1);
    let shutdown = Instant::now();
    pool.shutdown();
    worker.join().expect("worker thread").expect("worker run");
    let took = shutdown.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "the worker took {took:?} to exit after Shutdown"
    );
}

/// With no worker, `run_job` ends at the instant that ends it — a 10 ms
/// deadline, a 20 ms idle limit, a cancel raised at +10 ms — and not at
/// the next tick of a timer: the median of 5 runs of each lands less
/// than 15 ms late.
#[test]
fn a_job_ends_at_its_deadline_idle_limit_or_cancel() {
    let _guard = test_guard();
    let pool = bind(PoolOptions::default());
    let ms = Duration::from_millis;
    for case in ["deadline", "idle limit", "cancel"] {
        let mut late = Vec::new();
        for _ in 0..5 {
            let cancel = AtomicBool::new(false);
            let posted = Instant::now();
            let mut control = JobControl {
                cancel: &cancel,
                deadline: None,
                fallback: Fallback::Wait(None),
                progress: Box::new(|_| {}),
            };
            let (result, due) = std::thread::scope(|scope| {
                let raised = match case {
                    "deadline" => {
                        control.deadline = Some(posted + ms(10));
                        None
                    }
                    "idle limit" => {
                        control.fallback = Fallback::Wait(Some(ms(20)));
                        None
                    }
                    _ => Some(scope.spawn(|| {
                        std::thread::sleep(ms(10));
                        let raised = Instant::now();
                        cancel.store(true, Ordering::SeqCst);
                        pool.notify_cancel();
                        raised
                    })),
                };
                let result = pool.run_job(base_job(1), &mut control);
                let due = match (raised, case) {
                    (Some(raiser), _) => raiser.join().expect("cancel thread"),
                    (None, "deadline") => posted + ms(10),
                    (None, _) => posted + ms(20),
                };
                (result, due)
            });
            let ended = Instant::now();
            match (case, &result) {
                ("deadline", Err(DistError::DeadlineExceeded))
                | ("idle limit", Err(DistError::NoWorkers { .. }))
                | ("cancel", Err(DistError::Canceled)) => {}
                _ => panic!("{case}: unexpected outcome {:?}", result.err()),
            }
            assert!(ended >= due, "{case}: the job ended before its instant");
            late.push(ended.duration_since(due));
        }
        late.sort();
        assert!(
            late[2] < ms(15),
            "{case}: median {:?} past its instant (all: {late:?})",
            late[2]
        );
    }
    pool.shutdown();
}

/// `Fallback::Wait`'s idle limit runs from when the last live worker
/// left, not from the job's post: a worker that holds its lease past the
/// limit, heartbeating, and then dies leaves the job the whole limit to
/// find another worker before it fails with `NoWorkers`.
#[test]
fn the_idle_limit_runs_from_when_the_last_worker_left() {
    let _guard = test_guard();
    let (net, set) = setup();
    let fp = context(&net, &set).fingerprint();
    let pool = bind(PoolOptions {
        heartbeat_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let addr = pool.worker_addr().to_string();
    let limit = Duration::from_millis(300);
    let (result, after_drop) = std::thread::scope(|scope| {
        let running = scope.spawn(|| {
            let result = pool.run_job(base_job(fp), &mut JobControl::wait(Some(limit)));
            (result, Instant::now())
        });
        let stream = raw_ready(&addr, fp, 8, Duration::from_secs(2));
        let mut s = &stream;
        let Message::Lease { lease, .. } = protocol::recv(&mut s).expect("a pushed lease") else {
            panic!("expected a lease");
        };
        // Hold the lease for twice the limit, heartbeating, then die.
        for _ in 0..6 {
            std::thread::sleep(limit / 3);
            protocol::send(&mut s, &Message::Heartbeat { lease }).expect("heartbeat");
        }
        let dropped = Instant::now();
        drop(stream);
        let (result, ended) = running.join().expect("job thread");
        (result, ended.duration_since(dropped))
    });
    pool.shutdown();
    assert!(
        matches!(result, Err(DistError::NoWorkers { waited }) if waited == limit),
        "expected NoWorkers, got {:?}",
        result.err()
    );
    assert!(
        after_drop >= limit && after_drop < limit + Duration::from_secs(2),
        "NoWorkers {after_drop:?} after the last worker left (limit {limit:?})"
    );
}

#[test]
fn killed_coordinator_resumes_losslessly_from_partial_journal() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let ctx = context(&net, &set);
    let dir = temp_dir("resume");

    // First pass: full distributed run with journaling.
    let pool = bind(PoolOptions::default());
    let addr = pool.worker_addr().to_string();
    let workers = spawn_workers(&addr, 2, &net, &set, &WorkerOptions::default());
    let first =
        sweep(&pool, &ctx, job(ctx.fingerprint()), Some(&dir), false).expect("journaled sweep");
    finish(pool, workers);
    assert_bitwise_equal(&first.matrix, &reference, "journaled distributed run");

    // Simulate the coordinator dying mid-sweep by deleting half the
    // committed shard files, then resume.
    let mut shards: Vec<_> = std::fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "clsj"))
        .collect();
    shards.sort();
    assert_eq!(shards.len(), 6, "one committed shard file per shard");
    for lost in shards.iter().rev().take(3) {
        std::fs::remove_file(lost).expect("delete shard");
    }

    let pool = bind(PoolOptions::default());
    let addr = pool.worker_addr().to_string();
    let workers = spawn_workers(&addr, 2, &net, &set, &WorkerOptions::default());
    let resumed =
        sweep(&pool, &ctx, job(ctx.fingerprint()), Some(&dir), true).expect("resumed sweep");
    finish(pool, workers);
    assert!(resumed.resumed > 0, "some probes came from the journal");
    assert!(
        resumed.matrix.stats.evaluations < reference.stats.evaluations,
        "resume re-evaluated only the lost shards"
    );
    assert_bitwise_equal(&resumed.matrix, &reference, "resumed distributed run");

    // A non-empty journal without resume stays a hard error, exactly
    // like the single-process engine.
    let pool = bind(PoolOptions::default());
    let err = sweep(&pool, &ctx, job(ctx.fingerprint()), Some(&dir), false)
        .expect_err("non-empty journal without resume must be refused");
    pool.shutdown();
    assert!(matches!(err, DistError::Journal(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_resume_finishes_a_single_process_checkpoint() {
    let _guard = test_guard();
    let (net, set) = setup();
    let dir = temp_dir("interop");

    // A *single-process* run journals the full sweep...
    let mut net1 = net.clone();
    let reference = measure_sensitivities(
        &mut net1,
        &set,
        &bits(),
        &SensitivityOptions {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .expect("single-process journaled run");

    // ...and a distributed sweep resumes it: zero re-evaluation,
    // bitwise-identical matrix. CLSJ journals are interchangeable
    // between the two engines.
    let ctx = context(&net, &set);
    let pool = bind(PoolOptions::default());
    let outcome = sweep(&pool, &ctx, job(ctx.fingerprint()), Some(&dir), true)
        .expect("fully-journaled sweep completes with no workers at all");
    pool.shutdown();
    assert_eq!(outcome.matrix.stats.evaluations, 0, "nothing re-evaluated");
    assert_eq!(outcome.resumed, reference.stats.evaluations);
    assert_bitwise_equal(&outcome.matrix, &reference, "single-process → distributed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_load_round_trip_preserves_distributed_matrix() {
    let _guard = test_guard();
    let (net, set) = setup();
    let ctx = context(&net, &set);
    let pool = bind(PoolOptions::default());
    let addr = pool.worker_addr().to_string();
    let workers = spawn_workers(&addr, 2, &net, &set, &WorkerOptions::default());
    let outcome = sweep(&pool, &ctx, job(ctx.fingerprint()), None, false).expect("sweep");
    finish(pool, workers);
    let path = std::env::temp_dir().join(format!("clado-dist-io-{}.clsm", std::process::id()));
    save_sensitivities(&outcome.matrix, &path).expect("save");
    let loaded = load_sensitivities(&path).expect("load");
    assert_bitwise_equal(&loaded, &outcome.matrix, "clsm round trip");
    std::fs::remove_file(&path).ok();
}

#[test]
fn assembly_reports_missing_probes_when_sweep_is_incomplete() {
    let _guard = test_guard();
    let (net, set) = setup();
    let ctx = context(&net, &set);
    let err = ctx
        .assemble(&std::collections::HashMap::new())
        .expect_err("no records");
    assert!(matches!(err, MeasureError::MissingProbes { .. }), "{err}");
}
