//! End-to-end fault-injection tests of the `clado serve` daemon over
//! loopback TCP: Ω-cache hits are bitwise identical with zero probe
//! evaluations, overload and infeasible deadlines shed with *typed*
//! rejections (never timeouts or crashes), a worker killed mid-request
//! costs a retry but not the request, and a drain under load finishes
//! in-flight work while refusing late submitters.
//!
//! Every test takes the fault-injection `test_guard`, which serializes
//! the suite: the fault registry is process-global, so a fault armed
//! for one test must never fire inside another's workers.

use clado_core::{
    measure_sensitivities, sensitivities_from_bytes, SensitivityMatrix, SensitivityOptions,
};
use clado_dist::{run_worker, WorkerOptions};
use clado_models::{DataSplit, SynthVision, SynthVisionConfig};
use clado_nn::Network;
use clado_quant::BitWidthSet;
use clado_serve::protocol::FailKind;
use clado_serve::{
    submit, DrainHandle, MeasureSpec, ModelProvider, Op, RejectReason, ServeError, ServeMessage,
    ServeOptions, ServeReport, Server, SubmitRequest,
};
use clado_telemetry::faultinject::{self, test_guard, FaultSpec};
use clado_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// The canonical request spec matching [`setup`]'s model and set.
fn spec() -> MeasureSpec {
    MeasureSpec {
        model: "synthetic".into(),
        set_size: 16,
        set_seed: 0,
        batch_size: 64,
        bits: vec![2, 8],
        scheme: 0,
        use_prefix_cache: true,
        estimator: 0,
        probe_budget: 0,
        estimator_seed: 0,
    }
}

fn measure_request(spec: MeasureSpec) -> SubmitRequest {
    SubmitRequest {
        spec,
        op: Op::Measure,
        deadline_ms: 0,
    }
}

/// A provider that always hands out clones of the synthetic model —
/// server- and worker-side alike, so config fingerprints agree. The
/// template network lives behind a mutex because `ModelProvider` must
/// be `Sync` and `Network` is not.
fn provider_of(net: &Network, set: &DataSplit) -> ModelProvider {
    let net = Mutex::new(net.clone());
    let set = set.clone();
    Arc::new(move |_spec: &MeasureSpec| Ok((net.lock().unwrap().clone(), set.clone())))
}

fn reference_matrix(net: &Network, set: &DataSplit) -> SensitivityMatrix {
    let mut net = net.clone();
    measure_sensitivities(
        &mut net,
        set,
        &BitWidthSet::new(&[2, 8]),
        &SensitivityOptions::default(),
    )
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

/// Binds a server, returns its client address, drain flag, and the
/// join handle of the thread running it.
fn start(
    provider: ModelProvider,
    opts: ServeOptions,
) -> (
    String,
    String,
    DrainHandle,
    std::thread::JoinHandle<Result<ServeReport, ServeError>>,
) {
    let server =
        Server::bind("127.0.0.1:0", "127.0.0.1:0", provider, opts).expect("bind serve daemon");
    let client = server.client_addr().to_string();
    let worker = server.worker_addr().to_string();
    let drain = server.drain_handle();
    let handle = std::thread::spawn(move || server.run());
    (client, worker, drain, handle)
}

fn drain_and_join(
    drain: &DrainHandle,
    handle: std::thread::JoinHandle<Result<ServeReport, ServeError>>,
) -> ServeReport {
    drain.raise();
    handle
        .join()
        .expect("server thread")
        .expect("daemon drains cleanly")
}

#[test]
fn repeat_config_is_served_from_cache_bitwise_identical_with_zero_evaluations() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), ServeOptions::default());

    // First request: a genuine measurement (cache miss).
    let first = submit(&addr, &measure_request(spec()), None).expect("first submit");
    let (first_clsm, first_evals) = match first.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            clsm,
            ..
        } => {
            assert!(!cache_hit, "first request cannot hit the cache");
            assert!(evaluations > 0, "a fresh measure pays probe evaluations");
            (clsm, evaluations)
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    };
    assert_eq!(
        first_evals, reference.stats.evaluations as u64,
        "served measurement pays the same evaluations as single-process"
    );
    let served = sensitivities_from_bytes(&first_clsm).expect("served CLSM decodes");
    assert_bitwise_equal(&served, &reference, "served measurement");

    // Second request, identical config: a cache hit, zero probe
    // evaluations, and a byte-for-byte identical CLSM image.
    let second = submit(&addr, &measure_request(spec()), None).expect("second submit");
    match second.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            clsm,
            ..
        } => {
            assert!(cache_hit, "repeat config must hit the Ω cache");
            assert_eq!(evaluations, 0, "a cache hit pays zero probe evaluations");
            assert_eq!(clsm, first_clsm, "cache hit is bitwise identical");
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }

    // Any config field change misses and re-measures.
    let changed = MeasureSpec {
        set_seed: 1,
        ..spec()
    };
    let third = submit(&addr, &measure_request(changed), None).expect("third submit");
    match third.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            ..
        } => {
            assert!(!cache_hit, "a changed config field must miss");
            assert!(evaluations > 0, "a miss re-measures");
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.requests, 3);
    assert_eq!(report.completed, 3);
    assert_eq!(report.failed, 0);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.cache_misses, 2);
}

/// The daemon blocks in `accept` rather than polling it, so a
/// closed-loop client's next cache hit is answered at once: the median of
/// 20 sequential hits stays under 2 ms (a 5 ms accept poll put it near
/// 5 ms).
#[test]
fn sequential_cache_hits_do_not_wait_for_an_accept_poll() {
    let _guard = test_guard();
    let (net, set) = setup();
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), ServeOptions::default());
    submit(&addr, &measure_request(spec()), None).expect("warming miss");
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let hit = submit(&addr, &measure_request(spec()), None).expect("hit");
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            assert!(matches!(
                hit.response,
                ServeMessage::MeasureDone {
                    cache_hit: true,
                    ..
                }
            ));
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(median < 2.0, "median hit {median:.2} ms, all {ms:.2?}");
    let report = drain_and_join(&drain, handle);
    assert_eq!(report.cache_hits, 20);
}

#[test]
fn estimated_measure_misses_the_exact_cache_and_matches_single_process() {
    let _guard = test_guard();
    let (net, set) = setup();
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), ServeOptions::default());

    // Exact measurement seeds the cache.
    let exact = submit(&addr, &measure_request(spec()), None).expect("exact submit");
    let exact_clsm = match exact.response {
        ServeMessage::MeasureDone {
            cache_hit, clsm, ..
        } => {
            assert!(!cache_hit, "first request cannot hit the cache");
            clsm
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    };

    // Same model, same config — but estimated. The estimator fields are
    // part of the spec fingerprint, so this MUST miss the exact entry.
    let est_spec = MeasureSpec {
        estimator: 3, // blocktopk
        probe_budget: 0,
        estimator_seed: clado_estim::DEFAULT_ESTIMATOR_SEED,
        ..spec()
    };
    let est = submit(&addr, &measure_request(est_spec.clone()), None).expect("estimated submit");
    let est_clsm = match est.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            clsm,
            ..
        } => {
            assert!(
                !cache_hit,
                "an estimated request must never be served a cached exact Ω"
            );
            assert!(evaluations > 0, "estimation pays probe evaluations");
            clsm
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    };
    assert_ne!(est_clsm, exact_clsm, "estimated Ω differs from exact");
    let served = sensitivities_from_bytes(&est_clsm).expect("served CLSM decodes");
    assert_eq!(
        served.stats.provenance.estimator, 3,
        "served CLSM records the estimator provenance"
    );

    // The daemon's local estimation path is bitwise identical to the
    // single-process estimator under the same kind and budget.
    let single = clado_estim::estimate_sensitivities(
        &mut net.clone(),
        &set,
        &BitWidthSet::new(&[2, 8]),
        &clado_estim::EstimatorOptions::new(clado_estim::EstimatorKind::BlockTopK),
    )
    .expect("single-process estimate");
    assert_bitwise_equal(&served, &single.matrix, "served estimation");

    // Repeating the estimated request hits its own cache entry.
    let again = submit(&addr, &measure_request(est_spec.clone()), None).expect("repeat estimated");
    match again.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            clsm,
            ..
        } => {
            assert!(cache_hit, "repeat estimated config must hit the Ω cache");
            assert_eq!(evaluations, 0);
            assert_eq!(clsm, est_clsm, "cache hit is bitwise identical");
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }

    // A different probe budget for the same model misses again.
    let other_budget = MeasureSpec {
        probe_budget: 40,
        ..est_spec
    };
    let third = submit(&addr, &measure_request(other_budget), None).expect("budget submit");
    match third.response {
        ServeMessage::MeasureDone { cache_hit, .. } => {
            assert!(!cache_hit, "a different probe budget must miss");
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.requests, 4);
    assert_eq!(report.completed, 4);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.cache_misses, 3);
}

/// Each pool round of a miss records its own dispatch delay: an
/// estimated miss on a one-worker pool runs two rounds and records two
/// `serve.pool.dispatch` samples, and its Ω still matches the
/// single-process estimator bitwise.
#[test]
fn a_pooled_estimated_miss_records_a_dispatch_sample_per_round() {
    let _guard = test_guard();
    let (net, set) = setup();
    let telemetry = Telemetry::new();
    let (addr, worker_addr, drain, handle) = start(
        provider_of(&net, &set),
        ServeOptions {
            telemetry: telemetry.clone(),
            ..ServeOptions::default()
        },
    );
    let worker = {
        let (net, set) = (net.clone(), set.clone());
        std::thread::spawn(move || {
            run_worker(
                &worker_addr,
                move |_job| Ok((net.clone(), set.clone())),
                &WorkerOptions::default(),
            )
        })
    };
    let connect_deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.counter_value("dist.pool.workers_connected") < 1 {
        assert!(Instant::now() < connect_deadline, "the worker connects");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Base + diagonal take 7 probes; a budget of 13 leaves pair probes
    // for the second round.
    let budget = 13;
    let est_spec = MeasureSpec {
        estimator: 3, // blocktopk
        probe_budget: budget as u64,
        estimator_seed: clado_estim::DEFAULT_ESTIMATOR_SEED,
        ..spec()
    };
    let outcome = submit(&addr, &measure_request(est_spec), None).expect("estimated submit");
    let ServeMessage::MeasureDone {
        cache_hit, clsm, ..
    } = outcome.response
    else {
        panic!("expected MeasureDone, got kind {}", outcome.response.kind());
    };
    assert!(!cache_hit);
    let single = clado_estim::estimate_sensitivities(
        &mut net.clone(),
        &set,
        &BitWidthSet::new(&[2, 8]),
        &clado_estim::EstimatorOptions {
            probe_budget: budget,
            ..clado_estim::EstimatorOptions::new(clado_estim::EstimatorKind::BlockTopK)
        },
    )
    .expect("single-process estimate");
    let served = sensitivities_from_bytes(&clsm).expect("served CLSM decodes");
    assert_bitwise_equal(&served, &single.matrix, "pooled estimation");
    assert!(
        telemetry.counter_value("dist.pool.shards_completed") > 0,
        "the worker measured, not local takeover"
    );
    let dispatch = telemetry
        .histograms()
        .into_iter()
        .find(|(name, _)| name == "serve.pool.dispatch");
    assert_eq!(
        dispatch.map(|(_, h)| h.count),
        Some(2),
        "one dispatch sample per pool round"
    );

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.completed, 1);
    worker
        .join()
        .expect("worker thread")
        .expect("worker shuts down cleanly");
}

/// The retired adaptive estimator's tag (2) names no estimator any
/// more: an estimated spec that carries it is shed at admission as
/// `Malformed`, like the other retired tags, and measures nothing.
#[test]
fn a_retired_estimator_tag_is_shed_as_malformed() {
    let _guard = test_guard();
    let (net, set) = setup();
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), ServeOptions::default());
    let adaptive = MeasureSpec {
        estimator: clado_core::OmegaProvenance::TAG_ADAPTIVE,
        probe_budget: 0,
        estimator_seed: clado_estim::DEFAULT_ESTIMATOR_SEED,
        ..spec()
    };
    match submit(&addr, &measure_request(adaptive), None) {
        Err(ServeError::Rejected { reason, detail }) => {
            assert_eq!(reason, RejectReason::Malformed);
            assert!(
                detail.contains("unknown estimator tag 2"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("expected a Malformed rejection, got {other:?}"),
    }
    let report = drain_and_join(&drain, handle);
    assert_eq!(report.shed_malformed, 1);
    assert_eq!(report.completed, 0);
    assert_eq!(report.cache_misses, 0);
}

#[test]
fn assign_and_sweep_solve_against_the_cached_omega() {
    let _guard = test_guard();
    let (net, set) = setup();
    let layers = net.quantizable_layers().len();
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), ServeOptions::default());

    let assign = submit(
        &addr,
        &SubmitRequest {
            spec: spec(),
            op: Op::Assign { avg_bits: 4.0 },
            deadline_ms: 0,
        },
        None,
    )
    .expect("assign submit");
    match assign.response {
        ServeMessage::AssignDone { cache_hit, row, .. } => {
            assert!(!cache_hit);
            assert_eq!(row.bits.len(), layers, "one width per quantizable layer");
            assert!(row.bits.iter().all(|b| [2u8, 8].contains(b)));
            assert!(row.avg_bits <= 4.0 + 1e-9, "budget respected");
            assert!(row.cost_bits > 0);
            assert!(!row.method.is_empty() && !row.termination.is_empty());
        }
        other => panic!("expected AssignDone, got kind {}", other.kind()),
    }

    // The sweep reuses the Ω measured for the assign: same fingerprint,
    // so the whole table costs zero additional probe evaluations.
    let sweep = submit(
        &addr,
        &SubmitRequest {
            spec: spec(),
            op: Op::Sweep {
                from: 2.0,
                to: 8.0,
                step: 2.0,
            },
            deadline_ms: 0,
        },
        None,
    )
    .expect("sweep submit");
    match sweep.response {
        ServeMessage::SweepDone {
            cache_hit,
            evaluations,
            rows,
            ..
        } => {
            assert!(cache_hit, "sweep reuses the assign's measurement");
            assert_eq!(evaluations, 0);
            assert_eq!(rows.len(), 4, "budgets 2, 4, 6, 8");
            for pair in rows.windows(2) {
                assert!(
                    pair[0].cost_bits <= pair[1].cost_bits,
                    "larger budgets never shrink the chosen model"
                );
            }
        }
        other => panic!("expected SweepDone, got kind {}", other.kind()),
    }

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.completed, 2);
    assert_eq!(report.cache_hits, 1);
}

/// A provider gate: the test waits for a measurement to enter the
/// provider, then decides when to let it proceed.
struct Gate {
    state: Mutex<u32>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    /// Called from the provider: announce entry, block until released.
    fn enter(&self) {
        let mut s = self.state.lock().unwrap();
        *s = 1;
        self.cv.notify_all();
        while *s != 2 {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn wait_entered(&self) {
        let mut s = self.state.lock().unwrap();
        while *s == 0 {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap();
        *s = 2;
        self.cv.notify_all();
    }
}

#[test]
fn flood_past_the_queue_depth_is_shed_with_typed_overload_rejections() {
    let _guard = test_guard();
    let (net, set) = setup();
    let gate = Gate::new();
    let provider: ModelProvider = {
        let net = Mutex::new(net.clone());
        let set = set.clone();
        let gate = Arc::clone(&gate);
        Arc::new(move |_spec: &MeasureSpec| {
            gate.enter();
            Ok((net.lock().unwrap().clone(), set.clone()))
        })
    };
    let (addr, _w, drain, handle) = start(
        provider,
        ServeOptions {
            queue_depth: 1,
            executors: 1,
            ..ServeOptions::default()
        },
    );

    // Request 1 occupies the single executor (blocked in the provider).
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || submit(&addr, &measure_request(spec()), None))
    };
    gate.wait_entered();

    // Flood the daemon. The executor is pinned and the queue holds one
    // request, so the admission lock admits exactly one of these and
    // sheds the other five with the typed Overloaded rejection — not a
    // timeout, not a crash.
    let settled = Arc::new(AtomicUsize::new(0));
    let flood: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            let settled = Arc::clone(&settled);
            std::thread::spawn(move || {
                let r = submit(&addr, &measure_request(spec()), None);
                if r.is_err() {
                    settled.fetch_add(1, Ordering::SeqCst);
                }
                r
            })
        })
        .collect();

    // A malformed request sheds as Malformed even under load.
    let malformed = SubmitRequest {
        spec: MeasureSpec {
            bits: vec![],
            ..spec()
        },
        op: Op::Measure,
        deadline_ms: 0,
    };
    match submit(&addr, &malformed, None) {
        Err(ServeError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::Malformed)
        }
        other => panic!("expected Malformed rejection, got {other:?}"),
    }

    // Wait until all five rejections have settled — a straggler that
    // reached admission only after the gate opened would find the queue
    // slot free again and be admitted instead of shed.
    while settled.load(Ordering::SeqCst) < 5 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Admitted work still completes once the gate opens.
    gate.release();
    let mut admitted = 0;
    let mut shed = 0;
    for handle in flood {
        match handle.join().expect("flood thread") {
            Ok(outcome) => {
                assert!(matches!(outcome.response, ServeMessage::MeasureDone { .. }));
                admitted += 1;
            }
            Err(ServeError::Rejected { reason, detail }) => {
                assert_eq!(reason, RejectReason::Overloaded, "{detail}");
                assert!(
                    detail.contains("depth 1"),
                    "detail names the bound: {detail}"
                );
                shed += 1;
            }
            Err(e) => panic!("typed rejection expected, got {e}"),
        }
    }
    assert_eq!(admitted, 1, "exactly one flood request fit the queue");
    assert_eq!(shed, 5, "the rest were shed");
    let outcome = first
        .join()
        .expect("submit thread")
        .expect("the in-flight request completes");
    assert!(matches!(outcome.response, ServeMessage::MeasureDone { .. }));

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.completed, 2);
    assert_eq!(report.shed_overload, 5, "{report:?}");
    assert_eq!(report.shed_malformed, 1);
}

#[test]
fn deadlines_are_enforced_and_infeasible_ones_shed_at_admission() {
    let _guard = test_guard();
    let (net, set) = setup();
    let provider: ModelProvider = {
        let net = Mutex::new(net.clone());
        let set = set.clone();
        Arc::new(move |_spec: &MeasureSpec| {
            // Guarantee an observable service time, so the EWMA-based
            // feasibility check has something real to refuse against.
            std::thread::sleep(Duration::from_millis(50));
            Ok((net.lock().unwrap().clone(), set.clone()))
        })
    };
    let (addr, _w, drain, handle) = start(
        provider,
        ServeOptions {
            executors: 1,
            ..ServeOptions::default()
        },
    );

    // No service history yet: the 30 ms deadline is admitted — and then
    // enforced mid-request with a typed failure, not a hang.
    let doomed = submit(
        &addr,
        &SubmitRequest {
            spec: spec(),
            op: Op::Measure,
            deadline_ms: 30,
        },
        None,
    )
    .expect("doomed request is admitted and answered");
    match doomed.response {
        ServeMessage::Failed { kind, detail, .. } => {
            assert_eq!(kind, FailKind::DeadlineExceeded, "{detail}");
        }
        other => panic!("expected DeadlineExceeded, got kind {}", other.kind()),
    }

    // Service history now exists (≥ 50 ms): a 1 ms deadline is shed at
    // admission as DeadlineInfeasible instead of being admitted to die.
    match submit(
        &addr,
        &SubmitRequest {
            spec: spec(),
            op: Op::Measure,
            deadline_ms: 1,
        },
        None,
    ) {
        Err(ServeError::Rejected { reason, detail }) => {
            assert_eq!(reason, RejectReason::DeadlineInfeasible, "{detail}");
            assert!(detail.contains("deadline 1 ms"), "{detail}");
        }
        other => panic!("expected DeadlineInfeasible rejection, got {other:?}"),
    }

    // Deadline-free requests are untouched by the history.
    let relaxed = submit(&addr, &measure_request(spec()), None).expect("relaxed submit");
    assert!(matches!(relaxed.response, ServeMessage::MeasureDone { .. }));

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 1);
    assert_eq!(report.shed_deadline, 1);
}

#[cfg(debug_assertions)]
#[test]
fn killed_worker_mid_request_is_retried_on_the_survivor_bitwise_identical() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let telemetry = Telemetry::new();
    // Exactly one pooled worker dies the moment it starts its second
    // shard (skip 1 so the request is mid-flight), lease held — the
    // serve-side analogue of a SIGKILL.
    faultinject::arm("dist.worker.shard", FaultSpec::panic().skip(1).times(1));
    let (addr, worker_addr, drain, handle) = start(
        provider_of(&net, &set),
        ServeOptions {
            heartbeat_timeout: Duration::from_millis(1000),
            telemetry: telemetry.clone(),
            ..ServeOptions::default()
        },
    );
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let worker_addr = worker_addr.clone();
            let net = net.clone();
            let set = set.clone();
            std::thread::spawn(move || {
                run_worker(
                    &worker_addr,
                    move |_job| Ok((net.clone(), set.clone())),
                    &WorkerOptions {
                        heartbeat_interval: Duration::from_millis(50),
                        ..Default::default()
                    },
                )
            })
        })
        .collect();
    // Let both workers finish the handshake before submitting, so the
    // shards actually fan out across the pool.
    let connect_deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.counter_value("dist.pool.workers_connected") < 2 {
        assert!(Instant::now() < connect_deadline, "workers connect");
        std::thread::sleep(Duration::from_millis(10));
    }

    let outcome =
        submit(&addr, &measure_request(spec()), None).expect("request survives a killed worker");
    match outcome.response {
        ServeMessage::MeasureDone {
            cache_hit, clsm, ..
        } => {
            assert!(!cache_hit);
            let served = sensitivities_from_bytes(&clsm).expect("served CLSM decodes");
            assert_bitwise_equal(&served, &reference, "after worker death");
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }
    assert!(
        faultinject::hits("dist.worker.shard") >= 2,
        "skip=1 + fire=1"
    );
    assert!(
        telemetry.counter_value("dist.pool.evictions") >= 1,
        "the dead worker was evicted"
    );
    let dispatch = telemetry
        .histograms()
        .into_iter()
        .find(|(name, _)| name == "serve.pool.dispatch");
    assert_eq!(
        dispatch.map(|(_, h)| h.count),
        Some(1),
        "the miss recorded its pool dispatch delay once"
    );

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    let results: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
    let panicked = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(panicked, 1, "exactly one worker thread died");
}

/// A pooled worker whose provider builds a different sensitivity set
/// reconstructed another configuration: the pool refuses and counts it,
/// and the request completes on the honest worker — bitwise identical
/// to the in-process reference.
#[test]
fn mismatched_pool_worker_is_refused_and_the_request_completes() {
    let _guard = test_guard();
    let (net, set) = setup();
    let reference = reference_matrix(&net, &set);
    let telemetry = Telemetry::new();
    let (addr, worker_addr, drain, handle) = start(
        provider_of(&net, &set),
        ServeOptions {
            telemetry: telemetry.clone(),
            ..ServeOptions::default()
        },
    );
    let opts = WorkerOptions {
        heartbeat_interval: Duration::from_millis(50),
        ..Default::default()
    };
    // 12 of the 16 samples: a different set size, so a different
    // configuration fingerprint.
    let short_set = set.subset(&(0..12).collect::<Vec<_>>());
    let mismatched = {
        let (worker_addr, net, opts) = (worker_addr.clone(), net.clone(), opts.clone());
        std::thread::spawn(move || {
            run_worker(
                &worker_addr,
                move |_job| Ok((net.clone(), short_set.clone())),
                &opts,
            )
        })
    };
    // The honest worker takes its time rebuilding the model, so the
    // mismatched one reaches `Ready` first, while the request is open.
    let honest = {
        let (worker_addr, net, set) = (worker_addr.clone(), net.clone(), set.clone());
        std::thread::spawn(move || {
            run_worker(
                &worker_addr,
                move |_job| {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok((net.clone(), set.clone()))
                },
                &opts,
            )
        })
    };
    let connect_deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.counter_value("dist.pool.workers_connected") < 2 {
        assert!(Instant::now() < connect_deadline, "workers connect");
        std::thread::sleep(Duration::from_millis(10));
    }

    let outcome = submit(&addr, &measure_request(spec()), None)
        .expect("request survives the mismatched worker");
    match outcome.response {
        ServeMessage::MeasureDone {
            cache_hit, clsm, ..
        } => {
            assert!(!cache_hit);
            let served = sensitivities_from_bytes(&clsm).expect("served CLSM decodes");
            assert_bitwise_equal(&served, &reference, "with a mismatched worker");
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }
    assert_eq!(
        telemetry.counter_value("dist.pool.rejected_workers"),
        1,
        "exactly the mismatched worker was refused"
    );

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    assert!(
        mismatched
            .join()
            .expect("mismatched worker thread")
            .is_err(),
        "the refused worker ends with an error"
    );
    honest
        .join()
        .expect("honest worker thread")
        .expect("honest worker shuts down cleanly");
}

#[test]
fn drain_under_load_finishes_inflight_work_and_refuses_late_submitters() {
    let _guard = test_guard();
    let (net, set) = setup();
    let gate = Gate::new();
    let provider: ModelProvider = {
        let net = Mutex::new(net.clone());
        let set = set.clone();
        let gate = Arc::clone(&gate);
        Arc::new(move |_spec: &MeasureSpec| {
            gate.enter();
            Ok((net.lock().unwrap().clone(), set.clone()))
        })
    };
    let (addr, _w, drain, handle) = start(provider, ServeOptions::default());

    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || submit(&addr, &measure_request(spec()), None))
    };
    gate.wait_entered();

    // Drain lands while the request is mid-measure.
    drain.raise();
    match submit(&addr, &measure_request(spec()), None) {
        Err(ServeError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::Draining)
        }
        other => panic!("expected Draining rejection, got {other:?}"),
    }

    gate.release();
    let outcome = inflight
        .join()
        .expect("submit thread")
        .expect("in-flight request completes through the drain");
    assert!(matches!(outcome.response, ServeMessage::MeasureDone { .. }));

    let report = handle.join().expect("server thread").expect("clean drain");
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    assert_eq!(report.shed_draining, 1);
}

/// A unique scratch directory for persistent-cache tests.
fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "clado-serve-e2e-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_options(dir: &std::path::Path) -> ServeOptions {
    ServeOptions {
        cache_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    }
}

fn clso_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|e| e == "clso"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn restarted_daemon_serves_the_persisted_omega_with_zero_evaluations() {
    let _guard = test_guard();
    let (net, set) = setup();
    let dir = temp_cache_dir("restart");

    // Generation 0: a genuine measurement, spilled to disk.
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), durable_options(&dir));
    let first = submit(&addr, &measure_request(spec()), None).expect("first submit");
    let first_clsm = match first.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            clsm,
            ..
        } => {
            assert!(!cache_hit);
            assert!(evaluations > 0);
            clsm
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    };
    // Progress frames are best-effort: a measure this small can finish
    // before the pool waiter observes an interim state. When one did
    // arrive it must be well-formed against the probe plan.
    if let Some((done, total)) = first.progress {
        assert!(total > 0 && done <= total, "progress {done}/{total}");
    }
    assert_eq!(
        clso_files(&dir).len(),
        1,
        "the measurement was committed to the cache directory"
    );
    drain_and_join(&drain, handle);

    // Generation 1: a fresh daemon over the same directory answers the
    // repeat config from the warm-loaded persistent cache — zero probe
    // evaluations, byte-identical CLSM — without ever re-measuring.
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), durable_options(&dir));
    let second = submit(&addr, &measure_request(spec()), None).expect("post-restart submit");
    match second.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            clsm,
            ..
        } => {
            assert!(cache_hit, "the persisted entry must be served as a hit");
            assert_eq!(evaluations, 0, "a persistent hit pays zero evaluations");
            assert_eq!(clsm, first_clsm, "bitwise identical across the restart");
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }
    assert!(second.progress.is_none(), "cache hits stream no progress");

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.requests, 1);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.cache_misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_persisted_entry_is_quarantined_and_remeasured_not_fatal() {
    let _guard = test_guard();
    let (net, set) = setup();
    let dir = temp_cache_dir("corrupt");

    let (addr, _w, drain, handle) = start(provider_of(&net, &set), durable_options(&dir));
    let first = submit(&addr, &measure_request(spec()), None).expect("first submit");
    let first_clsm = match first.response {
        ServeMessage::MeasureDone { clsm, .. } => clsm,
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    };
    drain_and_join(&drain, handle);

    // Bit-rot the committed entry.
    let files = clso_files(&dir);
    assert_eq!(files.len(), 1);
    let mut data = std::fs::read(&files[0]).expect("read committed entry");
    let mid = data.len() / 2;
    data[mid] ^= 0x40;
    std::fs::write(&files[0], &data).expect("corrupt committed entry");

    // The restarted daemon quarantines the entry (at warm-load) and
    // re-measures on request — same bytes as the original measurement,
    // and the store is healthy again afterwards.
    let telemetry = Telemetry::new();
    let (addr, _w, drain, handle) = start(
        provider_of(&net, &set),
        ServeOptions {
            telemetry: telemetry.clone(),
            ..durable_options(&dir)
        },
    );
    assert!(
        telemetry.counter_value("serve.disk_cache.quarantined") >= 1,
        "warm-load quarantined the corrupt entry"
    );
    let again = submit(&addr, &measure_request(spec()), None).expect("re-measure submit");
    let remeasured_clsm = match again.response {
        ServeMessage::MeasureDone {
            cache_hit,
            evaluations,
            clsm,
            ..
        } => {
            assert!(!cache_hit, "the quarantined entry must not be served");
            assert!(evaluations > 0, "the config was re-measured");
            clsm
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    };
    // The semantic payload (Ĝ, base loss) matches the original
    // measurement exactly; only the wall-clock stats block may differ.
    assert_bitwise_equal(
        &sensitivities_from_bytes(&remeasured_clsm).expect("re-measured CLSM decodes"),
        &sensitivities_from_bytes(&first_clsm).expect("original CLSM decodes"),
        "re-measurement",
    );
    assert_eq!(clso_files(&dir).len(), 1, "the entry was re-committed");
    drain_and_join(&drain, handle);

    // One more restart proves the re-committed entry is valid: a hit,
    // bitwise identical to the reply that re-populated it.
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), durable_options(&dir));
    let third = submit(&addr, &measure_request(spec()), None).expect("third submit");
    match third.response {
        ServeMessage::MeasureDone {
            cache_hit, clsm, ..
        } => {
            assert!(cache_hit);
            assert_eq!(clsm, remeasured_clsm);
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }
    drain_and_join(&drain, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exact_and_estimated_entries_survive_a_restart_without_colliding() {
    let _guard = test_guard();
    let (net, set) = setup();
    let dir = temp_cache_dir("provenance");
    let est_spec = MeasureSpec {
        estimator: 3, // blocktopk
        probe_budget: 0,
        estimator_seed: clado_estim::DEFAULT_ESTIMATOR_SEED,
        ..spec()
    };

    let (addr, _w, drain, handle) = start(provider_of(&net, &set), durable_options(&dir));
    let clsm_of = |outcome: clado_serve::SubmitOutcome, label: &str| match outcome.response {
        ServeMessage::MeasureDone { clsm, .. } => clsm,
        other => panic!("{label}: expected MeasureDone, got kind {}", other.kind()),
    };
    let exact_clsm = clsm_of(
        submit(&addr, &measure_request(spec()), None).expect("exact submit"),
        "exact",
    );
    let est_clsm = clsm_of(
        submit(&addr, &measure_request(est_spec.clone()), None).expect("estimated submit"),
        "estimated",
    );
    assert_ne!(exact_clsm, est_clsm);
    assert_eq!(clso_files(&dir).len(), 2, "one committed entry each");
    drain_and_join(&drain, handle);

    // After the restart each request is served its own provenance —
    // the estimated request must never receive the exact Ω or vice
    // versa, across process death just as within one process.
    let (addr, _w, drain, handle) = start(provider_of(&net, &set), durable_options(&dir));
    for (req_spec, want, label) in [
        (spec(), &exact_clsm, "exact"),
        (est_spec.clone(), &est_clsm, "estimated"),
    ] {
        let outcome = submit(&addr, &measure_request(req_spec), None).expect("post-restart submit");
        match outcome.response {
            ServeMessage::MeasureDone {
                cache_hit,
                evaluations,
                clsm,
                ..
            } => {
                assert!(cache_hit, "{label}: persisted entry hits");
                assert_eq!(evaluations, 0, "{label}");
                assert_eq!(&clsm, want, "{label}: correct provenance served");
            }
            other => panic!("{label}: expected MeasureDone, got kind {}", other.kind()),
        }
    }
    let report = drain_and_join(&drain, handle);
    assert_eq!(report.cache_hits, 2);
    assert_eq!(report.cache_misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warmed daemon: client address, drain handle, server join handle,
/// and the cached CLSM bytes its Ω cache will serve.
type WarmDaemon = (
    String,
    DrainHandle,
    std::thread::JoinHandle<Result<ServeReport, ServeError>>,
    Vec<u8>,
);

/// Populates a daemon's Ω cache so a follow-up submit round-trips in
/// exactly three frames (client Submit, server Accepted, server
/// response) — the deterministic frame count the wire-fault tests key
/// their `skip` windows on.
fn warm_daemon(net: &Network, set: &DataSplit) -> WarmDaemon {
    let (addr, _w, drain, handle) = start(provider_of(net, set), ServeOptions::default());
    let first = submit(&addr, &measure_request(spec()), None).expect("warm-up submit");
    let clsm = match first.response {
        ServeMessage::MeasureDone { clsm, .. } => clsm,
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    };
    (addr, drain, handle, clsm)
}

#[cfg(debug_assertions)]
#[test]
fn corrupted_response_frame_surfaces_the_typed_checksum_error_and_the_daemon_recovers() {
    let _guard = test_guard();
    let (net, set) = setup();
    let (addr, drain, handle, clsm) = warm_daemon(&net, &set);

    // Frames after arming: 1 = client Submit, 2 = server Accepted,
    // 3 = server MeasureDone — the one the fault flips a checksum bit in.
    faultinject::arm("wire.write.corrupt", FaultSpec::trigger().skip(2).times(1));
    match submit(
        &addr,
        &measure_request(spec()),
        Some(Duration::from_secs(10)),
    ) {
        Err(ServeError::Frame(clado_dist::FrameError::BadChecksum)) => {}
        other => panic!("expected the typed BadChecksum error, got {other:?}"),
    }

    // The fault window is spent; the daemon recovers the very next
    // request, still bitwise identical.
    let retry = submit(&addr, &measure_request(spec()), None).expect("recovered request");
    match retry.response {
        ServeMessage::MeasureDone {
            cache_hit, clsm: c, ..
        } => {
            assert!(cache_hit);
            assert_eq!(c, clsm);
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }
    let report = drain_and_join(&drain, handle);
    assert_eq!(report.failed, 0, "a garbled write is not a request failure");
}

#[cfg(debug_assertions)]
#[test]
fn truncated_response_frame_surfaces_a_typed_disconnect_and_the_daemon_recovers() {
    let _guard = test_guard();
    let (net, set) = setup();
    let (addr, drain, handle, clsm) = warm_daemon(&net, &set);

    // The server's response write ships half the frame and breaks the
    // pipe, as if the daemon died mid-`write_all`.
    faultinject::arm("wire.write.truncate", FaultSpec::trigger().skip(2).times(1));
    match submit(
        &addr,
        &measure_request(spec()),
        Some(Duration::from_secs(10)),
    ) {
        Err(e @ (ServeError::Frame(_) | ServeError::Io(_))) => {
            assert!(
                !matches!(&e, ServeError::Frame(f) if !f.is_disconnect()),
                "a mid-frame truncation reads as a disconnect: {e}"
            );
        }
        other => panic!("expected a typed disconnect error, got {other:?}"),
    }

    let retry = submit(&addr, &measure_request(spec()), None).expect("recovered request");
    match retry.response {
        ServeMessage::MeasureDone {
            cache_hit, clsm: c, ..
        } => {
            assert!(cache_hit);
            assert_eq!(c, clsm);
        }
        other => panic!("expected MeasureDone, got kind {}", other.kind()),
    }
    drain_and_join(&drain, handle);
}

#[cfg(debug_assertions)]
#[test]
fn dropped_connection_after_admission_is_typed_and_the_daemon_recovers() {
    let _guard = test_guard();
    let (net, set) = setup();
    let (addr, drain, handle, _clsm) = warm_daemon(&net, &set);

    // The connection resets right as the server writes the response: the
    // client saw `Accepted`, then a clean close — never a hang.
    faultinject::arm("wire.write.drop", FaultSpec::trigger().skip(2).times(1));
    match submit(
        &addr,
        &measure_request(spec()),
        Some(Duration::from_secs(10)),
    ) {
        Err(ServeError::Frame(f)) => assert!(f.is_disconnect(), "typed disconnect: {f}"),
        Err(ServeError::Io(_)) => {}
        other => panic!("expected a typed disconnect error, got {other:?}"),
    }

    let retry = submit(&addr, &measure_request(spec()), None).expect("recovered request");
    assert!(matches!(retry.response, ServeMessage::MeasureDone { .. }));
    drain_and_join(&drain, handle);
}

#[cfg(debug_assertions)]
#[test]
fn delayed_admission_write_is_tolerated_within_the_response_timeout() {
    let _guard = test_guard();
    let (net, set) = setup();
    let (addr, drain, handle, _clsm) = warm_daemon(&net, &set);

    // The server's `Accepted` write stalls 300 ms — a live but silent
    // writer. The client's windows (30 s admission, 10 s response)
    // absorb it; the request completes normally, just later.
    faultinject::arm(
        "wire.write.delay",
        FaultSpec::trigger().skip(1).times(1).arg(300),
    );
    let started = Instant::now();
    let outcome = submit(
        &addr,
        &measure_request(spec()),
        Some(Duration::from_secs(10)),
    )
    .expect("delayed request still completes");
    assert!(matches!(outcome.response, ServeMessage::MeasureDone { .. }));
    assert!(
        started.elapsed() >= Duration::from_millis(300),
        "the injected stall was real: {:?}",
        started.elapsed()
    );
    drain_and_join(&drain, handle);
}

#[test]
fn silent_client_trips_the_handshake_timeout_not_a_hang() {
    let _guard = test_guard();
    let (net, set) = setup();
    let telemetry = Telemetry::new();
    let (addr, _w, drain, handle) = start(
        provider_of(&net, &set),
        ServeOptions {
            heartbeat_timeout: Duration::from_millis(200),
            telemetry: telemetry.clone(),
            ..ServeOptions::default()
        },
    );

    // Connect and say nothing: the admission read must expire with the
    // typed handshake timeout, freeing the thread.
    let silent = std::net::TcpStream::connect(&addr).expect("connect");
    let timeout_deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.counter_value("serve.handshake_timeouts") < 1 {
        assert!(Instant::now() < timeout_deadline, "handshake timeout fires");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(silent);

    // The daemon is unharmed: a real request still round-trips.
    let outcome = submit(&addr, &measure_request(spec()), None).expect("real request");
    assert!(matches!(outcome.response, ServeMessage::MeasureDone { .. }));

    let report = drain_and_join(&drain, handle);
    assert_eq!(report.completed, 1);
}
