//! `serve-mixed`: a `clado serve` daemon with two pool workers and an
//! empty Ω cache directory, driven by two closed-loop clients. Most
//! requests are repeat-config hits on resnet34-mini; a fixed number are
//! cold misses at distinct set seeds, half exact and half estimated.

use crate::plan::{self, Loaded};
use crate::util::{
    bitmap_hash, corrupted, median, omega_mismatches, percentile, read_manifest, secs, signal,
    wait_or_kill, Reaped, Report, Rng, SIGTERM,
};
use crate::{Ctx, Outcome};
use clado_core::{
    assign_bits, quantized_accuracy, sensitivities_from_bytes, sensitivities_to_bytes,
    AssignOptions, SensitivityMatrix, SensitivityOptions, SensitivityStats,
};
use clado_estim::{
    estimate_sensitivities, EstimatorKind, EstimatorOptions, DEFAULT_ESTIMATOR_SEED,
};
use clado_models::ModelKind;
use clado_quant::{BitWidth, LayerSizes, QuantScheme};
use clado_serve::{MeasureSpec, Op, ServeMessage, SubmitRequest};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon spawns timed per run for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;
/// Budget of every `assign` hit; other budgets are solved by the
/// `sweep` hits.
const ASSIGN_BITS: f64 = 4.0;
/// The 7-budget `sweep` hit: 2.5 to 5.5 average bits in steps of 0.5.
const SWEEP: Op = Op::Sweep {
    from: 2.5,
    to: 5.5,
    step: 0.5,
};
/// Every budget the daemon solves in this workload.
pub const BUDGETS: [f64; 7] = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5];
/// Light hits are this share `measure`, the rest `assign`.
const P_MEASURE: f64 = 0.95;
/// Misses are due evenly over this share of the window; the rest is
/// left to `sweep` hits.
const MISS_SPAN: f64 = 0.75;

/// Set seed of the repeat (hit) config. Fixed, so the solver work a hit
/// costs is the same on every seed; the seed varies the request mix and
/// the misses.
const HIT_SET_SEED: u64 = 0;

/// Set seed of the `i`-th cold miss of a run: distinct from the hit
/// config's seed and from every other miss.
pub fn miss_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x1_0000).wrapping_add(1 + i as u64)
}

fn spec(set_size: usize, set_seed: u64, estimated: bool) -> MeasureSpec {
    MeasureSpec {
        model: "resnet34".into(),
        set_size: set_size as u64,
        set_seed,
        batch_size: clado_core::PROBE_BATCH as u64,
        bits: vec![2, 4, 8],
        scheme: clado_dist::scheme_to_u8(QuantScheme::PerTensorSymmetric),
        use_prefix_cache: true,
        estimator: if estimated {
            EstimatorKind::BlockTopK.tag()
        } else {
            0
        },
        probe_budget: 0,
        estimator_seed: if estimated { DEFAULT_ESTIMATOR_SEED } else { 0 },
    }
}

/// A running daemon with the lines it has printed so far.
struct Daemon {
    child: Reaped,
    addr: String,
    stdout: Arc<Mutex<Vec<String>>>,
    readers: Vec<std::thread::JoinHandle<()>>,
}

enum Event {
    Addr(String),
    Joined,
}

/// Spawns `clado serve --workers 2` and waits until it accepts requests
/// and both pool workers have joined; returns the daemon and that time.
fn spawn_daemon(
    ctx: &Ctx,
    cache_dir: &Path,
    metrics: Option<&Path>,
) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let mut cmd = Command::new(&ctx.clado);
    cmd.args([
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--worker-listen",
        "127.0.0.1:0",
    ])
    .args([
        "--workers",
        "2",
        "--verbose",
        "--no-progress",
        "--cache-dir",
    ])
    .arg(cache_dir)
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    if let Some(m) = metrics {
        cmd.arg("--metrics-out").arg(m);
    }
    let mut child = Reaped(
        cmd.spawn()
            .map_err(|e| format!("spawning clado serve: {e}"))?,
    );
    let (tx, rx) = mpsc::channel();
    let stdout = Arc::new(Mutex::new(Vec::new()));
    let out = child.0.stdout.take().expect("stdout piped");
    let err = child.0.stderr.take().expect("stderr piped");
    let (tx_out, lines) = (tx.clone(), Arc::clone(&stdout));
    let readers = vec![
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(a) = line.strip_prefix("serve listening on ") {
                    let _ = tx_out.send(Event::Addr(a.trim().to_string()));
                }
                lines
                    .lock()
                    .expect("no reader panics holding the lines")
                    .push(line);
            }
        }),
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(err).lines().map_while(Result::ok) {
                if line.contains("joined the pool") {
                    let _ = tx.send(Event::Joined);
                }
            }
        }),
    ];
    let (mut addr, mut joined) = (None, 0);
    while addr.is_none() || joined < 2 {
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Event::Addr(a)) => addr = Some(a),
            Ok(Event::Joined) => joined += 1,
            Err(_) => return Err("daemon never became ready".into()),
        }
    }
    let ready = secs(t0);
    Ok((
        Daemon {
            child,
            addr: addr.expect("set above"),
            stdout,
            readers,
        },
        ready,
    ))
}

/// SIGTERMs the daemon, waits for its drain, and returns its
/// `serve drained: …` report line.
fn stop(mut d: Daemon) -> Option<String> {
    signal(&d.child.0, SIGTERM);
    let clean = wait_or_kill(&mut d.child.0, Duration::from_secs(60));
    // The pipes close once the daemon and its workers are gone.
    for r in d.readers.drain(..) {
        let _ = r.join();
    }
    let lines = d
        .stdout
        .lock()
        .expect("no reader panics holding the lines")
        .clone();
    lines
        .into_iter()
        .find(|l| l.starts_with("serve drained:"))
        .filter(|_| clean)
}

fn submit(addr: &str, spec: &MeasureSpec, op: Op) -> Result<ServeMessage, String> {
    let req = SubmitRequest {
        spec: spec.clone(),
        op,
        deadline_ms: 0,
    };
    match clado_serve::submit(addr, &req, Some(Duration::from_secs(120))) {
        Ok(o) => match o.response {
            ServeMessage::Failed { kind, detail, .. } => Err(format!("{kind:?}: {detail}")),
            r => Ok(r),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// The reply with request identity, cache provenance, and the CLSM
/// measurement-stats block zeroed, so every answer for one config must
/// encode identically (the normalization `clado chaos` applies).
fn comparable(msg: &ServeMessage) -> Vec<u8> {
    let mut m = msg.clone();
    match &mut m {
        ServeMessage::MeasureDone {
            request_id,
            cache_hit,
            evaluations,
            clsm,
        } => {
            if let Ok(mut sens) = sensitivities_from_bytes(clsm) {
                sens.stats = SensitivityStats {
                    provenance: sens.stats.provenance,
                    ..Default::default()
                };
                *clsm = sensitivities_to_bytes(&sens);
            }
            (*request_id, *cache_hit, *evaluations) = (0, false, 0);
        }
        ServeMessage::AssignDone {
            request_id,
            cache_hit,
            evaluations,
            ..
        }
        | ServeMessage::SweepDone {
            request_id,
            cache_hit,
            evaluations,
            ..
        } => (*request_id, *cache_hit, *evaluations) = (0, false, 0),
        _ => {}
    }
    m.encode()
}

fn evaluations(msg: &ServeMessage) -> u64 {
    match msg {
        ServeMessage::MeasureDone { evaluations, .. }
        | ServeMessage::AssignDone { evaluations, .. }
        | ServeMessage::SweepDone { evaluations, .. } => *evaluations,
        _ => 0,
    }
}

fn cache_hit(msg: &ServeMessage) -> bool {
    matches!(
        msg,
        ServeMessage::MeasureDone {
            cache_hit: true,
            ..
        } | ServeMessage::AssignDone {
            cache_hit: true,
            ..
        } | ServeMessage::SweepDone {
            cache_hit: true,
            ..
        }
    )
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Measure,
    Assign,
    Sweep,
    Exact,
    Estimated,
}

struct Rec {
    kind: Kind,
    latency_s: f64,
    ok: bool,
    evaluations: u64,
}

/// Shared state of the two clients: the first answer per config key and
/// every completed request.
#[derive(Default)]
struct Stream {
    golden: HashMap<String, Vec<u8>>,
    recs: Vec<Rec>,
    mismatches: u64,
    errors: Vec<String>,
}

impl Stream {
    fn record(
        &mut self,
        kind: Kind,
        key: String,
        latency_s: f64,
        reply: Result<ServeMessage, String>,
        expect_hit: bool,
    ) {
        let (ok, evals) = match reply {
            Ok(msg) => {
                let bytes = comparable(&msg);
                let golden = self.golden.entry(key).or_insert_with(|| bytes.clone());
                let same = *golden == bytes && cache_hit(&msg) == expect_hit;
                self.mismatches += u64::from(!same);
                (same, evaluations(&msg))
            }
            Err(e) => {
                self.errors.push(e);
                (false, 0)
            }
        };
        self.recs.push(Rec {
            kind,
            latency_s,
            ok,
            evaluations: evals,
        });
    }
}

fn op_key(op: &Op, spec: &MeasureSpec) -> String {
    format!("{op:?}|{:016x}", spec.fingerprint())
}

/// One closed-loop client. Client 0 sends light hits for the whole
/// window. Client 1 sends the run's cold misses, each due at a fixed
/// point in the first `MISS_SPAN` of the window, with light hits between
/// them; then `sweep` hits (solver-bound) until the window ends, at least
/// one. While a miss is in flight client 0 holds off (`in_miss`), so the
/// miss has the host's cores to its pool workers: on a 2-core host, hit
/// traffic beside a miss would time the scheduler rather than the pool.
fn client(
    ctx: &Ctx,
    addr: &str,
    id: u64,
    hit: &MeasureSpec,
    stream: &Mutex<Stream>,
    in_miss: &AtomicBool,
    start: Instant,
) {
    let mut rng = Rng::new(ctx.seed.wrapping_mul(31).wrapping_add(id));
    let misses = if id == 1 { ctx.sizes.misses } else { 0 };
    let (mut next_miss, mut sweeps) = (0, 0);
    loop {
        if id == 0 && in_miss.load(Ordering::Acquire) {
            if secs(start) >= ctx.seconds {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let now = secs(start);
        let miss_due =
            next_miss < misses && now >= next_miss as f64 * MISS_SPAN * ctx.seconds / misses as f64;
        if miss_due {
            let estimated = next_miss % 2 == 1;
            let s = spec(
                ctx.sizes.miss_set,
                miss_seed(ctx.seed, next_miss),
                estimated,
            );
            // A `measure`, so the latency is the pool's: the solve time of
            // an IQP differs a lot between Ω instances, and the `sweep`
            // hits time the solver on a fixed one.
            let op = Op::Measure;
            let key = op_key(&op, &s);
            in_miss.store(true, Ordering::Release);
            let t = Instant::now();
            let reply = submit(addr, &s, op);
            let latency_s = secs(t);
            in_miss.store(false, Ordering::Release);
            let kind = if estimated {
                Kind::Estimated
            } else {
                Kind::Exact
            };
            stream
                .lock()
                .expect("stream")
                .record(kind, key, latency_s, reply, false);
            next_miss += 1;
            continue;
        }
        // Every miss falls due before the window ends (`MISS_SPAN` < 1) and
        // is sent even when an earlier one ran late, so each run has the
        // same number of misses.
        let sweep = id == 1 && next_miss == misses;
        if now >= ctx.seconds && !(sweep && sweeps == 0) {
            return;
        }
        let (kind, op) = if sweep {
            sweeps += 1;
            (Kind::Sweep, SWEEP)
        } else if rng.unit() < P_MEASURE {
            (Kind::Measure, Op::Measure)
        } else {
            (
                Kind::Assign,
                Op::Assign {
                    avg_bits: ASSIGN_BITS,
                },
            )
        };
        let key = op_key(&op, hit);
        let t = Instant::now();
        let reply = submit(addr, hit, op);
        stream
            .lock()
            .expect("stream")
            .record(kind, key, secs(t), reply, true);
    }
}

fn latencies(recs: &[Rec], kinds: &[Kind]) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.ok && kinds.contains(&r.kind))
        .map(|r| r.latency_s)
        .collect()
}

/// In-process single-thread reference Ω of the repeat config (index 0)
/// and of every miss config (index `i + 1` for miss `i`), two at a time.
fn references(ctx: &Ctx, rn: &Loaded) -> Vec<Result<SensitivityMatrix, String>> {
    let (train, hit_set) = (&rn.p.data.train, &rn.set);
    let measure = SensitivityOptions {
        threads: 1,
        ..Default::default()
    };
    plan::in_parallel(&rn.p.network, 1 + ctx.sizes.misses, 2, |net, j| {
        let bits = plan::bits();
        let r = match j.checked_sub(1) {
            None => clado_core::measure_sensitivities(net, hit_set, &bits, &measure),
            Some(i) => {
                let set = train.sample_subset(ctx.sizes.miss_set, miss_seed(ctx.seed, i));
                if i % 2 == 1 {
                    estimate_sensitivities(
                        net,
                        &set,
                        &bits,
                        &EstimatorOptions {
                            measure: measure.clone(),
                            ..EstimatorOptions::new(EstimatorKind::BlockTopK)
                        },
                    )
                    .map(|e| e.matrix)
                } else {
                    clado_core::measure_sensitivities(net, &set, &bits, &measure)
                }
            }
        };
        r.map_err(|e| e.to_string())
    })
}

fn served_omega(addr: &str, s: &MeasureSpec) -> Result<SensitivityMatrix, String> {
    match submit(addr, s, Op::Measure)? {
        ServeMessage::MeasureDone { clsm, .. } => {
            sensitivities_from_bytes(&clsm).map_err(|e| e.to_string())
        }
        _ => Err("unexpected reply to measure".into()),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut report = Report::default();
    let dirs: Vec<PathBuf> = (0..SETUP_REPS)
        .map(|i| ctx.work.join(format!("omega-cache-{i}")))
        .collect();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
        let _ = std::fs::create_dir_all(d);
    }
    let manifest = ctx.work.join("serve-manifest.json");
    let _ = std::fs::remove_file(&manifest);

    // Setup: spawn → accepting with both workers joined, several times;
    // the last daemon (over a fresh, empty cache dir) serves the stream.
    let mut ready = Vec::new();
    let mut daemon = None;
    for (i, d) in dirs.iter().enumerate() {
        let last = i + 1 == dirs.len();
        match spawn_daemon(
            ctx,
            d,
            last.then_some(manifest.as_path()).filter(|_| ctx.trace),
        ) {
            Ok((dm, s)) => {
                ready.push(s);
                if last {
                    daemon = Some(dm);
                } else {
                    stop(dm);
                }
            }
            Err(e) => {
                report.note(format!("setup: {e}"));
                return Outcome::failed(report, 1);
            }
        }
    }
    report.timing("setup_s", &ready, "s");
    let daemon = daemon.expect("last daemon kept");
    let addr = daemon.addr.clone();

    // Warm the repeat config (its one miss is not part of the stream).
    let hit = spec(ctx.sizes.hit_set, HIT_SET_SEED, false);
    let mut stream = Stream::default();
    let warm: Vec<(Op, Result<ServeMessage, String>)> = [
        Op::Measure,
        Op::Assign {
            avg_bits: ASSIGN_BITS,
        },
    ]
    .into_iter()
    .map(|op| (op.clone(), submit(&addr, &hit, op)))
    .collect();
    let mut served_hit_omega = None;
    let mut served_plan4 = None;
    for (op, reply) in &warm {
        match reply {
            Ok(msg) => {
                stream.golden.insert(op_key(op, &hit), comparable(msg));
                match msg {
                    ServeMessage::MeasureDone { clsm, .. } => {
                        served_hit_omega = sensitivities_from_bytes(clsm).ok()
                    }
                    ServeMessage::AssignDone { row, .. } => served_plan4 = Some(row.bits.clone()),
                    _ => {}
                }
            }
            Err(e) => report.note(format!("warm-up {op:?} failed: {e}")),
        }
    }

    let stream = Mutex::new(stream);
    let in_miss = AtomicBool::new(false);
    let t_stream = Instant::now();
    std::thread::scope(|s| {
        for id in 0..2 {
            let (addr, hit, stream, in_miss) = (&addr, &hit, &stream, &in_miss);
            s.spawn(move || client(ctx, addr, id, hit, stream, in_miss, t_stream));
        }
    });
    let stream_s = secs(t_stream);
    let stream = stream.into_inner().expect("stream");

    // Served Ω of every miss config (now cache hits), for the bitwise
    // comparison against in-process references below.
    let served_miss: Vec<Result<SensitivityMatrix, String>> = (0..ctx.sizes.misses)
        .map(|i| {
            served_omega(
                &addr,
                &spec(ctx.sizes.miss_set, miss_seed(ctx.seed, i), i % 2 == 1),
            )
        })
        .collect();
    let drained = stop(daemon);

    let recs = &stream.recs;
    let attempted = recs.len() as u64;
    let mut failed = recs.iter().filter(|r| !r.ok).count() as u64;
    for e in stream.errors.iter().take(5) {
        report.note(format!("request failed: {e}"));
    }
    report.note(format!(
        "stream: {} requests in {stream_s:.3} s, {} golden mismatches; daemon: {}",
        recs.len(),
        stream.mismatches,
        drained.as_deref().unwrap_or("no clean drain")
    ));
    if drained.is_none() {
        failed += 1;
    }

    // Correctness: the repeat config's Ω and 4-bit plan against the
    // in-process single-thread reference; each miss's Ω likewise.
    let mut rn = plan::load(ModelKind::ResNet34, ctx.sizes.hit_set, HIT_SET_SEED);
    let t_ref = Instant::now();
    let mut refs = references(ctx, &rn).into_iter().map(|r| {
        r.map(|r| {
            if ctx.corrupt_reference {
                corrupted(&r)
            } else {
                r
            }
        })
    });
    report.note(format!(
        "{} single-thread reference sweeps, 2 at a time: {:.3} s",
        1 + ctx.sizes.misses,
        secs(t_ref)
    ));
    let reference = refs.next().expect("repeat config reference");
    let mut problems: Vec<String> = Vec::new();
    let sizes = LayerSizes::new(rn.p.network.layer_param_counts());
    let mut plan_acc = None;
    match (&reference, &served_hit_omega, &served_plan4) {
        (Ok(reference), Some(served), Some(plan4)) => {
            let bad = omega_mismatches(served, reference);
            if bad > 0 {
                problems.push(format!("{bad} Ω entries of the repeat config differ"));
            }
            let local = assign_bits(
                reference,
                &sizes,
                sizes.budget_from_avg_bits(ASSIGN_BITS),
                &AssignOptions::default(),
            )
            .map(|a| a.bits.iter().map(|b| b.bits()).collect::<Vec<u8>>());
            if local.as_ref() != Ok(plan4) {
                problems.push("served 4-bit plan differs from the in-process plan".into());
            }
            let assignment: Vec<BitWidth> = plan4.iter().map(|&b| BitWidth::of(b)).collect();
            plan_acc = Some(quantized_accuracy(
                &mut rn.p.network,
                &assignment,
                QuantScheme::PerTensorSymmetric,
                &rn.p.data.val,
            ));
            report.note(format!(
                "plan 4-bit bitmap {plan4:?} hash {:016x}",
                bitmap_hash(plan4)
            ));
        }
        _ => problems.push("repeat config has no reference or no served answer".into()),
    }
    for (i, (served, reference)) in served_miss.iter().zip(refs).enumerate() {
        let bad = match (served, reference) {
            (Ok(s), Ok(r)) => omega_mismatches(s, &r),
            _ => 1,
        };
        if bad > 0 {
            problems.push(format!("miss {i}: {bad} Ω entries differ"));
        }
    }
    failed += problems.len() as u64;
    for p in problems {
        report.note(format!("correctness: {p}"));
    }

    let exact = latencies(recs, &[Kind::Exact]);
    let rate: Vec<f64> = recs
        .iter()
        .filter(|r| r.ok && r.kind == Kind::Exact)
        .map(|r| r.evaluations as f64 / r.latency_s)
        .collect();
    let (Some(acc), false) = (plan_acc, exact.is_empty()) else {
        report.note("no exact miss or no served plan");
        return Outcome::failed(report, attempted.max(1));
    };
    report.timing("plan_s", &exact, "s");
    report.timing("probes_per_s", &rate, "1/s");
    report.set("plan_acc_pct", acc * 100.0, "%");

    // The daemon's user-facing latencies (per-layer list: no bound).
    let ms = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    let hits = ms(latencies(recs, &[Kind::Measure, Kind::Assign]));
    if !hits.is_empty() {
        report.details.push(format!(
            "serve_hit_ms: {}",
            crate::util::describe(&hits, "ms")
        ));
        report.set("serve_hit_p50_ms", median(&hits), "ms");
        report.set("serve_hit_p99_ms", percentile(&hits, 99.0), "ms");
    }
    for (name, kinds, unit, scale) in [
        ("serve_sweep_p50_ms", &[Kind::Sweep], "ms", 1e3),
        ("serve_miss_p50_s", &[Kind::Exact], "s", 1.0),
        ("serve_est_miss_p50_s", &[Kind::Estimated], "s", 1.0),
        ("serve.service_ms.measure", &[Kind::Measure], "ms", 1e3),
        ("serve.service_ms.assign", &[Kind::Assign], "ms", 1e3),
        ("serve.service_ms.sweep", &[Kind::Sweep], "ms", 1e3),
    ] {
        let v: Vec<f64> = latencies(recs, kinds)
            .into_iter()
            .map(|x| x * scale)
            .collect();
        if !v.is_empty() {
            report.timing(name, &v, unit);
        }
    }
    report.set(
        "serve_rps",
        recs.iter().filter(|r| r.ok).count() as f64 / stream_s,
        "1/s",
    );

    let mut out = Outcome::new(report, attempted, failed);
    if ctx.trace {
        out.untraced_mark();
        manifest_costs(&manifest, stream_s, &mut out.report);
        crate::layers::collect(ctx, &mut rn, &mut out);
    }
    out
}

/// `serve.*` per-layer costs from the daemon's drain manifest.
fn manifest_costs(path: &Path, stream_s: f64, r: &mut Report) {
    use crate::util::manifest_num as num;
    let Some(m) = read_manifest(path) else {
        r.note("serve: no drain manifest");
        return;
    };
    let p50_ms = |h: &str| num(&m, &["histograms", h, "p50_us"]).unwrap_or(0.0) / 1e3;
    r.set("serve.queue_wait_ms", p50_ms("serve.queue_wait"), "ms");
    r.set(
        "serve.pool.shard_service_ms",
        p50_ms("serve.pool.shard_service"),
        "ms",
    );
    let hits = num(&m, &["counters", "serve.cache_hits"]).unwrap_or(0.0);
    let misses = num(&m, &["counters", "serve.cache_misses"]).unwrap_or(0.0);
    r.set(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let shard = |k: &str| num(&m, &["histograms", "serve.pool.shard_service", k]).unwrap_or(0.0);
    let busy_s = shard("count") * shard("mean_us") / 1e6;
    r.set("serve.pool.busy_frac", busy_s / (2.0 * stream_s), "ratio");
    r.set(
        "serve.shed",
        num(&m, &["gauges", "serve.shed_total"]).unwrap_or(0.0),
        "count",
    );
}
