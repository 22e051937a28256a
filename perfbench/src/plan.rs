//! The two time-to-plan workloads: a trained model is measured (in
//! process on `nproc` threads, or sharded over `clado measure --workers
//! 2`), then planned at three budgets and each plan's fake-quant
//! accuracy evaluated.

use crate::util::{bitmap_hash, corrupted, omega_mismatches, read_manifest, secs, Report};
use crate::{Ctx, Outcome};
use clado_core::{
    assign_bits, load_sensitivities, measure_sensitivities, quantized_accuracy, AssignOptions,
    SensitivityMatrix, SensitivityOptions,
};
use clado_models::{pretrained, DataSplit, ModelKind, Pretrained};
use clado_nn::Network;
use clado_quant::{BitWidthSet, LayerSizes, QuantScheme};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Average-bit budgets every plan workload solves.
pub const BUDGETS: [f64; 3] = [3.0, 4.0, 5.0];
/// Index of the 4-bit plan in [`BUDGETS`].
const PLAN_4BIT: usize = 1;
/// Loads timed per run for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;

/// A trained model with its sensitivity set.
pub struct Loaded {
    pub kind: ModelKind,
    pub p: Pretrained,
    pub set: DataSplit,
    pub set_seed: u64,
}

/// Loads the trained model from the on-disk cache and draws the
/// sensitivity set; this is what `setup_s` times for the plan workloads.
pub fn load(kind: ModelKind, set_size: usize, set_seed: u64) -> Loaded {
    let p = pretrained(kind);
    let set = p
        .data
        .train
        .sample_subset(set_size.min(p.data.train.len()), set_seed);
    Loaded {
        kind,
        p,
        set,
        set_seed,
    }
}

/// Loads `reps` times, returning the last load and every duration.
fn timed_load(kind: ModelKind, set_size: usize, set_seed: u64, reps: usize) -> (Loaded, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(load(kind, set_size, set_seed));
        times.push(secs(t));
    }
    (last.expect("at least one load"), times)
}

/// The candidate bit-widths 𝔹 of every workload.
pub fn bits() -> BitWidthSet {
    BitWidthSet::new(&[2, 4, 8])
}

/// The exact in-process sweep with telemetry off.
pub fn sweep(l: &mut Loaded, threads: usize) -> Result<SensitivityMatrix, String> {
    let opts = SensitivityOptions {
        threads,
        ..Default::default()
    };
    measure_sensitivities(&mut l.p.network, &l.set, &bits(), &opts).map_err(|e| e.to_string())
}

/// Single-thread reference sweeps of `sets`, `workers` of them running
/// side by side on their own copies of the network.
fn references_parallel(
    net: &Network,
    sets: &[DataSplit],
    workers: usize,
) -> Vec<Result<SensitivityMatrix, String>> {
    let opts = SensitivityOptions {
        threads: 1,
        ..Default::default()
    };
    in_parallel(net, sets.len(), workers, |net, i| {
        measure_sensitivities(net, &sets[i], &bits(), &opts).map_err(|e| e.to_string())
    })
}

/// Runs `job(net, i)` for every `i < n`, `workers` jobs side by side,
/// each worker on its own copy of the network; results come back in
/// index order.
pub fn in_parallel<F>(
    net: &Network,
    n: usize,
    workers: usize,
    job: F,
) -> Vec<Result<SensitivityMatrix, String>>
where
    F: Fn(&mut Network, usize) -> Result<SensitivityMatrix, String> + Sync,
{
    let mut out: Vec<_> = (0..n).map(|_| Err(String::new())).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let mut net = net.clone();
                let job = &job;
                s.spawn(move || {
                    (w..n)
                        .step_by(workers.max(1))
                        .map(|i| (i, job(&mut net, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("reference sweeps do not panic") {
                out[i] = r;
            }
        }
    });
    out
}

/// One solved budget with the accuracy of its fake-quantized model.
struct Plan {
    bits: Vec<u8>,
    acc: f64,
}

/// Solves every budget in [`BUDGETS`] and evaluates each plan on the
/// validation split.
fn plan_all(sm: &SensitivityMatrix, l: &mut Loaded) -> Result<Vec<Plan>, String> {
    let sizes = LayerSizes::new(l.p.network.layer_param_counts());
    BUDGETS
        .iter()
        .map(|&avg| {
            let a = assign_bits(
                sm,
                &sizes,
                sizes.budget_from_avg_bits(avg),
                &AssignOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            let acc = quantized_accuracy(
                &mut l.p.network,
                &a.bits,
                QuantScheme::PerTensorSymmetric,
                &l.p.data.val,
            );
            Ok(Plan {
                bits: a.bits.iter().map(|b| b.bits()).collect(),
                acc,
            })
        })
        .collect()
}

/// Runs `clado measure --workers 2` and loads the Ω it writes.
fn dist_measure(ctx: &Ctx, l: &Loaded, out: &Path) -> Result<SensitivityMatrix, String> {
    let _ = std::fs::remove_file(out);
    let res = Command::new(&ctx.clado)
        .args([
            "measure",
            "--model",
            l.kind.id(),
            "--bits",
            "2,4,8",
            "--quiet",
        ])
        .args(["--set-size", &l.set.len().to_string()])
        .args(["--set-seed", &l.set_seed.to_string()])
        .args(["--workers", "2", "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning clado measure: {e}"))?;
    if !res.status.success() {
        return Err(format!(
            "clado measure failed: {}",
            String::from_utf8_lossy(&res.stderr).trim()
        ));
    }
    load_sensitivities(out).map_err(|e| e.to_string())
}

struct Rep {
    set: usize,
    sm: SensitivityMatrix,
    sweep_s: f64,
    plan_s: f64,
    plans: Vec<Plan>,
}

/// Sensitivity sets per run. Repeats cycle through them, so a run's
/// median spans several Ω (and IQP instances) drawn from its seed rather
/// than resting on one.
const SETS_PER_RUN: u64 = 4;

/// `plan-resnet34` (in process) or `plan-vit-dist` (`measure --workers 2`).
pub fn run(ctx: &Ctx, kind: ModelKind, set_size: usize, dist: bool) -> Outcome {
    let mut report = Report::default();
    let mut failed = 0u64;
    let set_seeds: Vec<u64> = (0..SETS_PER_RUN)
        .map(|i| ctx.seed.wrapping_mul(SETS_PER_RUN).wrapping_add(i))
        .collect();
    let (mut l, setup) = timed_load(kind, set_size, set_seeds[0], SETUP_REPS);
    report.timing("setup_s", &setup, "s");
    let sets: Vec<DataSplit> = set_seeds
        .iter()
        .map(|&s| l.p.data.train.sample_subset(l.set.len(), s))
        .collect();
    let use_set = |l: &mut Loaded, i: usize| {
        l.set = sets[i].clone();
        l.set_seed = set_seeds[i];
    };
    let omega_path = ctx.work.join("omega.clsm");

    let window = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut attempted = 0u64;
    while attempted == 0 || secs(window) < ctx.seconds {
        let set = attempted as usize % sets.len();
        attempted += 1;
        use_set(&mut l, set);
        let t0 = Instant::now();
        let sm = if dist {
            dist_measure(ctx, &l, &omega_path)
        } else {
            sweep(&mut l, ctx.nproc)
        };
        let sweep_s = secs(t0);
        match sm.and_then(|sm| plan_all(&sm, &mut l).map(|plans| (sm, plans))) {
            Ok((sm, plans)) => reps.push(Rep {
                set,
                sm,
                sweep_s,
                plan_s: secs(t0),
                plans,
            }),
            Err(e) => {
                failed += 1;
                report.note(format!("rep {attempted} failed: {e}"));
            }
        }
    }

    // Correctness: every rep's Ω against the single-thread in-process
    // reference for its set, and its plans against the first rep's on
    // the same set.
    let t_ref = Instant::now();
    let used = &sets[..sets.len().min(reps.len())];
    let mut references = Vec::new();
    for r in references_parallel(&l.p.network, used, ctx.nproc) {
        match r {
            Ok(r) if ctx.corrupt_reference => references.push(corrupted(&r)),
            Ok(r) => references.push(r),
            Err(e) => {
                report.note(format!("reference sweep failed: {e}"));
                return Outcome::failed(report, attempted);
            }
        }
    }
    let reference_s = secs(t_ref);
    use_set(&mut l, 0);
    for (i, rep) in reps.iter().enumerate() {
        let bad = omega_mismatches(&rep.sm, &references[rep.set]);
        let first = reps.iter().find(|r| r.set == rep.set).expect("rep itself");
        let plans_differ = rep
            .plans
            .iter()
            .zip(&first.plans)
            .any(|(a, b)| a.bits != b.bits || a.acc.to_bits() != b.acc.to_bits());
        if bad > 0 || plans_differ {
            failed += 1;
            report.note(format!(
                "rep {i}: {bad} Ω entries differ from the reference; plans differ: {plans_differ}"
            ));
        }
    }

    if reps.is_empty() {
        return Outcome::failed(report, attempted);
    }
    let mut acc4 = Vec::new();
    for (i, seed) in set_seeds.iter().enumerate() {
        if let Some(rep) = reps.iter().find(|r| r.set == i) {
            let plan4 = &rep.plans[PLAN_4BIT];
            acc4.push(plan4.acc * 100.0);
            report.note(format!(
                "set seed {seed}: 4-bit plan {:?} hash {:016x}, val top-1 {:.4}%, Ω evaluations {}",
                plan4.bits,
                bitmap_hash(&plan4.bits),
                plan4.acc * 100.0,
                rep.sm.stats.evaluations
            ));
        }
    }
    let plan_s: Vec<f64> = reps.iter().map(|r| r.plan_s).collect();
    let sweep_s: Vec<f64> = reps.iter().map(|r| r.sweep_s).collect();
    // The engine's own sweep clock: for `measure --workers 2` it is the
    // coordinator's, so the process start and its model load count only
    // in `plan_s`.
    let rate: Vec<f64> = reps
        .iter()
        .map(|r| r.sm.stats.evaluations as f64 / r.sm.stats.seconds)
        .collect();
    report.timing("plan_s", &plan_s, "s");
    report.timing("sweep_s", &sweep_s, "s");
    report.timing("probes_per_s", &rate, "1/s");
    report.set("plan_acc_pct", crate::util::median(&acc4), "%");
    report.note(format!(
        "{} single-thread reference sweeps, {} at a time: {reference_s:.3} s",
        references.len(),
        ctx.nproc
    ));

    let mut out = Outcome::new(report, attempted, failed);
    if ctx.trace {
        out.untraced_mark();
        if dist {
            dist_traced(ctx, &l, &mut out.report);
        }
        crate::layers::collect(ctx, &mut l, &mut out);
    }
    out
}

/// One extra sweep through a coordinator whose two workers this process
/// spawns itself, so their `--metrics-out` manifests (wire roundtrip)
/// can be read beside the coordinator's.
fn dist_traced(ctx: &Ctx, l: &Loaded, report: &mut Report) {
    use std::io::BufRead;
    let dir = ctx.work.join("dist-trace");
    let _ = std::fs::create_dir_all(&dir);
    let coord_json = dir.join("coordinator.json");
    let spawn = Command::new(&ctx.clado)
        .args([
            "measure",
            "--model",
            l.kind.id(),
            "--bits",
            "2,4,8",
            "--quiet",
        ])
        .args(["--set-size", &l.set.len().to_string()])
        .args(["--set-seed", &l.set_seed.to_string()])
        .args(["--listen", "127.0.0.1:0", "--out"])
        .arg(dir.join("omega.clsm"))
        .arg("--metrics-out")
        .arg(&coord_json)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let Ok(coord) = spawn else {
        report.note("dist trace: coordinator failed to start");
        return;
    };
    let mut coord = crate::util::Reaped(coord);
    // Keep reading after the address line: a closed pipe would fail the
    // coordinator's final print.
    let (tx, rx) = std::sync::mpsc::channel();
    let stdout = coord.0.stdout.take().expect("stdout piped");
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            if let Some(a) = line.strip_prefix("coordinator listening on ") {
                let _ = tx.send(a.trim().to_string());
            }
        }
    });
    let Ok(addr) = rx.recv_timeout(std::time::Duration::from_secs(30)) else {
        drop(coord);
        let _ = reader.join();
        report.note("dist trace: coordinator printed no address");
        return;
    };
    let workers: Vec<_> = (0..2)
        .filter_map(|w| {
            Command::new(&ctx.clado)
                .args(["worker", "--connect", &addr, "--quiet", "--metrics-out"])
                .arg(dir.join(format!("worker{w}.json")))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .ok()
                .map(crate::util::Reaped)
        })
        .collect();
    let ok = crate::util::wait_or_kill(&mut coord.0, std::time::Duration::from_secs(120));
    for mut w in workers {
        crate::util::wait_or_kill(&mut w.0, std::time::Duration::from_secs(10));
    }
    let _ = reader.join();
    let Some(m) = read_manifest(&coord_json).filter(|_| ok) else {
        report.note("dist trace: no coordinator manifest");
        return;
    };
    use crate::util::manifest_num as num;
    let steady = num(&m, &["gauges", "dist.steady_seconds"]).unwrap_or(0.0);
    let busy: Vec<f64> = (0..2)
        .filter_map(|w| num(&m, &["gauges", &format!("dist.worker.{w}.busy_seconds")]))
        .collect();
    let roundtrip_us: Vec<f64> = (0..2)
        .filter_map(|w| read_manifest(&dir.join(format!("worker{w}.json"))))
        .filter_map(|wm| num(&wm, &["histograms", "dist.roundtrip", "p50_us"]))
        .collect();
    report.set(
        "dist.startup_s",
        num(&m, &["gauges", "dist.startup_seconds"]).unwrap_or(0.0),
        "s",
    );
    report.set(
        "dist.shard_service_ms",
        num(&m, &["histograms", "dist.shard_service", "p50_us"]).unwrap_or(0.0) / 1e3,
        "ms",
    );
    if !roundtrip_us.is_empty() {
        report.set(
            "dist.roundtrip_ms",
            crate::util::median(&roundtrip_us) / 1e3,
            "ms",
        );
    }
    if steady > 0.0 && !busy.is_empty() {
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        report.set("dist.worker_busy_frac", mean_busy / steady, "ratio");
    }
    report.set(
        "dist.evictions",
        num(&m, &["counters", "dist.evictions"]).unwrap_or(0.0),
        "count",
    );
}
