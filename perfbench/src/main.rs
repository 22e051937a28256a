//! Benchmark driver for the CLADO pipeline. One run executes one
//! workload for a fixed time, checks its outputs, and prints every
//! metric; the last stdout line is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Normally started by `run.py`,
//! which builds the binaries and trains the models first.

mod layers;
mod plan;
mod serve;
mod util;

use clado_models::ModelKind;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;
use util::{secs, Report};

/// End-to-end metrics (untraced runs), every workload.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("plan_s", "s"),
    ("probes_per_s", "1/s"),
    ("plan_acc_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), every workload; `nn.stage_ms.*` come
/// on top, one per root stage of each plan model.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("tensor.conv2d_gflops", "GFLOP/s"),
    ("tensor.sgemm_gflops", "GFLOP/s"),
    ("quant.error_table_ms", "ms"),
    ("core.full_eval_ms", "ms"),
    ("core.prefix_build_ms", "ms"),
    ("core.prefix_advance_ms", "ms"),
    ("core.suffix_eval_ms", "ms"),
    ("core.full_evals", "count"),
    ("core.suffix_evals", "count"),
    ("core.prefix_builds", "count"),
    ("core.prefix_advances", "count"),
    ("core.prefix_hit_ratio", "ratio"),
    ("core.thread_scaling", "ratio"),
    ("core.shard_service_ms", "ms"),
    ("core.shard_vs_engine_ratio", "ratio"),
    ("solver.psd_project_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.nodes", "count"),
    ("solver.proved_frac", "ratio"),
    ("estim.estimate_ms", "ms"),
    ("estim.probe_fraction", "ratio"),
    ("models.load_ms", "ms"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// Layers only `plan-vit-dist` exercises; zero work elsewhere.
pub const DIST_METRICS: &[(&str, &str)] = &[
    ("dist.startup_s", "s"),
    ("dist.roundtrip_ms", "ms"),
    ("dist.shard_service_ms", "ms"),
    ("dist.worker_busy_frac", "ratio"),
    ("dist.evictions", "count"),
];

/// Layers only `serve-mixed` exercises; zero work elsewhere.
pub const SERVE_METRICS: &[(&str, &str)] = &[
    ("serve_hit_p50_ms", "ms"),
    ("serve_hit_p99_ms", "ms"),
    ("serve_sweep_p50_ms", "ms"),
    ("serve_miss_p50_s", "s"),
    ("serve_est_miss_p50_s", "s"),
    ("serve_rps", "1/s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms.measure", "ms"),
    ("serve.service_ms.assign", "ms"),
    ("serve.service_ms.sweep", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.pool.shard_service_ms", "ms"),
    ("serve.pool.busy_frac", "ratio"),
    ("serve.shed", "count"),
];

/// Input sizes of one run.
pub struct Sizes {
    /// Sensitivity-set size of `plan-resnet34`.
    pub r34_set: usize,
    /// Sensitivity-set size of `plan-vit-dist`.
    pub vit_set: usize,
    /// Set size of the `serve-mixed` repeat (hit) config.
    pub hit_set: usize,
    /// Set size of each `serve-mixed` cold miss.
    pub miss_set: usize,
    /// Cold misses per `serve-mixed` run (even: half exact, half estimated).
    pub misses: usize,
    /// Set size of the traced run's shard-vs-engine comparison.
    pub shard_set: usize,
}

const FULL: Sizes = Sizes {
    r34_set: 64,
    vit_set: 16,
    hit_set: 32,
    miss_set: 8,
    misses: 24,
    shard_set: 16,
};

/// `--smoke`: every code path at a few seconds' cost (the self-test).
const SMOKE: Sizes = Sizes {
    r34_set: 8,
    vit_set: 4,
    hit_set: 8,
    miss_set: 4,
    misses: 2,
    shard_set: 4,
};

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt_reference: bool,
    pub clado: PathBuf,
    pub work: PathBuf,
    pub nproc: usize,
    pub sizes: Sizes,
    pub budgets: &'static [f64],
}

/// What one workload run produced.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Run time when the untraced part ended (traced runs only).
    pub untraced_s: Option<f64>,
}

impl Outcome {
    pub fn new(report: Report, attempted: u64, failed: u64) -> Self {
        Self {
            report,
            attempted,
            failed,
            untraced_s: None,
        }
    }

    /// A run that could not produce its metrics: everything failed.
    pub fn failed(report: Report, attempted: u64) -> Self {
        Self::new(report, attempted, attempted)
    }

    /// Marks the end of the untraced part of a traced run.
    pub fn untraced_mark(&mut self) {
        self.untraced_s = Some(secs(run_start()));
    }
}

fn run_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

const USAGE: &str = "usage: perfbench --workload <plan-resnet34|plan-vit-dist|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1> --clado <path> --work <dir> \
[--git <sha>] [--source <digest>] [--smoke] [--corrupt-reference]";

fn main() {
    run_start();
    let mut args: std::collections::HashMap<String, String> = Default::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        let value = match key {
            "smoke" | "corrupt-reference" => "1".to_string(),
            _ => it.next().unwrap_or_default(),
        };
        args.insert(key.to_string(), value);
    }
    let get = |k: &str| args.get(k).cloned().unwrap_or_default();
    let workload = get("workload");
    let (Ok(seed), Ok(seconds)) = (get("seed").parse::<u64>(), get("seconds").parse::<f64>())
    else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let smoke = args.contains_key("smoke");
    let ctx = Ctx {
        seed,
        seconds,
        trace: get("trace") == "1",
        corrupt_reference: args.contains_key("corrupt-reference"),
        clado: PathBuf::from(get("clado")),
        work: PathBuf::from(get("work")),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        sizes: if smoke { SMOKE } else { FULL },
        budgets: if workload == "serve-mixed" {
            &serve::BUDGETS
        } else {
            &plan::BUDGETS
        },
    };
    let _ = std::fs::create_dir_all(&ctx.work);
    let rss = util::RssSampler::start();

    let mut out = match workload.as_str() {
        "plan-resnet34" => plan::run(&ctx, ModelKind::ResNet34, ctx.sizes.r34_set, false),
        "plan-vit-dist" => plan::run(&ctx, ModelKind::ViT, ctx.sizes.vit_set, true),
        "serve-mixed" => serve::run(&ctx),
        _ => {
            eprintln!("unknown workload `{workload}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    out.report.set("peak_rss_mb", rss.finish(), "MB");
    if let Some(u) = out.untraced_s {
        out.report
            .set("telemetry.overhead_ratio", secs(run_start()) / u, "ratio");
    }

    let host = format!(
        "workload={workload} seed={seed} seconds={seconds} trace={} smoke={smoke} \
         available_parallelism={} kernel={} cpu_features={} git={} source={}",
        u8::from(ctx.trace),
        ctx.nproc,
        clado_tensor::kernel_name(),
        clado_tensor::cpu_features(),
        args.get("git").map_or("unknown", String::as_str),
        args.get("source").map_or("unknown", String::as_str),
    );
    println!("host: {host}");
    for line in &out.report.details {
        println!("{line}");
    }

    // The names this mode must report, in order.
    let metrics = &out.report.metrics;
    let expected: Vec<String> = if ctx.trace {
        let stages = metrics.keys().filter(|k| k.starts_with("nn.stage_ms."));
        LAYER_METRICS
            .iter()
            .chain(DIST_METRICS)
            .chain(SERVE_METRICS)
            .map(|(n, _)| n.to_string())
            .chain(stages.cloned())
            .collect()
    } else {
        E2E_METRICS.iter().map(|(n, _)| n.to_string()).collect()
    };
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::new();
    for name in &expected {
        match metrics.get(name) {
            Some((v, unit)) if v.is_finite() => {
                println!("{name} = {v} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => {
                eprintln!("metric {name} missing or not finite");
                correct = false;
            }
        }
    }
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    let record = format!(
        "{{\"host\": \"{}\", \"result\": {json}}}\n",
        host.replace('"', "'")
    );
    let _ = std::fs::write(
        ctx.work.join(format!(
            "result-{workload}-s{seed}-t{}.json",
            u8::from(ctx.trace)
        )),
        record,
    );
    println!("{json}");
    std::process::exit(if correct { 0 } else { 1 });
}
