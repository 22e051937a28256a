//! CLI subcommand implementations.
//!
//! Each command is a thin, testable wrapper over the library crates; I/O is
//! restricted to printing tables and reading/writing the `.clsm`
//! sensitivity files.

use crate::args::{Args, ArgsError};
use clado_core::{
    load_sensitivities, measure_sensitivities, quantized_accuracy, save_sensitivities, Algorithm,
    AssignOptions, ExperimentContext, OmegaPlan, SensitivityMatrix, SensitivityOptions,
    ShardContext,
};
use clado_dist::{
    run_sweep, run_worker, scheme_to_u8, DistOutcome, JobControl, JobSpec, PoolOptions,
    WorkerOptions, WorkerPool,
};
use clado_estim::{
    assignment_regret, build_report, estimate_sensitivities, EstimationPlan, EstimatorKind,
    EstimatorOptions, DEFAULT_ESTIMATOR_SEED,
};
use clado_models::{
    evaluate, pretrained, pretrained_network, sample_indices, DataSplit, ModelKind, Split,
    SynthVision, SynthVisionConfig,
};
use clado_nn::Network;
use clado_quant::{bits_to_mb, BitWidth, BitWidthSet, LayerSizes, QuantScheme};
use clado_serve::{
    submit_with_retries, AssignRow, MeasureSpec, Op, ServeMessage, ServeOptions, Server,
    SubmitRequest,
};
use clado_solver::{IqpProblem, Solution, SolverConfig, SymMatrix};
use clado_telemetry::{fmt_us, ManifestValue, Telemetry};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Usage text for `clado --help` / unknown commands.
pub const USAGE: &str = "\
clado — mixed-precision quantization with cross-layer dependencies (CLADO)

USAGE:
  clado <command> [--options]

COMMANDS:
  models                          list the model zoo
  train        --model <id>       pretrain (or load cached) and report accuracy
  sensitivity  --model <id> --out <file.clsm>      (alias: measure)
                                  run Algorithm 1 and persist Ĝ
               [--set-size 128] [--set-seed 0] [--bits 2,4,8] [--scheme symmetric|affine]
               [--threads N (0 = all cores)] [--no-prefix-cache] [--verbose]
               [--checkpoint-dir <dir>   journal each probe for crash-safe resume]
               [--resume                 restore completed probes from the journal]
               [--workers N              shard the sweep across N local worker processes]
               [--listen <addr>          accept remote `clado worker` processes
                                         (default 127.0.0.1:0; prints the bound address)]
               [--heartbeat-timeout-ms 3000   evict a silent worker after this long]
               [--idle-timeout-secs 180       fail if no worker connects (0 = wait forever)]
               [--estimator blocktopk    estimate Ω under a probe budget instead of
                                         the full O(|𝔹|²I²) sweep (see `estimate`)]
               [--probe-budget N (0 = 25% of the full sweep)]
  estimate     --model <id>       run the sub-quadratic Ω estimator against the
                                  exact sweep and report probes spent, entry-wise
                                  error, and IQP assignment regret on the held-out
                                  validation split, next to a noise floor: the
                                  regret of the exact Ω of a second sensitivity
                                  set (set seed + 1000)
               [--estimator blocktopk|all (default all, which is blocktopk)]
               [--probe-budget N[,N…] (0 = 25% of the full sweep); a list
                                  reuses one exact and one floor sweep and
                                  keys the manifest's regret_blocktopk.N and
                                  probe_fraction.N by budget]
               [--avg-bits 4.0   regret budget]
               [--set-size 128] [--set-seed 0] [--bits 2,4,8]
               [--scheme symmetric|affine] [--threads N] [--no-prefix-cache]
               [--out <file.clsm>   persist the estimated Ω̂]
  worker       --connect <addr>          join a worker pool (`measure --listen` or
                                         `serve`): it sends job specs and shards; the
                                         worker stays connected across jobs and
                                         repeat job specs reuse the warm model
               [--heartbeat-ms 500] [--connect-timeout-secs 10] [--verbose]
               [--connect-retries 5      capped-exponential-backoff connect attempts]
  serve        run the quantization-planning daemon: bounded admission with
               typed shedding (overloaded / deadline-infeasible), an Ω result
               cache (repeat configs pay zero probes), pooled crash-resilient
               workers, graceful drain on SIGTERM / Ctrl-C (exit 0)
               [--listen 127.0.0.1:4750     client-facing address (0 port → OS-picked,
                                            printed as `serve listening on <addr>`)]
               [--worker-listen 127.0.0.1:0] [--workers N    spawn N pooled workers]
               [--queue-depth 16] [--executors 2] [--cache-capacity 8]
               [--cache-bytes N        in-memory Ω cache byte budget (0 = entry
                                       count only); evicts LRU when exceeded]
               [--cache-dir <dir>      persist Ω results to disk (crash-consistent:
                                       atomic tmp/fsync/rename, checksummed); a
                                       restarted daemon warm-loads the cache and
                                       answers repeat configs with zero probes]
               [--cache-disk-bytes N   on-disk cache byte budget (0 = unbounded);
                                       evicts least-recently-used entries]
               [--heartbeat-timeout-ms 3000] [--shard-retries 5]
  submit       --connect <addr> --model <id>    send one request to a daemon
               [--connect-retries N (default 0)  capped-backoff-with-jitter connect
                                    attempts; the request itself is never resent]
               [--op measure|assign|sweep (default assign)]
               [--avg-bits 4.0 (assign)] [--from 2.5 --to 4.0 --step 0.5 (sweep)]
               [--deadline-ms N (0 = none; infeasible deadlines are refused)]
               [--set-size 128] [--set-seed 0] [--batch-size 64] [--bits 2,4,8]
               [--scheme symmetric|affine] [--no-prefix-cache]
               [--estimator blocktopk --probe-budget N
                                    measure op: budgeted Ω estimation; the daemon's
                                    Ω cache keys on the estimator, so estimated and
                                    exact results never alias]
               [--out <file.clsm>   persist the measured Ĝ (measure op)]
  chaos        soak a self-spawned daemon under fault churn: concurrent clients
               submit a deterministic measure/assign/sweep mix (exact + estimated,
               repeat configs), pooled workers are SIGKILLed and respawned, and
               the daemon itself can be SIGKILLed mid-soak and relaunched over the
               same --cache-dir; every reply is checked bitwise against the first
               answer for its config, and a divergence (or an SLO breach) exits
               nonzero
               [--duration 30s] [--clients 4] [--workers 2]
               [--daemon-kills 0       SIGKILL + relaunch the daemon N times]
               [--worker-churn-ms 0    kill/respawn one worker this often (0 = off)]
               [--slo-p99-ms 0         fail if request p99 exceeds this (0 = off)]
               [--cache-dir <dir>      persistent Ω cache shared across daemon
                                       generations (default: a temp dir)]
               [--model resnet20] [--set-size 8] [--bits 4,8]
  assign       --model <id> --avg-bits <f>
                                  solve eq. (11) and report the bit map + PTQ accuracy
               [--sens <file.clsm>  solve a stored Ω instead of measuring one]
               [--algorithm clado|clado-star|block|hawq|mpqco]
               [--no-psd            clado without the PSD projection (CLADO-noPSD,
                                    the Fig. 7 ablation)]
               [--set-size 128] [--set-seed 0] [--bits 2,4,8] [--scheme symmetric|affine]
  sweep        --model <id>       tradeoff table over a budget range
               [--from 2.5] [--to 4.0] [--step 0.5] [--algorithm clado] [--no-psd]
               [--sens <file.clsm>  sweep a stored Ω instead of measuring one]
               [--set-size 128] [--set-seed 0] [--bits 2,4,8] [--scheme symmetric|affine]
  eval         --model <id> --map 8,4,4,2,...
                                  PTQ accuracy of an explicit bit map
               [--layer-times     record per-stage forward spans]
  stress       solve a planted dense cross-term IQP (worst case for eq. (11))
               under the anytime flags; prints a deterministic result line
               [--layers 32] [--seed 7] [--avg-bits 4] [--bits 2,4,8]
  trace        --file <trace.json>     summarize a --trace-out file: top
                                       self-time spans, per-process utilization
                                       and straggler report, incumbent curve
               [--top 10               how many spans to list]
               --file <file.clsm>      instead print a stored Ĝ's shape, stats,
                                       and Ω provenance (exact vs. estimator)

SOLVER (assign / sweep / stress):
  --solver-timeout <dur>          wall-clock budget per solve (500ms, 10s, 2m, 1h);
                                  on expiry the solver degrades to the best
                                  incumbent and reports an optimality gap
  --solver-nodes <N>              branch-and-bound node cap (deterministic stop)
  --solver-strict                 reject damaged Ĝ matrices (non-finite,
                                  asymmetric, or mostly clipped by the PSD
                                  projection) instead of repairing leniently
  Ctrl-C                          first press cancels the solve cooperatively
                                  (best incumbent is returned); second aborts

TELEMETRY (any command):
  --metrics-out <file.json>       write a machine-readable run manifest
                                  (schema clado-telemetry-manifest/v1)
  --trace-out <file.json>         record a Chrome Trace Format timeline (open in
                                  Perfetto / chrome://tracing; distributed runs
                                  merge worker events under one trace id)
  --progress | --no-progress      rate-limited stderr progress lines (default: on)
  --quiet                         only the final result line; implies --no-progress

Any other flag a command does not list fails with this usage. The removed
flags --estimator-seed, --integer, --no-batched-probes, --pool and
--retries are ignored with a warning.

Set CLADO_CACHE_DIR to relocate the trained-weight cache.";

/// A subcommand: its names, its entry point, and every flag it reads
/// besides the telemetry flags ([`crate::args::GLOBAL_FLAGS`]). Any
/// other flag is refused before the command runs.
pub struct Command {
    /// The name, then any aliases.
    pub names: &'static [&'static str],
    /// The entry point.
    pub run: fn(&Args) -> Result<(), Box<dyn Error>>,
    /// The flags the command reads, without their `--`, space-separated.
    pub flags: &'static str,
}

/// Every subcommand, in usage order.
pub const COMMANDS: &[Command] = &[
    Command {
        names: &["models"],
        run: cmd_models,
        flags: "",
    },
    Command {
        names: &["train"],
        run: cmd_train,
        flags: "model",
    },
    Command {
        names: &["sensitivity", "measure"],
        run: cmd_sensitivity,
        flags: "model out set-size set-seed bits scheme threads no-prefix-cache verbose \
                checkpoint-dir resume workers listen heartbeat-timeout-ms \
                idle-timeout-secs estimator probe-budget",
    },
    Command {
        names: &["estimate"],
        run: cmd_estimate,
        flags: "model estimator probe-budget avg-bits set-size set-seed bits scheme threads \
                no-prefix-cache verbose out",
    },
    Command {
        names: &["worker"],
        run: cmd_worker,
        flags: "connect heartbeat-ms connect-timeout-secs connect-retries verbose",
    },
    Command {
        names: &["serve"],
        run: cmd_serve,
        flags: "listen worker-listen workers queue-depth executors cache-capacity cache-bytes \
                cache-dir cache-disk-bytes heartbeat-timeout-ms shard-retries verbose",
    },
    Command {
        names: &["submit"],
        run: cmd_submit,
        flags: "connect model connect-retries op avg-bits from to step deadline-ms set-size \
                set-seed batch-size bits scheme no-prefix-cache estimator probe-budget out",
    },
    Command {
        names: &["chaos"],
        run: cmd_chaos,
        flags: "duration clients workers daemon-kills worker-churn-ms slo-p99-ms cache-dir \
                model set-size bits",
    },
    Command {
        names: &["assign"],
        run: cmd_assign,
        flags: "model avg-bits sens algorithm no-psd set-size set-seed bits scheme \
                solver-timeout solver-nodes solver-strict",
    },
    Command {
        names: &["sweep"],
        run: cmd_sweep,
        flags: "model from to step algorithm no-psd sens set-size set-seed bits scheme \
                solver-timeout solver-nodes solver-strict",
    },
    Command {
        names: &["eval"],
        run: cmd_eval,
        flags: "model map scheme layer-times",
    },
    Command {
        names: &["stress"],
        run: cmd_stress,
        flags: "layers seed avg-bits bits solver-timeout solver-nodes solver-strict",
    },
    Command {
        names: &["trace"],
        run: cmd_trace,
        flags: "file top",
    },
];

/// The subcommand called `name`, aliases included.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.names.contains(&name))
}

/// Per-invocation telemetry wiring shared by every command: one enabled
/// registry, the `--metrics-out` / `--progress` / `--quiet` flags, and the
/// end-of-run rendering (human summary table + manifest file).
struct RunContext {
    telemetry: Telemetry,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    quiet: bool,
}

impl RunContext {
    fn from_args(args: &Args) -> Result<Self, ArgsError> {
        if args.switch("progress") && args.switch("no-progress") {
            return Err(ArgsError(
                "--progress and --no-progress are mutually exclusive".into(),
            ));
        }
        let quiet = args.switch("quiet");
        let telemetry = Telemetry::new();
        telemetry.set_progress_enabled(!quiet && !args.switch("no-progress"));
        let trace_out = args.get("trace-out").map(PathBuf::from);
        if trace_out.is_some() {
            // Mint a nonzero correlation id; distributed runs carry it to
            // every worker in the job spec so the merged timeline shares
            // one trace id across processes.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            telemetry.set_trace_id((nanos ^ (u64::from(std::process::id()) << 32)) | 1);
            telemetry.set_trace_enabled(true);
        }
        Ok(Self {
            telemetry,
            metrics_out: args.get("metrics-out").map(PathBuf::from),
            trace_out,
            quiet,
        })
    }

    /// Prints `line` unless `--quiet` was given.
    fn info(&self, line: &str) {
        if !self.quiet {
            println!("{line}");
        }
    }

    /// Renders the registry summary (unless quiet) and writes the manifest
    /// if `--metrics-out` was given. Call after the final result line.
    ///
    /// The trace is flushed *first* so a buffer overflow surfaces as an
    /// explicit end-of-run warning (stderr, even under `--quiet`) and as
    /// a `trace_dropped` note in the manifest — an incomplete timeline
    /// must never be mistaken for a complete one.
    fn finish(
        &self,
        command: &str,
        config: &[(&str, ManifestValue)],
    ) -> Result<(), Box<dyn Error>> {
        let mut trace_events = None;
        let mut trace_dropped = 0u64;
        if let Some(path) = &self.trace_out {
            clado_telemetry::flush_thread_local();
            trace_events = Some(self.telemetry.write_chrome_trace(path)?);
            trace_dropped = self.telemetry.trace_dropped();
            if trace_dropped > 0 {
                eprintln!(
                    "warning: {trace_dropped} trace events dropped at the buffer cap — \
                     the timeline in {} is incomplete",
                    path.display()
                );
            }
        }
        if !self.quiet {
            let summary = self.telemetry.render_summary();
            if !summary.is_empty() {
                print!("{summary}");
            }
        }
        if let Some(path) = &self.metrics_out {
            // Every manifest records the compute-kernel identity so runs
            // on different hosts (or CLADO_FORCE_SCALAR runs) are
            // distinguishable when diffing results.
            let mut full: Vec<(&str, ManifestValue)> = vec![
                ("kernel", clado_tensor::kernel_name().into()),
                ("cpu_features", clado_tensor::cpu_features().into()),
            ];
            if trace_dropped > 0 {
                full.push(("trace_dropped", trace_dropped.into()));
            }
            full.extend(config.iter().cloned());
            std::fs::write(path, self.telemetry.manifest(command, &full))?;
        }
        if let (Some(events), Some(path)) = (trace_events, &self.trace_out) {
            self.info(&format!("trace: {events} events → {}", path.display()));
        }
        Ok(())
    }
}

/// Shared anytime-solver flags (`assign`, `sweep`, `stress`): wall-clock
/// budget, node cap, and the Ctrl-C cancel flag.
fn solver_config_of(args: &Args, run: &RunContext) -> Result<SolverConfig, ArgsError> {
    let defaults = SolverConfig::default();
    Ok(SolverConfig {
        max_wall: args.duration("solver-timeout")?,
        max_nodes: args.get_or("solver-nodes", defaults.max_nodes)?,
        cancel: crate::cancel::install(),
        telemetry: run.telemetry.clone(),
        ..defaults
    })
}

/// Manifest entries describing how a solve terminated, appended to the
/// command's config block so scripts can assert on degradation behavior.
fn solver_manifest(solution: &Solution) -> Vec<(&'static str, ManifestValue)> {
    vec![
        ("solver_method", solution.method_used.label().into()),
        ("solver_termination", solution.termination.label().into()),
        ("solver_gap", solution.gap.into()),
        ("solver_downgrades", solution.downgrades.len().into()),
    ]
}

/// Prints the solver outcome when it is worth a line: any downgrade, or a
/// termination other than a completed proof/heuristic run.
fn report_solver_outcome(run: &RunContext, solution: &Solution) {
    if solution.downgrades.is_empty() {
        return;
    }
    let trail: Vec<String> = solution.downgrades.iter().map(|d| d.to_string()).collect();
    run.info(&format!(
        "solver: {} via {}, gap {:.3e} ({})",
        solution.termination.label(),
        solution.method_used.label(),
        solution.gap,
        trail.join("; ")
    ));
}

/// Parses `--estimator` into an [`EstimatorKind`]; `None` when the flag
/// is absent (exact measurement).
fn estimator_of(args: &Args) -> Result<Option<EstimatorKind>, ArgsError> {
    args.get("estimator")
        .map(|name| name.parse::<EstimatorKind>().map_err(ArgsError))
        .transpose()
}

fn model_kind(id: &str) -> Result<ModelKind, ArgsError> {
    match id {
        "resnet20" => Ok(ModelKind::ResNet20),
        "resnet34" => Ok(ModelKind::ResNet34),
        "resnet50" => Ok(ModelKind::ResNet50),
        "mobilenetv3" | "mobilenet" => Ok(ModelKind::MobileNet),
        "regnet" => Ok(ModelKind::RegNet),
        "vit" => Ok(ModelKind::ViT),
        other => Err(ArgsError(format!(
            "unknown model `{other}` (see `clado models` for the zoo)"
        ))),
    }
}

fn scheme_of(args: &Args) -> Result<QuantScheme, ArgsError> {
    match args.get("scheme").unwrap_or("symmetric") {
        "symmetric" => Ok(QuantScheme::PerTensorSymmetric),
        "affine" => Ok(QuantScheme::PerChannelAffine),
        other => Err(ArgsError(format!(
            "unknown scheme `{other}` (symmetric|affine)"
        ))),
    }
}

/// Parses `--algorithm`; `--no-psd` turns `clado` into
/// [`Algorithm::CladoNoPsd`] and is refused with any other algorithm.
fn algorithm_of(args: &Args) -> Result<Algorithm, ArgsError> {
    let name = args.get("algorithm").unwrap_or("clado");
    if args.switch("no-psd") {
        return match name {
            "clado" => Ok(Algorithm::CladoNoPsd),
            other => Err(ArgsError(format!(
                "--no-psd applies to --algorithm clado only, not `{other}`"
            ))),
        };
    }
    match name {
        "clado" => Ok(Algorithm::Clado),
        "clado-star" => Ok(Algorithm::CladoStar),
        "block" => Ok(Algorithm::BlockClado),
        "hawq" => Ok(Algorithm::Hawq),
        "mpqco" => Ok(Algorithm::Mpqco),
        other => Err(ArgsError(format!(
            "unknown algorithm `{other}` (clado|clado-star|block|hawq|mpqco)"
        ))),
    }
}

/// `clado models`
pub fn cmd_models(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    println!("{:<14} {:<28} role", "id", "name");
    for (kind, role) in [
        (ModelKind::ResNet20, "Table 2 (vHv validation)"),
        (ModelKind::ResNet34, "Table 1 / Figs. 1-3, 6, 7"),
        (ModelKind::ResNet50, "Table 1 / Figs. 2, 3, 5, 6"),
        (ModelKind::MobileNet, "Table 1"),
        (ModelKind::RegNet, "Table 1"),
        (ModelKind::ViT, "Table 1 / Fig. 2"),
    ] {
        println!("{:<14} {:<28} {}", kind.id(), kind.display_name(), role);
    }
    run.finish("models", &[])
}

/// `clado train --model <id>`
pub fn cmd_train(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let kind = model_kind(args.require::<String>("model")?.as_str())?;
    let mut p = {
        let _s = run.telemetry.span("load");
        pretrained(kind)
    };
    println!(
        "{}: FP32 val accuracy {:.2}% ({} quantizable layers, {:.1}s incl. cache)",
        kind.display_name(),
        p.val_accuracy() * 100.0,
        p.network.quantizable_layers().len(),
        run.telemetry.elapsed().as_secs_f64()
    );
    run.finish("train", &[("model", kind.id().into())])
}

/// The pretrained `kind`'s network and its sensitivity set: `set_size`
/// training samples (clamped to the split) drawn with `set_seed`. Only
/// the set's samples are rendered; the dataset is generated in full only
/// when the weights cache misses and the model trains. Pool workers and
/// the serve daemon reconstruct jobs through this too, so every node
/// samples the same set.
fn pretrained_with_set(kind: ModelKind, set_size: usize, set_seed: u64) -> (Network, DataSplit) {
    (
        pretrained_network(kind),
        sensitivity_set(set_size, set_seed),
    )
}

/// The pretrained networks a pool worker or the serve daemon has loaded,
/// one per model kind, each loaded on first use. Every job gets a clone,
/// and a clone keeps the loaded weights' content ids, so the model tables
/// of the previous job on the same model fit the next one
/// ([`clado_core::ModelTables::fits`]) and are not rebuilt.
#[derive(Default)]
struct LoadedModels(std::sync::Mutex<Vec<(ModelKind, Network)>>);

impl LoadedModels {
    /// [`pretrained_with_set`] for the model named `model`, with the
    /// network cloned from the loaded copy.
    fn with_set(
        &self,
        model: &str,
        set_size: u64,
        set_seed: u64,
    ) -> Result<(Network, DataSplit), String> {
        let kind = model_kind(model).map_err(|e| e.to_string())?;
        let network = {
            let mut loaded = self.0.lock().unwrap_or_else(|p| p.into_inner());
            match loaded.iter().find(|(k, _)| *k == kind) {
                Some((_, network)) => network.clone(),
                None => {
                    let network = pretrained_network(kind);
                    loaded.push((kind, network.clone()));
                    network
                }
            }
        };
        Ok((network, sensitivity_set(set_size as usize, set_seed)))
    }
}

/// `size` training samples of the default dataset (clamped to the split)
/// drawn with `seed`: bitwise `pretrained(kind).data.train.sample_subset`.
fn sensitivity_set(size: usize, seed: u64) -> DataSplit {
    let cfg = SynthVisionConfig::default();
    let indices = sample_indices(cfg.train, size.min(cfg.train), seed);
    SynthVision::render(cfg, Split::Train, &indices)
}

/// The validation split of the default dataset.
fn val_split() -> DataSplit {
    let cfg = SynthVisionConfig::default();
    SynthVision::render(cfg, Split::Val, &(0..cfg.val).collect::<Vec<_>>())
}

/// [`pretrained_with_set`] under the run's `load` span.
fn load_with_set(
    run: &RunContext,
    kind: ModelKind,
    set_size: usize,
    set_seed: u64,
) -> (Network, DataSplit) {
    let _s = run.telemetry.span("load");
    pretrained_with_set(kind, set_size, set_seed)
}

/// [`load_with_set`] plus the validation split, in the same span.
fn load_with_val(
    run: &RunContext,
    kind: ModelKind,
    set_size: usize,
    set_seed: u64,
) -> (Network, DataSplit, DataSplit) {
    let _s = run.telemetry.span("load");
    let (network, set) = pretrained_with_set(kind, set_size, set_seed);
    (network, set, val_split())
}

/// `clado sensitivity --model <id> --out <file>` (alias: `measure`)
///
/// Measures (or, with `--estimator`, estimates) Ĝ in process, or with
/// `--workers N` / `--listen` sweeps the same plan on a worker pool.
pub fn cmd_sensitivity(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let kind = model_kind(args.require::<String>("model")?.as_str())?;
    let out: PathBuf = PathBuf::from(args.require::<String>("out")?);
    let set_size: usize = args.get_or("set-size", 128)?;
    let set_seed: u64 = args.get_or("set-seed", 0)?;
    let bits = BitWidthSet::new(&args.list_or("bits", &[2u8, 4, 8])?);
    let scheme = scheme_of(args)?;
    let checkpoint_dir = args.get("checkpoint-dir").map(PathBuf::from);
    let resume = args.switch("resume");
    if resume && checkpoint_dir.is_none() {
        return Err(Box::new(ArgsError(
            "--resume requires --checkpoint-dir".into(),
        )));
    }
    let estimator = estimator_of(args)?;
    let probe_budget: usize = args.get_or("probe-budget", 0)?;
    let distributed = args.get_or::<usize>("workers", 0)? > 0 || args.get("listen").is_some();

    let (mut network, sens_set) = load_with_set(&run, kind, set_size, set_seed);
    let options = SensitivityOptions {
        scheme,
        verbose: args.switch("verbose"),
        threads: args.get_or("threads", 0)?,
        use_prefix_cache: !args.switch("no-prefix-cache"),
        telemetry: run.telemetry.clone(),
        checkpoint_dir,
        resume,
        ..Default::default()
    };
    let mut config: Vec<(&str, ManifestValue)> = vec![
        ("model", kind.id().into()),
        ("bits", bits.to_string().into()),
        ("scheme", format!("{scheme:?}").into()),
        ("set_size", set_size.into()),
        ("seed", set_seed.into()),
        ("resume", resume.into()),
    ];
    let mut notes = Vec::new();
    let sm = if distributed {
        let ctx = ShardContext::new(
            &network,
            sens_set.len(),
            &bits,
            scheme,
            options.batch_size,
            options.use_prefix_cache,
        );
        let estimation = estimator.map(|k| EstimationPlan::new(&ctx, k, probe_budget));
        let plan: &dyn OmegaPlan = match &estimation {
            Some(plan) => plan,
            None => &ctx,
        };
        let job = JobSpec {
            model: kind.id().to_string(),
            set_size: set_size as u64,
            set_seed,
            batch_size: options.batch_size as u64,
            bits: bits.iter().map(|b| b.bits()).collect(),
            scheme: scheme_to_u8(scheme),
            use_prefix_cache: options.use_prefix_cache,
            fingerprint: ctx.fingerprint(),
            trace_id: run.telemetry.trace_id(),
        };
        let outcome = sweep_on_pool(args, &run, plan, job, &options)?;
        record_dist_outcome(&run.telemetry, &outcome);
        notes.push(format!(
            "distributed: {} worker(s), {} eviction(s), {} rejected, straggler {:.1}s",
            outcome.workers.len(),
            outcome.evictions,
            outcome.rejected,
            outcome.straggler_seconds
        ));
        for w in &outcome.workers {
            notes.push(format!(
                "  worker {} (pid {}): {} shards, {} probes, {:.1}s busy",
                w.id, w.pid, w.shards, w.probes, w.seconds
            ));
        }
        config.extend([
            ("workers", outcome.workers.len().into()),
            ("evictions", outcome.evictions.into()),
            ("rejected_workers", outcome.rejected.into()),
            ("straggler_seconds", outcome.straggler_seconds.into()),
        ]);
        outcome.matrix
    } else if let Some(est_kind) = estimator {
        let est = estimate_sensitivities(
            &mut network,
            &sens_set,
            &bits,
            &EstimatorOptions {
                probe_budget,
                measure: options,
                ..EstimatorOptions::new(est_kind)
            },
        )?;
        notes.push(format!(
            "estimated via {est_kind}: {} / {} probes ({:.1}% of the full sweep), \
             {:.1}% of Ω entries observed",
            est.probes_spent,
            est.full_sweep_probes,
            est.probe_fraction() * 100.0,
            est.observed.fraction() * 100.0
        ));
        est.matrix
    } else {
        measure_sensitivities(&mut network, &sens_set, &bits, &options)?
    };
    {
        let _s = run.telemetry.span("save");
        save_sensitivities(&sm, &out)?;
    }
    println!(
        "measured Ĝ for {} (𝔹 = {bits}, {} samples): {} evaluations in {:.1}s → {}",
        kind.display_name(),
        set_size,
        sm.stats.evaluations,
        sm.stats.seconds,
        out.display()
    );
    if !sm.stats.provenance.is_exact() {
        run.info(&format!("Ω provenance: {}", sm.stats.provenance));
    }
    for note in &notes {
        run.info(note);
    }
    if sm.stats.resumed + sm.stats.quarantined > 0 {
        run.info(&format!(
            "fault recovery: {} probes resumed from journal, {} quarantined",
            sm.stats.resumed, sm.stats.quarantined
        ));
    }
    config.extend([
        ("threads", sm.stats.threads_used.into()),
        ("resumed", sm.stats.resumed.into()),
        ("quarantined", sm.stats.quarantined.into()),
        ("omega_provenance", sm.stats.provenance.to_string().into()),
    ]);
    run.finish("sensitivity", &config)
}

/// The distributed arm of `clado sensitivity`: bind a worker pool,
/// optionally spawn `--workers` local worker subprocesses, sweep `plan`
/// on the pool (loading or resuming the journal), then reap the fleet
/// and shut the pool down.
fn sweep_on_pool(
    args: &Args,
    run: &RunContext,
    plan: &dyn OmegaPlan,
    job: JobSpec,
    options: &SensitivityOptions,
) -> Result<DistOutcome, Box<dyn Error>> {
    let idle_secs: u64 = args.get_or("idle-timeout-secs", 180)?;
    let pool = WorkerPool::bind(
        args.get("listen").unwrap_or("127.0.0.1:0"),
        PoolOptions {
            heartbeat_timeout: Duration::from_millis(args.get_or("heartbeat-timeout-ms", 3000)?),
            telemetry: run.telemetry.clone(),
            verbose: options.verbose,
            ..PoolOptions::default()
        },
    )?;
    let addr = pool.worker_addr();
    // Always printed (even under --quiet): with `--listen 127.0.0.1:0`
    // this line is the only way to learn the bound port, and scripts
    // parse it to start remote workers.
    println!("coordinator listening on {addr}");
    std::io::stdout().flush()?;

    let mut children = Vec::new();
    for _ in 0..args.get_or::<usize>("workers", 0)? {
        children.push(spawn_worker(
            &addr.to_string(),
            options.verbose,
            Stdio::inherit(),
        )?);
    }
    let outcome = run_sweep(
        &pool,
        plan,
        job,
        options.checkpoint_dir.as_deref(),
        options.resume,
        &mut JobControl::wait((idle_secs > 0).then(|| Duration::from_secs(idle_secs))),
    );
    // Reap the subprocess fleet whether the sweep succeeded or not, then
    // shut the pool down (remote workers get a graceful Shutdown).
    reap(&mut children);
    pool.shutdown();
    Ok(outcome?)
}

/// Records a distributed sweep's accounting in the `measure` manifest:
/// the fleet spin-up vs steady-state split, per-worker load (ids in
/// connection order), shard service times, evictions, and rejections.
fn record_dist_outcome(t: &Telemetry, outcome: &DistOutcome) {
    t.counter("dist.resumed_probes").add(outcome.resumed as u64);
    t.counter("dist.evictions").add(outcome.evictions);
    t.counter("dist.rejected_workers").add(outcome.rejected);
    t.set_gauge("dist.straggler_seconds", outcome.straggler_seconds);
    t.set_gauge("dist.startup_seconds", outcome.startup_seconds);
    t.set_gauge("dist.steady_seconds", outcome.steady_seconds);
    let service = t.histogram("dist.shard_service");
    for &seconds in &outcome.shard_seconds {
        service.record_us((seconds * 1e6) as u64);
    }
    for w in &outcome.workers {
        t.set_gauge(&format!("dist.worker.{}.probes", w.id), w.probes as f64);
        t.set_gauge(&format!("dist.worker.{}.shards", w.id), w.shards as f64);
        t.set_gauge(&format!("dist.worker.{}.busy_seconds", w.id), w.seconds);
    }
}

/// `clado estimate --model <id> [--estimator blocktopk|all]`
///
/// Runs the sub-quadratic Ω estimator (`all` is `blocktopk`, the only
/// one) against the exact full sweep and reports probes spent vs. the
/// full-sweep count, entry-wise error of the PSD-projected Ω̂, and the
/// metric that matters — the held-out task-loss regret of the IQP
/// assignment solved under Ω̂ instead of Ω at the same bit budget,
/// evaluated on the validation split. Next to it stands a noise floor
/// (paper Fig. 4): the held-out regret of the exact Ω measured on a
/// second sensitivity set of the same size (set seed + 1000).
pub fn cmd_estimate(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let kind = model_kind(args.require::<String>("model")?.as_str())?;
    let set_size: usize = args.get_or("set-size", 128)?;
    let set_seed: u64 = args.get_or("set-seed", 0)?;
    let bits = BitWidthSet::new(&args.list_or("bits", &[2u8, 4, 8])?);
    let scheme = scheme_of(args)?;
    let avg_bits: f64 = args.get_or("avg-bits", 4.0)?;
    let probe_budgets: Vec<usize> = args.list_or("probe-budget", &[0])?;
    let est_kind: EstimatorKind = match args.get("estimator").unwrap_or("all") {
        "all" => EstimatorKind::BlockTopK,
        name => name.parse().map_err(ArgsError)?,
    };
    let out = args.get("out").map(PathBuf::from);
    if out.is_some() && probe_budgets.len() > 1 {
        return Err(ArgsError("--out takes a single --probe-budget".into()).into());
    }

    let (mut network, sens_set, val) = load_with_val(&run, kind, set_size, set_seed);
    let floor_seed = set_seed.wrapping_add(1000);
    let floor_set = sensitivity_set(set_size, floor_seed);
    let measure = SensitivityOptions {
        scheme,
        verbose: args.switch("verbose"),
        threads: args.get_or("threads", 0)?,
        use_prefix_cache: !args.switch("no-prefix-cache"),
        telemetry: run.telemetry.clone(),
        ..Default::default()
    };
    let exact = {
        let _s = run.telemetry.span("estimate.exact_reference");
        measure_sensitivities(&mut network, &sens_set, &bits, &measure)?
    };
    let second_exact = {
        let _s = run.telemetry.span("estimate.floor_reference");
        measure_sensitivities(&mut network, &floor_set, &bits, &measure)?
    };
    let sizes = LayerSizes::new(network.layer_param_counts());
    let budget_bits = sizes.budget_from_avg_bits(avg_bits);
    let assign_options = AssignOptions {
        telemetry: run.telemetry.clone(),
        ..Default::default()
    };
    let held_out_regret = |network: &mut Network, omega: &SensitivityMatrix| {
        assignment_regret(
            network,
            &val,
            &exact,
            omega,
            &sizes,
            budget_bits,
            &assign_options,
            scheme,
            measure.batch_size,
        )
    };

    run.info(&format!(
        "exact sweep: {} probes ({} evaluations); held-out regret ({} validation samples) \
         measured at {avg_bits} avg bits",
        exact.stats.full_evals + exact.stats.prefix_cache_hits,
        exact.stats.evaluations,
        val.len()
    ));
    let floor = held_out_regret(&mut network, &second_exact)?;
    run.info(&format!(
        "noise floor (exact Ω of set seed {floor_seed}): regret: {floor}"
    ));
    // One estimate per budget against the one exact and floor sweep. A
    // single budget keeps the plain manifest keys; a list keys each
    // regret and probe fraction by its budget.
    let mut config: Vec<(String, ManifestValue)> = vec![
        ("model".into(), kind.id().into()),
        ("bits".into(), bits.to_string().into()),
        ("avg_bits".into(), avg_bits.into()),
        ("regret_floor".into(), floor.relative.into()),
    ];
    let single = probe_budgets.len() == 1;
    for &probe_budget in &probe_budgets {
        let est = estimate_sensitivities(
            &mut network,
            &sens_set,
            &bits,
            &EstimatorOptions {
                probe_budget,
                measure: measure.clone(),
                ..EstimatorOptions::new(est_kind)
            },
        )?;
        let regret = held_out_regret(&mut network, &est.matrix)?;
        let report = build_report(est_kind, &est, Some(&exact), Some(regret));
        println!("{report}");
        if single {
            run.telemetry.set_gauge(
                &format!("estim.{est_kind}.probe_fraction"),
                report.probe_fraction,
            );
            run.telemetry
                .set_gauge(&format!("estim.{est_kind}.regret"), regret.relative);
            config.push(("probe_budget".into(), probe_budget.into()));
            config.push(("regret_blocktopk".into(), regret.relative.into()));
        } else {
            config.push((
                format!("probe_fraction.{probe_budget}"),
                report.probe_fraction.into(),
            ));
            config.push((
                format!("regret_blocktopk.{probe_budget}"),
                regret.relative.into(),
            ));
        }
        if let Some(path) = &out {
            let _s = run.telemetry.span("save");
            save_sensitivities(&est.matrix, path)?;
            run.info(&format!(
                "wrote Ω̂ ({}) → {}",
                est.matrix.stats.provenance,
                path.display()
            ));
        }
    }
    if !single {
        let list: Vec<String> = probe_budgets.iter().map(usize::to_string).collect();
        config.push(("probe_budget".into(), list.join(",").into()));
    }
    let config: Vec<(&str, ManifestValue)> = config
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    run.finish("estimate", &config)
}

/// `clado worker --connect <addr>`
pub fn cmd_worker(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let addr: String = args.require("connect")?;
    // Mirror the pool owner's job setup exactly: same model loader,
    // same subset sampling. Any drift shows up as a fingerprint
    // mismatch and the pool rejects us.
    let models = LoadedModels::default();
    let provider = |job: &JobSpec| models.with_set(&job.model, job.set_size, job.set_seed);
    let opts = WorkerOptions {
        heartbeat_interval: Duration::from_millis(args.get_or("heartbeat-ms", 500)?),
        connect_timeout: Duration::from_secs(args.get_or("connect-timeout-secs", 10)?),
        connect_retries: args.get_or("connect-retries", 5)?,
        telemetry: run.telemetry.clone(),
        verbose: args.switch("verbose"),
    };
    let report = run_worker(&addr, provider, &opts)?;
    println!(
        "worker finished: {} shards, {} probes, {:.1}s busy",
        report.shards, report.probes, report.seconds
    );
    run.finish(
        "worker",
        &[
            ("connect", addr.as_str().into()),
            ("shards", report.shards.into()),
            ("probes", report.probes.into()),
            ("busy_seconds", report.seconds.into()),
        ],
    )
}

/// `clado serve [--listen <addr>] [--workers N]`
///
/// The quantization-planning daemon: bounded admission with typed
/// shedding, per-request deadlines, a content-addressed Ω cache, and a
/// pool of crash-resilient workers. SIGTERM / Ctrl-C drains gracefully
/// and exits 0.
pub fn cmd_serve(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let verbose = args.switch("verbose");
    let workers: usize = args.get_or("workers", 0)?;
    let opts = ServeOptions {
        queue_depth: args.get_or("queue-depth", 16)?,
        executors: args.get_or("executors", 2)?,
        cache_capacity: args.get_or("cache-capacity", 8)?,
        cache_bytes: args.get_or("cache-bytes", 0)?,
        cache_dir: args.get("cache-dir").map(PathBuf::from),
        cache_disk_bytes: args.get_or("cache-disk-bytes", 0)?,
        heartbeat_timeout: Duration::from_millis(args.get_or("heartbeat-timeout-ms", 3000)?),
        shard_retries: args.get_or("shard-retries", 5)?,
        telemetry: run.telemetry.clone(),
        verbose,
    };
    let models = LoadedModels::default();
    let provider: clado_serve::ModelProvider = Arc::new(move |spec: &MeasureSpec| {
        models.with_set(&spec.model, spec.set_size, spec.set_seed)
    });
    let server = Server::bind(
        args.get("listen").unwrap_or("127.0.0.1:4750"),
        args.get("worker-listen").unwrap_or("127.0.0.1:0"),
        provider,
        opts,
    )?;
    let client_addr = server.client_addr();
    let worker_addr = server.worker_addr();
    // Always printed (even under --quiet): with a :0 listen address
    // these lines are the only way to learn the bound ports, and
    // scripts parse them to point `submit` / workers at the daemon.
    println!("serve listening on {client_addr}");
    println!("serve worker port {worker_addr}");
    std::io::stdout().flush()?;

    // Bridge the signal handler's static drain flag to this server's:
    // a handler can only touch statics, and the server's drain is born
    // with the server.
    let drain = server.drain_handle();
    let sig = crate::cancel::install_drain();
    std::thread::spawn(move || loop {
        if sig.load(Ordering::SeqCst) {
            drain.raise();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let mut children = Vec::new();
    for _ in 0..workers {
        children.push(spawn_worker(
            &worker_addr.to_string(),
            verbose,
            Stdio::inherit(),
        )?);
    }

    let outcome = server.run();
    // Reap the worker fleet whether the daemon drained cleanly or not.
    reap(&mut children);
    let report = outcome?;
    let shed =
        report.shed_overload + report.shed_deadline + report.shed_draining + report.shed_malformed;
    println!(
        "serve drained: {} request(s) — {} completed, {} failed, {} shed \
         (overload {}, deadline {}, draining {}, malformed {}), \
         cache {} hit(s) / {} miss(es)",
        report.requests,
        report.completed,
        report.failed,
        shed,
        report.shed_overload,
        report.shed_deadline,
        report.shed_draining,
        report.shed_malformed,
        report.cache_hits,
        report.cache_misses,
    );
    run.finish(
        "serve",
        &[
            ("listen", client_addr.to_string().into()),
            ("workers", workers.into()),
            ("requests", report.requests.into()),
            ("completed", report.completed.into()),
            ("failed", report.failed.into()),
            ("shed_overload", report.shed_overload.into()),
            ("shed_deadline", report.shed_deadline.into()),
            ("shed_draining", report.shed_draining.into()),
            ("shed_malformed", report.shed_malformed.into()),
            ("cache_hits", report.cache_hits.into()),
            ("cache_misses", report.cache_misses.into()),
        ],
    )
}

/// One `AssignRow` rendered in the `assign`/`sweep` result style.
fn print_assign_row(row: &AssignRow) {
    let map: Vec<String> = row.bits.iter().map(|b| b.to_string()).collect();
    println!(
        "{:>9.2} {:>11.4} {:>12.4e}  {}/{}  [{}]",
        row.avg_bits,
        bits_to_mb(row.cost_bits),
        row.predicted_delta_loss,
        row.method,
        row.termination,
        map.join(","),
    );
}

/// `clado submit --connect <addr> --model <id> [--op assign]`
pub fn cmd_submit(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let addr: String = args.require("connect")?;
    let op = match args.get("op").unwrap_or("assign") {
        "measure" => Op::Measure,
        "assign" => Op::Assign {
            avg_bits: args.get_or("avg-bits", 4.0)?,
        },
        "sweep" => Op::Sweep {
            from: args.get_or("from", 2.5)?,
            to: args.get_or("to", 4.0)?,
            step: args.get_or("step", 0.5)?,
        },
        other => {
            return Err(Box::new(ArgsError(format!(
                "unknown op `{other}` (measure|assign|sweep)"
            ))))
        }
    };
    // Exact requests keep the estimator fields at their zero defaults so
    // equal exact specs keep hashing equal in the daemon's Ω cache.
    let estimator = estimator_of(args)?;
    let (probe_budget, estimator_seed) = match estimator {
        Some(_) => (
            args.get_or::<u64>("probe-budget", 0)?,
            DEFAULT_ESTIMATOR_SEED,
        ),
        None => (0, 0),
    };
    let spec = MeasureSpec {
        model: args.require("model")?,
        set_size: args.get_or("set-size", 128)?,
        set_seed: args.get_or("set-seed", 0)?,
        batch_size: args.get_or("batch-size", 64)?,
        bits: args.list_or("bits", &[2u8, 4, 8])?,
        scheme: scheme_to_u8(scheme_of(args)?),
        use_prefix_cache: !args.switch("no-prefix-cache"),
        estimator: estimator.map_or(0, |k| k.tag()),
        probe_budget,
        estimator_seed,
    };
    let req = SubmitRequest {
        spec,
        op,
        deadline_ms: args.get_or("deadline-ms", 0)?,
    };
    let outcome = submit_with_retries(&addr, &req, None, args.get_or("connect-retries", 0)?)?;
    let hit_label = |hit: bool| if hit { "cache hit" } else { "cache miss" };
    match outcome.response {
        ServeMessage::MeasureDone {
            request_id,
            cache_hit,
            evaluations,
            clsm,
        } => {
            println!(
                "request {request_id}: measured Ĝ ({}, {evaluations} evaluations, {} bytes)",
                hit_label(cache_hit),
                clsm.len()
            );
            if let Some(out) = args.get("out") {
                std::fs::write(out, &clsm)?;
                run.info(&format!("wrote {out}"));
            }
        }
        ServeMessage::AssignDone {
            request_id,
            cache_hit,
            evaluations,
            row,
        } => {
            println!(
                "request {request_id}: assigned ({}, {evaluations} evaluations)",
                hit_label(cache_hit)
            );
            println!(
                "{:>9} {:>11} {:>12}  outcome  bit map",
                "avg bits", "size (MB)", "pred ΔL"
            );
            print_assign_row(&row);
        }
        ServeMessage::SweepDone {
            request_id,
            cache_hit,
            evaluations,
            rows,
        } => {
            println!(
                "request {request_id}: swept {} budget(s) ({}, {evaluations} evaluations)",
                rows.len(),
                hit_label(cache_hit)
            );
            println!(
                "{:>9} {:>11} {:>12}  outcome  bit map",
                "avg bits", "size (MB)", "pred ΔL"
            );
            for row in &rows {
                print_assign_row(row);
            }
        }
        ServeMessage::Failed {
            request_id,
            kind,
            detail,
        } => {
            return Err(Box::new(ArgsError(format!(
                "request {request_id} failed ({kind}): {detail}"
            ))))
        }
        // `submit` only returns the four final kinds above.
        other => {
            return Err(Box::new(ArgsError(format!(
                "unexpected response kind {}",
                other.kind()
            ))))
        }
    }
    run.finish(
        "submit",
        &[
            ("connect", addr.as_str().into()),
            ("op", args.get("op").unwrap_or("assign").into()),
            ("request_id", outcome.request_id.into()),
            ("queue_depth", outcome.queue_depth.into()),
        ],
    )
}

/// A `clado serve` child process spawned by the chaos harness, with the
/// addresses parsed from its startup lines.
struct ChaosDaemon {
    child: Child,
    client_addr: String,
    worker_addr: String,
    metrics_path: PathBuf,
}

/// Spawns a daemon over `cache_dir` and blocks until it prints its bound
/// addresses (the same lines the CI smoke scripts parse).
fn spawn_chaos_daemon(
    cache_dir: &std::path::Path,
    metrics_path: PathBuf,
) -> Result<ChaosDaemon, Box<dyn Error>> {
    use std::io::BufRead;
    let mut child = std::process::Command::new(std::env::current_exe()?)
        .arg("serve")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--worker-listen")
        .arg("127.0.0.1:0")
        .arg("--cache-dir")
        .arg(cache_dir)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--quiet")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout piped above");
    let mut reader = std::io::BufReader::new(stdout);
    let (mut client_addr, mut worker_addr) = (None, None);
    let mut line = String::new();
    while client_addr.is_none() || worker_addr.is_none() {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            reap([&mut child]);
            return Err(Box::new(ArgsError(
                "chaos daemon exited before printing its addresses".into(),
            )));
        }
        if let Some(rest) = line.trim().strip_prefix("serve listening on ") {
            client_addr = Some(rest.to_string());
        } else if let Some(rest) = line.trim().strip_prefix("serve worker port ") {
            worker_addr = Some(rest.to_string());
        }
    }
    // Keep draining so the daemon can never block on a full stdout pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut sink);
    });
    Ok(ChaosDaemon {
        child,
        client_addr: client_addr.expect("set above"),
        worker_addr: worker_addr.expect("set above"),
        metrics_path,
    })
}

/// Spawns `clado worker --connect <addr> --quiet` (plus `--verbose`) from
/// this binary, with stdin and stdout closed and stderr as given.
fn spawn_worker(addr: &str, verbose: bool, stderr: Stdio) -> std::io::Result<Child> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["worker", "--connect", addr, "--quiet"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
    if verbose {
        cmd.arg("--verbose");
    }
    cmd.spawn()
}

/// Kills and reaps each child; one that already exited is just reaped.
fn reap<'a>(children: impl IntoIterator<Item = &'a mut Child>) {
    for child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Percentile (nearest-rank) of an unsorted latency sample, µs.
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The daemon manifest's `serve.request` histogram p50/p95/p99 (µs), or
/// `None` when the manifest is missing, malformed or has no such histogram.
fn serve_request_percentiles(manifest: &str) -> Option<[u64; 3]> {
    let json = clado_telemetry::parse_json(manifest).ok()?;
    let hist = json.get("histograms")?.get("serve.request")?;
    let value = |key| hist.get(key)?.as_num().map(|v| v as u64);
    Some([value("p50_us")?, value("p95_us")?, value("p99_us")?])
}

/// The response with identity fields (request id, cache provenance)
/// zeroed, so a cache hit and the measurement that populated it encode
/// byte-identically. `None` for non-comparable kinds (`Failed`).
///
/// `MeasureDone` replies additionally get their CLSM measurement-stats
/// block (wall-clock seconds, threads used, fault counters, …) zeroed:
/// two concurrent cache misses for the same config measure the same
/// matrix but legitimately record different timings — only the semantic
/// payload (Ĝ, base loss, bit-widths, Ω provenance) must be stable.
fn comparable_reply(msg: &ServeMessage) -> Option<Vec<u8>> {
    let mut m = msg.clone();
    if let ServeMessage::MeasureDone { clsm, .. } = &mut m {
        if let Ok(mut sens) = clado_core::sensitivities_from_bytes(clsm) {
            sens.stats = clado_core::SensitivityStats {
                provenance: sens.stats.provenance,
                ..Default::default()
            };
            *clsm = clado_core::sensitivities_to_bytes(&sens);
        }
    }
    match &mut m {
        ServeMessage::MeasureDone {
            request_id,
            cache_hit,
            evaluations,
            ..
        }
        | ServeMessage::AssignDone {
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
        } => {
            *request_id = 0;
            *cache_hit = false;
            *evaluations = 0;
        }
        _ => return None,
    }
    Some(m.encode())
}

/// Distinct measurement configs `clado chaos` draws from; few, so
/// repeats (and the Ω cache) dominate.
const CHAOS_CONFIGS: u64 = 4;
/// Seed of the chaos clients' request mix.
const CHAOS_SEED: u64 = 7;
/// Probe batch size of every chaos request.
const CHAOS_BATCH_SIZE: u64 = 16;
/// Per-request connect budget: failed requests re-read the (possibly
/// relaunched) daemon address from the outer loop, so long backoff
/// against a dead endpoint would only stall the soak.
const CHAOS_CONNECT_RETRIES: u32 = 2;

/// `clado chaos --duration 30s [--daemon-kills 1] [--slo-p99-ms N]`
///
/// A soak harness against a live daemon it spawns itself: concurrent
/// clients submit a deterministic mix of measure/assign/sweep requests
/// (exact and estimated, with repeat configs), a churn thread SIGKILLs
/// and respawns pooled workers, and the daemon itself can be SIGKILLed
/// and relaunched over the same `--cache-dir` mid-soak. Every completed
/// reply is checked bitwise against the first answer for its
/// configuration; any divergence is a consistency violation and the run
/// exits nonzero, as does a `--slo-p99-ms` breach.
pub fn cmd_chaos(args: &Args) -> Result<(), Box<dyn Error>> {
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;
    use std::time::Instant;

    /// Golden first answer per config key: the daemon generation that
    /// produced it and the normalized reply bytes every later completion
    /// must match bitwise.
    type GoldenAnswers = HashMap<u64, (u64, Vec<u8>)>;

    let run = RunContext::from_args(args)?;
    let duration = args
        .duration("duration")?
        .unwrap_or(Duration::from_secs(30));
    let clients: usize = args.get_or("clients", 4)?;
    let workers: usize = args.get_or("workers", 2)?;
    let daemon_kills: u32 = args.get_or("daemon-kills", 0)?;
    let worker_churn_ms: u64 = args.get_or("worker-churn-ms", 0)?;
    let slo_p99_ms: u64 = args.get_or("slo-p99-ms", 0)?;
    let model: String = args.get_or("model", "resnet20".to_string())?;
    let set_size: u64 = args.get_or("set-size", 8)?;
    let bits = args.list_or("bits", &[4u8, 8])?;
    if clients == 0 {
        return Err(Box::new(ArgsError("--clients must be positive".into())));
    }

    let scratch = std::env::temp_dir().join(format!("clado-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let cache_dir = args
        .get("cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| scratch.join("omega-cache"));
    std::fs::create_dir_all(&cache_dir)?;

    // --- shared soak state ---------------------------------------------
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // (client addr, worker addr) of the *current* daemon generation.
    let daemon = spawn_chaos_daemon(&cache_dir, scratch.join("daemon-gen0.json"))?;
    let endpoints = Arc::new(Mutex::new((
        daemon.client_addr.clone(),
        daemon.worker_addr.clone(),
    )));
    // Bumped on every daemon relaunch; a cache hit for a config first
    // answered under an older generation is a cross-restart hit — the
    // persistent store, not warm memory, must have served it.
    let generation = Arc::new(AtomicU64::new(0));
    let golden: Arc<Mutex<GoldenAnswers>> = Arc::new(Mutex::new(HashMap::new()));
    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let interrupted = Arc::new(AtomicU64::new(0));
    let cache_hits = Arc::new(AtomicU64::new(0));
    let cross_restart_hits = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let mut worker_children = Vec::new();
    {
        let g = endpoints.lock().unwrap_or_else(|p| p.into_inner());
        for _ in 0..workers {
            worker_children.push(spawn_worker(&g.1, false, Stdio::null())?);
        }
    }
    let worker_children = Arc::new(Mutex::new(worker_children));
    let worker_restarts = Arc::new(AtomicU64::new(0));

    // --- traffic threads -----------------------------------------------
    let mut traffic = Vec::new();
    for client in 0..clients {
        let stop = Arc::clone(&stop);
        let endpoints = Arc::clone(&endpoints);
        let generation = Arc::clone(&generation);
        let golden = Arc::clone(&golden);
        let completed = Arc::clone(&completed);
        let failed = Arc::clone(&failed);
        let rejected = Arc::clone(&rejected);
        let interrupted = Arc::clone(&interrupted);
        let cache_hits = Arc::clone(&cache_hits);
        let cross_restart_hits = Arc::clone(&cross_restart_hits);
        let violations = Arc::clone(&violations);
        let latencies = Arc::clone(&latencies);
        let (model, bits) = (model.clone(), bits.clone());
        traffic.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(CHAOS_SEED ^ ((client as u64) << 32));
            while !stop.load(Ordering::SeqCst) {
                // Deterministic mix: config index picks the measurement
                // identity (odd configs are estimated), the op roll the
                // work done with it. Repeats are the norm by design —
                // `configs` is small, so the cache is exercised hard.
                let config = rng.gen_range(0..CHAOS_CONFIGS);
                let estimated = config % 2 == 1;
                let spec = MeasureSpec {
                    model: model.clone(),
                    set_size,
                    set_seed: config,
                    batch_size: CHAOS_BATCH_SIZE,
                    bits: bits.clone(),
                    scheme: 0,
                    use_prefix_cache: true,
                    estimator: if estimated {
                        EstimatorKind::BlockTopK.tag()
                    } else {
                        0
                    },
                    probe_budget: 0,
                    estimator_seed: if estimated { DEFAULT_ESTIMATOR_SEED } else { 0 },
                };
                let op = match rng.gen_range(0..3u8) {
                    0 => Op::Measure,
                    1 => Op::Assign { avg_bits: 6.0 },
                    _ => Op::Sweep {
                        from: 6.0,
                        to: 7.0,
                        step: 0.5,
                    },
                };
                // The golden map keys on (fingerprint, op kind): same Ω,
                // different op → different (but individually stable) reply.
                let key = spec.fingerprint()
                    ^ match op {
                        Op::Measure => 0x1111_1111,
                        Op::Assign { .. } => 0x2222_2222,
                        Op::Sweep { .. } => 0x3333_3333,
                    };
                let addr = endpoints
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .0
                    .clone();
                let gen_now = generation.load(Ordering::SeqCst);
                let started = Instant::now();
                let req = SubmitRequest {
                    spec,
                    op,
                    deadline_ms: 0,
                };
                match submit_with_retries(
                    &addr,
                    &req,
                    Some(Duration::from_secs(120)),
                    CHAOS_CONNECT_RETRIES,
                ) {
                    Ok(outcome) => {
                        if let ServeMessage::Failed { .. } = outcome.response {
                            failed.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                        latencies
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push(started.elapsed().as_micros() as u64);
                        let hit = matches!(
                            outcome.response,
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
                        );
                        if let Some(bytes) = comparable_reply(&outcome.response) {
                            let mut g = golden.lock().unwrap_or_else(|p| p.into_inner());
                            match g.get(&key) {
                                None => {
                                    g.insert(key, (gen_now, bytes));
                                }
                                Some((first_gen, first)) => {
                                    if hit {
                                        cache_hits.fetch_add(1, Ordering::SeqCst);
                                        if gen_now > *first_gen {
                                            cross_restart_hits.fetch_add(1, Ordering::SeqCst);
                                        }
                                    }
                                    if first != &bytes {
                                        violations.fetch_add(1, Ordering::SeqCst);
                                        eprintln!(
                                            "chaos: CONSISTENCY VIOLATION for config key \
                                             {key:#018x}: reply differs from the golden answer"
                                        );
                                    }
                                }
                            }
                        }
                    }
                    Err(clado_serve::ServeError::Rejected { .. }) => {
                        rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        // Connection torn mid-request — expected while the
                        // daemon is being killed; the request is simply lost.
                        interrupted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }

    // --- worker churn thread -------------------------------------------
    let churn = (worker_churn_ms > 0 && workers > 0).then(|| {
        let stop = Arc::clone(&stop);
        let endpoints = Arc::clone(&endpoints);
        let worker_children = Arc::clone(&worker_children);
        let worker_restarts = Arc::clone(&worker_restarts);
        std::thread::spawn(move || {
            let mut victim = 0usize;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(worker_churn_ms));
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let waddr = endpoints
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .1
                    .clone();
                let mut kids = worker_children.lock().unwrap_or_else(|p| p.into_inner());
                if kids.is_empty() {
                    continue;
                }
                victim = (victim + 1) % kids.len();
                reap([&mut kids[victim]]);
                if let Ok(fresh) = spawn_worker(&waddr, false, Stdio::null()) {
                    kids[victim] = fresh;
                    worker_restarts.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
    });

    // --- the soak itself: main thread schedules daemon kills -----------
    let soak_started = Instant::now();
    let mut daemon = daemon;
    let mut kills_done = 0u32;
    while soak_started.elapsed() < duration {
        let next_kill = (kills_done < daemon_kills).then(|| {
            duration
                .mul_f64(f64::from(kills_done + 1) / f64::from(daemon_kills + 1))
                .saturating_sub(soak_started.elapsed())
        });
        match next_kill {
            Some(wait) => {
                std::thread::sleep(wait.min(duration.saturating_sub(soak_started.elapsed())));
                if soak_started.elapsed() >= duration {
                    break;
                }
                run.info(&format!(
                    "chaos: SIGKILL daemon generation {kills_done} at {:.1}s",
                    soak_started.elapsed().as_secs_f64()
                ));
                reap([&mut daemon.child]);
                kills_done += 1;
                let fresh = spawn_chaos_daemon(
                    &cache_dir,
                    scratch.join(format!("daemon-gen{kills_done}.json")),
                )?;
                {
                    let mut g = endpoints.lock().unwrap_or_else(|p| p.into_inner());
                    *g = (fresh.client_addr.clone(), fresh.worker_addr.clone());
                }
                generation.fetch_add(1, Ordering::SeqCst);
                daemon = fresh;
                // The old generation's workers die with their sockets;
                // point a fresh fleet at the relaunched daemon.
                let mut kids = worker_children.lock().unwrap_or_else(|p| p.into_inner());
                reap(kids.iter_mut());
                kids.clear();
                for _ in 0..workers {
                    kids.push(spawn_worker(&daemon.worker_addr, false, Stdio::null())?);
                }
            }
            None => std::thread::sleep(
                Duration::from_millis(50).min(
                    duration
                        .saturating_sub(soak_started.elapsed())
                        .max(Duration::from_millis(1)),
                ),
            ),
        }
    }
    stop.store(true, Ordering::SeqCst);
    for t in traffic {
        let _ = t.join();
    }
    if let Some(churn) = churn {
        let _ = churn.join();
    }

    // Graceful drain of the final daemon generation (SIGTERM → exit 0),
    // so its manifest — the serve.request histogram — lands on disk.
    let pid = daemon.child.id().to_string();
    let _ = std::process::Command::new("kill")
        .arg("-TERM")
        .arg(&pid)
        .status();
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    let drained = loop {
        match daemon.child.try_wait()? {
            Some(status) => break status.success(),
            None if Instant::now() >= drain_deadline => {
                reap([&mut daemon.child]);
                break false;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    reap(
        worker_children
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter_mut(),
    );

    // --- verdict --------------------------------------------------------
    let mut lat = latencies.lock().unwrap_or_else(|p| p.into_inner()).clone();
    lat.sort_unstable();
    let (p50, p95, p99) = (
        percentile_us(&lat, 0.50),
        percentile_us(&lat, 0.95),
        percentile_us(&lat, 0.99),
    );
    let daemon_manifest = std::fs::read_to_string(&daemon.metrics_path).unwrap_or_default();
    let serve_slo = serve_request_percentiles(&daemon_manifest);
    let completed = completed.load(Ordering::SeqCst);
    let failed = failed.load(Ordering::SeqCst);
    let rejected = rejected.load(Ordering::SeqCst);
    let interrupted = interrupted.load(Ordering::SeqCst);
    let cache_hits = cache_hits.load(Ordering::SeqCst);
    let cross_restart_hits = cross_restart_hits.load(Ordering::SeqCst);
    let violations = violations.load(Ordering::SeqCst);
    let worker_restarts = worker_restarts.load(Ordering::SeqCst);

    println!(
        "chaos: {completed} completed, {failed} failed, {rejected} rejected, \
         {interrupted} interrupted over {:.1}s — cache {cache_hits} hit(s) \
         ({cross_restart_hits} across restarts), {kills_done} daemon kill(s), \
         {worker_restarts} worker restart(s), {violations} violation(s)",
        soak_started.elapsed().as_secs_f64()
    );
    println!(
        "chaos: client latency p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms{}",
        p50 as f64 / 1_000.0,
        p95 as f64 / 1_000.0,
        p99 as f64 / 1_000.0,
        match serve_slo {
            Some([a, b, c]) => format!(
                "; serve.request p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms (final generation)",
                a as f64 / 1_000.0,
                b as f64 / 1_000.0,
                c as f64 / 1_000.0
            ),
            None => String::new(),
        }
    );

    let mut config: Vec<(&str, ManifestValue)> = vec![
        ("model", model.as_str().into()),
        ("duration_secs", duration.as_secs_f64().into()),
        ("clients", clients.into()),
        ("workers", workers.into()),
        ("configs", CHAOS_CONFIGS.into()),
        ("daemon_kills", u64::from(kills_done).into()),
        ("worker_restarts", worker_restarts.into()),
        ("completed", completed.into()),
        ("failed", failed.into()),
        ("rejected", rejected.into()),
        ("interrupted", interrupted.into()),
        ("cache_hits", cache_hits.into()),
        ("cross_restart_cache_hits", cross_restart_hits.into()),
        ("consistency_violations", violations.into()),
        ("client_p50_us", p50.into()),
        ("client_p95_us", p95.into()),
        ("client_p99_us", p99.into()),
        ("drained_clean", drained.into()),
    ];
    if let Some([a, b, c]) = serve_slo {
        config.push(("serve_p50_us", a.into()));
        config.push(("serve_p95_us", b.into()));
        config.push(("serve_p99_us", c.into()));
    }
    run.finish("chaos", &config)?;

    if completed == 0 {
        return Err(Box::new(ArgsError(
            "chaos soak completed zero requests — the daemon never answered".into(),
        )));
    }
    if violations > 0 {
        return Err(Box::new(ArgsError(format!(
            "chaos soak found {violations} consistency violation(s)"
        ))));
    }
    // Gate on the daemon's own histogram when available (it excludes
    // client-side reconnect backoff), else the client-observed tail.
    let gate_p99_us = serve_slo.map_or(p99, |[_, _, p99]| p99);
    if slo_p99_ms > 0 && gate_p99_us > slo_p99_ms * 1_000 {
        return Err(Box::new(ArgsError(format!(
            "p99 {:.1} ms breaches the {slo_p99_ms} ms SLO",
            gate_p99_us as f64 / 1_000.0
        ))));
    }
    Ok(())
}

/// `clado assign --model <id> --avg-bits <f> [--sens <file>]`
pub fn cmd_assign(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let kind = model_kind(args.require::<String>("model")?.as_str())?;
    let avg_bits: f64 = args.require("avg-bits")?;
    let scheme = scheme_of(args)?;
    let algorithm = algorithm_of(args)?;
    let bits = BitWidthSet::new(&args.list_or("bits", &[2u8, 4, 8])?);
    let set_size: usize = args.get_or("set-size", 128)?;
    let set_seed: u64 = args.get_or("set-seed", 0)?;
    let stored = stored_omega(args, algorithm)?;

    let (network, sens_set, val) = load_with_val(&run, kind, set_size, set_seed);
    let mut ctx = ExperimentContext::new(network, sens_set, val, bits, scheme);
    if let Some(sm) = stored {
        if !sm.stats.provenance.is_exact() {
            run.info(&format!("Ω provenance: {}", sm.stats.provenance));
        }
        ctx.use_clado_matrix(sm);
    }
    ctx.telemetry = run.telemetry.clone();
    ctx.solver = solver_config_of(args, &run)?;
    ctx.solver_strict = args.switch("solver-strict");
    let budget = ctx.sizes.budget_from_avg_bits(avg_bits);
    let (assignment, acc) = ctx.run(algorithm, budget)?;
    report_solver_outcome(&run, &assignment.solution);
    println!(
        "{:<10} {:>7.4} MB  acc {:>6.2}%  {}",
        algorithm.label(),
        bits_to_mb(assignment.cost_bits),
        acc * 100.0,
        assignment.bitmap()
    );
    let mut config = vec![
        ("model", ManifestValue::from(kind.id())),
        ("algorithm", algorithm.label().into()),
        ("avg_bits", avg_bits.into()),
        ("scheme", format!("{scheme:?}").into()),
        ("set_seed", set_seed.into()),
    ];
    config.extend(solver_manifest(&assignment.solution));
    run.finish("assign", &config)
}

/// The Ω stored at `--sens`, if given. A stored Ω stands in for the
/// measurement, so `assign` and `sweep` can re-solve a fixed Ω (CLADO
/// variants only; the baselines measure their own matrices).
fn stored_omega(
    args: &Args,
    algorithm: Algorithm,
) -> Result<Option<SensitivityMatrix>, Box<dyn Error>> {
    match args.get("sens") {
        Some(_) if !algorithm.is_clado_variant() => Err(Box::new(ArgsError(format!(
            "--sens files apply to CLADO variants, not {algorithm:?}"
        )))),
        Some(path) => Ok(Some(load_sensitivities(std::path::Path::new(path))?)),
        None => Ok(None),
    }
}

/// `clado sweep --model <id> [--from --to --step]`
pub fn cmd_sweep(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let kind = model_kind(args.require::<String>("model")?.as_str())?;
    let from: f64 = args.get_or("from", 2.5)?;
    let to: f64 = args.get_or("to", 4.0)?;
    let step: f64 = args.get_or("step", 0.5)?;
    if !(from > 0.0 && to >= from && step > 0.0) {
        return Err(Box::new(ArgsError("invalid sweep range".into())));
    }
    let algorithm = algorithm_of(args)?;
    let scheme = scheme_of(args)?;
    let bits = BitWidthSet::new(&args.list_or("bits", &[2u8, 4, 8])?);
    let set_size: usize = args.get_or("set-size", 128)?;
    let set_seed: u64 = args.get_or("set-seed", 0)?;
    let stored = stored_omega(args, algorithm)?;

    let (mut network, sens_set, val) = load_with_val(&run, kind, set_size, set_seed);
    run.info(&format!(
        "{} (FP32 {:.2}%), {}",
        kind.display_name(),
        evaluate(&mut network, &val) * 100.0,
        algorithm.label()
    ));
    let mut ctx = ExperimentContext::new(network, sens_set, val, bits, scheme);
    if let Some(sm) = stored {
        if !sm.stats.provenance.is_exact() {
            run.info(&format!("Ω provenance: {}", sm.stats.provenance));
        }
        ctx.use_clado_matrix(sm);
    }
    ctx.telemetry = run.telemetry.clone();
    ctx.solver = solver_config_of(args, &run)?;
    ctx.solver_strict = args.switch("solver-strict");
    run.info(&format!(
        "{:>9} {:>11} {:>9}",
        "avg bits", "size (MB)", "accuracy"
    ));
    let mut avg = from;
    while avg <= to + 1e-9 {
        let budget = ctx.sizes.budget_from_avg_bits(avg);
        match ctx.run(algorithm, budget) {
            Ok((a, acc)) => println!(
                "{avg:>9.2} {:>11.4} {:>8.2}%",
                bits_to_mb(a.cost_bits),
                acc * 100.0
            ),
            Err(e) => println!("{avg:>9.2} {e:>20}"),
        }
        avg += step;
    }
    run.finish(
        "sweep",
        &[
            ("model", kind.id().into()),
            ("algorithm", algorithm.label().into()),
            ("set_seed", set_seed.into()),
            ("from", from.into()),
            ("to", to.into()),
            ("step", step.into()),
        ],
    )
}

/// `clado eval --model <id> --map 8,4,...`
pub fn cmd_eval(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let kind = model_kind(args.require::<String>("model")?.as_str())?;
    let map = args.list_or::<u8>("map", &[])?;
    let scheme = scheme_of(args)?;
    let (mut network, val) = {
        let _s = run.telemetry.span("load");
        (pretrained_network(kind), val_split())
    };
    let layers = network.quantizable_layers().len();
    if map.len() != layers {
        return Err(Box::new(ArgsError(format!(
            "--map has {} entries but {} has {layers} quantizable layers",
            map.len(),
            kind.display_name()
        ))));
    }
    if args.switch("layer-times") {
        // Per-stage `forward.<stage>` spans land in the same manifest.
        network.set_telemetry(run.telemetry.clone());
    }
    let assignment: Vec<BitWidth> = map.iter().map(|&b| BitWidth::of(b)).collect();
    let sizes = LayerSizes::new(network.layer_param_counts());
    let cost = sizes.assignment_bits(&assignment);
    let acc = {
        let _s = run.telemetry.span("eval");
        quantized_accuracy(&mut network, &assignment, scheme, &val)
    };
    println!(
        "{}: {:.4} MB ({:.2} bits/weight avg), PTQ accuracy {:.2}%",
        kind.display_name(),
        bits_to_mb(cost),
        clado_quant::avg_bits(cost, sizes.total_params()),
        acc * 100.0
    );
    run.finish(
        "eval",
        &[
            ("model", kind.id().into()),
            ("scheme", format!("{scheme:?}").into()),
            (
                "avg_bits",
                clado_quant::avg_bits(cost, sizes.total_params()).into(),
            ),
        ],
    )
}

/// `clado stress [--layers 32] [--seed 7] [--avg-bits 4]`
///
/// Solves a planted dense cross-term IQP — the worst case for eq. (11)'s
/// branch and bound — under the anytime flags. This is the robustness
/// testbed for `--solver-timeout` and Ctrl-C: the instance is seeded, the
/// degraded result is deterministic, and the result line is stable across
/// runs, so CI can diff two invocations byte for byte.
pub fn cmd_stress(args: &Args) -> Result<(), Box<dyn Error>> {
    let run = RunContext::from_args(args)?;
    let layers: usize = args.get_or("layers", 32)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let avg_bits: f64 = args.get_or("avg-bits", 4.0)?;
    let bits = args.list_or("bits", &[2u8, 4, 8])?;
    if layers == 0 || bits.is_empty() {
        return Err(Box::new(ArgsError(
            "stress needs at least one layer and one bit-width".into(),
        )));
    }
    let mut solver = solver_config_of(args, &run)?;
    // The planted instance must outlive any practical node cap so that the
    // wall-clock deadline (or Ctrl-C) is what stops it; an explicit
    // --solver-nodes still wins.
    if args.get("solver-nodes").is_none() {
        solver.max_nodes = u64::MAX;
    }

    let choices_per_layer = bits.len();
    let n = layers * choices_per_layer;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let v = rng.gen_range(-1.0f64..1.0);
            // Dense cross terms at a quarter of the diagonal scale: enough
            // coupling to defeat bound pruning, per the paper's observation
            // that Ĝ is far from separable.
            g.set(i, j, if i == j { v.abs() } else { 0.25 * v });
        }
    }
    // Parameter counts in multiples of 64 keep candidate costs and the
    // budget in whole bits.
    let params: Vec<u64> = (0..layers).map(|_| 64 * rng.gen_range(1u64..=64)).collect();
    let costs: Vec<u64> = params
        .iter()
        .flat_map(|&p| bits.iter().map(move |&b| p * b as u64))
        .collect();
    let budget = (params.iter().sum::<u64>() as f64 * avg_bits) as u64;

    let problem = IqpProblem::new(g, &vec![choices_per_layer; layers], costs, budget)?;
    let solution = problem.solve(&solver)?;
    assert!(
        problem.is_feasible(&solution.choices),
        "stress solve returned an infeasible assignment"
    );
    for d in &solution.downgrades {
        run.info(&format!("downgrade: {d}"));
    }
    println!(
        "termination={} method={} gap={:.6e} objective={:.6e} cost={}",
        solution.termination.label(),
        solution.method_used.label(),
        solution.gap,
        solution.objective,
        solution.cost,
    );
    println!("choices={:?}", solution.choices);
    let mut config: Vec<(&str, ManifestValue)> = vec![
        ("layers", layers.into()),
        ("seed", seed.into()),
        ("avg_bits", avg_bits.into()),
    ];
    config.extend(solver_manifest(&solution));
    run.finish("stress", &config)
}

/// `clado trace --file <file.clsm>`: the stored matrix's shape, how it
/// was measured, and — the v4 stats block — how the Ω was produced
/// (exact full sweep vs. estimator name / budget / seed).
fn print_clsm_summary(path: &std::path::Path) -> Result<(), Box<dyn Error>> {
    let sm = load_sensitivities(path)?;
    let dim = sm.num_layers() * sm.bits().len();
    println!(
        "{}: Ĝ {dim}×{dim} ({} layers × 𝔹 = {}), base loss {:.6}",
        path.display(),
        sm.num_layers(),
        sm.bits(),
        sm.base_loss
    );
    println!("  Ω provenance: {}", sm.stats.provenance);
    println!(
        "  {} evaluations in {:.1}s on {} thread(s) \
         ({} full, {} prefix-cache hits, {} cache builds)",
        sm.stats.evaluations,
        sm.stats.seconds,
        sm.stats.threads_used,
        sm.stats.full_evals,
        sm.stats.prefix_cache_hits,
        sm.stats.prefix_cache_builds
    );
    if sm.stats.resumed + sm.stats.quarantined > 0 {
        println!(
            "  fault recovery: {} resumed, {} quarantined",
            sm.stats.resumed, sm.stats.quarantined
        );
    }
    Ok(())
}

/// One "X" (complete) event pulled out of a trace file.
struct SpanEvent {
    name: String,
    pid: u32,
    tid: u32,
    ts_us: u64,
    dur_us: u64,
}

/// Everything `clado trace` needs from a Chrome Trace Format file:
/// complete spans, instant events, and the per-process metadata records.
struct TraceFile {
    spans: Vec<SpanEvent>,
    instants: Vec<(String, u64, Option<f64>, Option<String>)>,
    process_names: Vec<(u32, String)>,
    trace_ids: Vec<String>,
}

fn load_trace_file(path: &std::path::Path) -> Result<TraceFile, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    let json = clado_telemetry::parse_json(&text)
        .map_err(|e| ArgsError(format!("{}: not a JSON trace: {e}", path.display())))?;
    let events = json
        .as_arr()
        .ok_or_else(|| ArgsError(format!("{}: expected a JSON array", path.display())))?;
    let mut out = TraceFile {
        spans: Vec::new(),
        instants: Vec::new(),
        process_names: Vec::new(),
        trace_ids: Vec::new(),
    };
    use clado_telemetry::Json;
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_num).unwrap_or(0.0);
    for e in events {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let pid = num(e, "pid") as u32;
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => {
                if let Some(args) = e.get("args") {
                    if name == "process_name" {
                        if let Some(label) = args.get("name").and_then(Json::as_str) {
                            out.process_names.push((pid, label.to_string()));
                        }
                    } else if name == "trace_id" {
                        if let Some(id) = args.get("trace_id").and_then(Json::as_str) {
                            if !out.trace_ids.contains(&id.to_string()) {
                                out.trace_ids.push(id.to_string());
                            }
                        }
                    }
                }
            }
            Some("X") => out.spans.push(SpanEvent {
                name,
                pid,
                tid: num(e, "tid") as u32,
                ts_us: num(e, "ts") as u64,
                dur_us: num(e, "dur") as u64,
            }),
            Some("i") => {
                let (value, label) = match e.get("args") {
                    Some(args) => (
                        args.get("value").and_then(Json::as_num),
                        args.get("label").and_then(Json::as_str).map(str::to_string),
                    ),
                    None => (None, None),
                };
                out.instants.push((name, num(e, "ts") as u64, value, label));
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Per-name self-time aggregation: each span's duration minus its direct
/// children's durations, computed per (pid, tid) thread lane.
fn self_time_by_name(spans: &[SpanEvent]) -> Vec<(String, u64, u64, u64)> {
    use std::collections::HashMap;
    let mut lanes: HashMap<(u32, u32), Vec<&SpanEvent>> = HashMap::new();
    for s in spans {
        lanes.entry((s.pid, s.tid)).or_default().push(s);
    }
    // name → (self_us, total_us, count)
    let mut agg: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    for lane in lanes.values_mut() {
        // Parents start no later than their children; ties (same ts) put
        // the longer span first so it becomes the enclosing frame.
        lane.sort_by_key(|s| (s.ts_us, std::cmp::Reverse(s.dur_us)));
        // (end_us, name, dur_us, child_us)
        let mut stack: Vec<(u64, &str, u64, u64)> = Vec::new();
        fn finalize<'a>(
            frame: (u64, &'a str, u64, u64),
            agg: &mut HashMap<&'a str, (u64, u64, u64)>,
        ) {
            let (_, name, dur, child) = frame;
            let entry = agg.entry(name).or_insert((0u64, 0u64, 0u64));
            entry.0 += dur.saturating_sub(child);
            entry.1 += dur;
            entry.2 += 1;
        }
        for s in lane.iter() {
            while stack.last().is_some_and(|&(end, ..)| end <= s.ts_us) {
                let frame = stack.pop().expect("checked non-empty");
                finalize(frame, &mut agg);
            }
            if let Some(top) = stack.last_mut() {
                top.3 += s.dur_us;
            }
            stack.push((s.ts_us + s.dur_us, &s.name, s.dur_us, 0));
        }
        while let Some(frame) = stack.pop() {
            finalize(frame, &mut agg);
        }
    }
    let mut rows: Vec<(String, u64, u64, u64)> = agg
        .into_iter()
        .map(|(name, (self_us, total_us, count))| (name.to_string(), self_us, total_us, count))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// `clado trace --file <trace.json>`
///
/// Summarizes a `--trace-out` file: where the time went (top self-time
/// spans), how evenly the processes were loaded (utilization/straggler
/// report), and how the solver objective improved over time (incumbent
/// curve from the `solver.incumbents` instants).
pub fn cmd_trace(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = PathBuf::from(args.require::<String>("file")?);
    if path.extension().is_some_and(|e| e == "clsm") {
        return print_clsm_summary(&path);
    }
    let top: usize = args.get_or("top", 10)?;
    let trace = load_trace_file(&path)?;
    if trace.spans.is_empty() && trace.instants.is_empty() {
        println!("{}: no events", path.display());
        return Ok(());
    }
    let first_ts = trace.spans.iter().map(|s| s.ts_us).min().unwrap_or(0);
    let last_end = trace
        .spans
        .iter()
        .map(|s| s.ts_us + s.dur_us)
        .chain(trace.instants.iter().map(|&(_, ts, _, _)| ts))
        .max()
        .unwrap_or(0);
    let wall_us = last_end.saturating_sub(first_ts).max(1);
    match trace.trace_ids.as_slice() {
        [] => println!(
            "{}: untagged trace, {:.2}s wall",
            path.display(),
            wall_us as f64 / 1e6
        ),
        [id] => println!(
            "{}: trace {id}, {:.2}s wall",
            path.display(),
            wall_us as f64 / 1e6
        ),
        ids => println!(
            "{}: WARNING: {} distinct trace ids ({}) — mixed runs?",
            path.display(),
            ids.len(),
            ids.join(", ")
        ),
    }

    let rows = self_time_by_name(&trace.spans);
    if !rows.is_empty() {
        println!("\ntop self-time spans:");
        println!(
            "  {:<32} {:>9} {:>9} {:>7} {:>6}",
            "span", "self", "total", "count", "self%"
        );
        for (name, self_us, total_us, count) in rows.iter().take(top) {
            println!(
                "  {:<32} {:>9} {:>9} {:>7} {:>5.1}%",
                name,
                fmt_us(*self_us),
                fmt_us(*total_us),
                count,
                100.0 * *self_us as f64 / wall_us as f64
            );
        }
    }

    // Per-process utilization: busy = per-lane top-level span time (the
    // self-time pass already de-nests; here top-level totals suffice
    // because lanes serialize their spans).
    let mut pids: Vec<u32> = trace.spans.iter().map(|s| s.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    if pids.len() > 1 {
        println!("\nper-process report:");
        println!(
            "  {:<16} {:>9} {:>9} {:>7} {:>6}",
            "process", "busy", "last-end", "spans", "util%"
        );
        let mut straggler: (u32, u64) = (0, 0);
        for &pid in &pids {
            let name = trace
                .process_names
                .iter()
                .find(|(p, _)| *p == pid)
                .map(|(_, n)| n.clone())
                .unwrap_or_else(|| format!("pid {pid}"));
            let lane_spans: Vec<&SpanEvent> = trace.spans.iter().filter(|s| s.pid == pid).collect();
            // Top-level busy time per (tid) lane: sum spans not nested in
            // an earlier span of the same lane.
            use std::collections::HashMap;
            let mut by_tid: HashMap<u32, Vec<&SpanEvent>> = HashMap::new();
            for s in &lane_spans {
                by_tid.entry(s.tid).or_default().push(s);
            }
            let mut busy = 0u64;
            for lane in by_tid.values_mut() {
                lane.sort_by_key(|s| (s.ts_us, std::cmp::Reverse(s.dur_us)));
                let mut covered_until = 0u64;
                for s in lane {
                    let end = s.ts_us + s.dur_us;
                    if end > covered_until {
                        busy += end - s.ts_us.max(covered_until);
                        covered_until = end;
                    }
                }
            }
            let end = lane_spans
                .iter()
                .map(|s| s.ts_us + s.dur_us)
                .max()
                .unwrap_or(0);
            if end > straggler.1 {
                straggler = (pid, end);
            }
            println!(
                "  {:<16} {:>9} {:>9} {:>7} {:>5.1}%",
                name,
                fmt_us(busy),
                fmt_us(end.saturating_sub(first_ts)),
                lane_spans.len(),
                100.0 * busy as f64 / wall_us as f64
            );
        }
        let name = trace
            .process_names
            .iter()
            .find(|(p, _)| *p == straggler.0)
            .map(|(_, n)| n.as_str())
            .unwrap_or("?");
        println!(
            "  straggler: {name} (finished last, at {})",
            fmt_us(straggler.1.saturating_sub(first_ts))
        );
    }

    let incumbents: Vec<_> = trace
        .instants
        .iter()
        .filter(|(name, _, value, _)| name == "solver.incumbents" && value.is_some())
        .collect();
    if !incumbents.is_empty() {
        println!("\nincumbent curve (objective vs time):");
        for (_, ts, value, label) in &incumbents {
            println!(
                "  {:>9}  {:>14.6e}  {}",
                fmt_us(ts.saturating_sub(first_ts)),
                value.expect("filtered Some"),
                label.as_deref().unwrap_or("")
            );
        }
    }

    let other_instants = trace.instants.len() - incumbents.len();
    if other_instants > 0 {
        println!("\n{other_instants} other instant events (lease grants, heartbeats, ...)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parsed test arguments, checked against the subcommand's declared
    /// flags when it names one (as `main` does).
    fn args(parts: &[&str]) -> Args {
        let mut a = Args::parse(parts.iter().map(|s| s.to_string())).expect("valid test args");
        if let Some(cmd) = a.subcommand().and_then(command) {
            a.accept(cmd.flags).expect("declared test flags");
        }
        a
    }

    #[test]
    fn chaos_reads_serve_request_percentiles_from_the_manifest() {
        let manifest = r#"{
  "schema": "clado-telemetry-manifest/v1",
  "spans": [{"name": "serve.request", "count": 3, "total_s": 0.5}],
  "histograms": {
    "dist.roundtrip": {"count": 9, "p50_us": 1, "p90_us": 2, "p95_us": 3, "p99_us": 4, "max_us": 5, "mean_us": 1.5},
    "serve.request": {"count": 40, "p50_us": 1200, "p90_us": 3000, "p95_us": 4100, "p99_us": 9900, "max_us": 12000, "mean_us": 1800.25},
    "serve.service": {"count": 40, "p50_us": 7, "p90_us": 8, "p95_us": 9, "p99_us": 10, "max_us": 11, "mean_us": 8.0}
  }
}"#;
        assert_eq!(
            serve_request_percentiles(manifest),
            Some([1200, 4100, 9900])
        );
        let without = manifest.replace(
            "\"serve.request\": {\"count\"",
            "\"serve.other\": {\"count\"",
        );
        assert_eq!(serve_request_percentiles(&without), None);
        assert_eq!(serve_request_percentiles(""), None);
    }

    #[test]
    fn model_ids_resolve() {
        assert_eq!(model_kind("resnet34").unwrap(), ModelKind::ResNet34);
        assert_eq!(model_kind("mobilenet").unwrap(), ModelKind::MobileNet);
        assert!(model_kind("alexnet").is_err());
    }

    #[test]
    fn scheme_and_algorithm_parsing() {
        assert_eq!(
            scheme_of(&args(&["x"])).unwrap(),
            QuantScheme::PerTensorSymmetric
        );
        assert_eq!(
            scheme_of(&args(&["x", "--scheme", "affine"])).unwrap(),
            QuantScheme::PerChannelAffine
        );
        assert!(scheme_of(&args(&["x", "--scheme", "nope"])).is_err());
        assert_eq!(algorithm_of(&args(&["x"])).unwrap(), Algorithm::Clado);
        assert_eq!(
            algorithm_of(&args(&["x", "--algorithm", "hawq"])).unwrap(),
            Algorithm::Hawq
        );
        assert!(algorithm_of(&args(&["x", "--algorithm", "nas"])).is_err());
        assert_eq!(
            algorithm_of(&args(&["x", "--no-psd"])).unwrap(),
            Algorithm::CladoNoPsd
        );
        for other in ["hawq", "mpqco", "clado-star", "block"] {
            let err = algorithm_of(&args(&["x", "--algorithm", other, "--no-psd"])).unwrap_err();
            assert!(err.0.contains("--no-psd applies to"), "{err}");
        }
    }

    #[test]
    fn eval_rejects_wrong_map_length() {
        // Use the cached resnet20 if present; otherwise this trains once
        // (~15 s) and caches for every other test/bench on the machine.
        let a = args(&["eval", "--model", "resnet20", "--map", "8,8"]);
        let err = cmd_eval(&a).unwrap_err();
        assert!(err.to_string().contains("quantizable layers"), "{err}");
    }

    #[test]
    fn usage_covers_every_command() {
        for cmd in [
            "models",
            "train",
            "sensitivity",
            "estimate",
            "worker",
            "serve",
            "submit",
            "chaos",
            "assign",
            "sweep",
            "eval",
            "stress",
            "trace",
        ] {
            assert!(USAGE.contains(cmd), "usage missing `{cmd}`");
        }
        for flag in [
            "--solver-timeout",
            "--solver-nodes",
            "--solver-strict",
            "--trace-out",
            "--cache-dir",
            "--cache-disk-bytes",
            "--cache-bytes",
            "--connect-retries",
            "--slo-p99-ms",
            "--daemon-kills",
            "--worker-churn-ms",
        ] {
            assert!(USAGE.contains(flag), "usage missing `{flag}`");
        }
        // Every flag a command accepts is documented.
        for cmd in COMMANDS {
            for flag in cmd.flags.split_whitespace() {
                assert!(
                    USAGE.contains(&format!("--{flag}")),
                    "usage missing `--{flag}` of `{}`",
                    cmd.names[0]
                );
            }
        }
    }

    #[test]
    fn quiet_suppresses_progress_and_trace_stderr_entirely() {
        let run = RunContext::from_args(&args(&["models", "--quiet"])).unwrap();
        assert!(run.quiet);
        let p = run.telemetry.progress("probes", 100);
        for _ in 0..100 {
            p.tick();
        }
        p.finish();
        assert_eq!(
            p.lines_printed(),
            0,
            "--quiet must suppress progress output entirely"
        );
    }

    #[test]
    fn trace_out_writes_a_file_that_cmd_trace_can_summarize() {
        let dir = std::env::temp_dir().join(format!("clado-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let path_str = path.to_str().unwrap();
        let run =
            RunContext::from_args(&args(&["models", "--quiet", "--trace-out", path_str])).unwrap();
        assert!(run.telemetry.trace_enabled());
        assert_ne!(run.telemetry.trace_id(), 0);
        {
            let _outer = run.telemetry.span("load");
            {
                let _inner = run.telemetry.span("load.weights");
                run.telemetry
                    .series_push("solver.incumbents", 1.25, "warm_start");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // Keep the outer span strictly longer than the inner one: at µs
            // granularity two spans with identical (ts, dur) cannot be
            // oriented as parent/child by the summarizer.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        run.finish("models", &[]).unwrap();

        let trace = load_trace_file(&path).expect("trace file parses");
        assert_eq!(trace.spans.len(), 2, "both spans recorded");
        assert_eq!(trace.trace_ids.len(), 1, "one trace id");
        assert!(trace
            .instants
            .iter()
            .any(|(name, _, value, label)| name == "solver.incumbents"
                && *value == Some(1.25)
                && label.as_deref() == Some("warm_start")));
        // The nested span's time is attributed to it, not its parent.
        let rows = self_time_by_name(&trace.spans);
        let parent = rows.iter().find(|r| r.0 == "load").expect("parent row");
        let child = rows
            .iter()
            .find(|r| r.0 == "load.weights")
            .expect("child row");
        assert!(parent.1 <= parent.2, "self <= total");
        assert_eq!(child.1, child.2, "leaf span is all self time");

        cmd_trace(&args(&["trace", "--file", path_str])).expect("summary renders");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stress_is_deterministic_for_a_fixed_seed_under_a_zero_deadline() {
        // `--solver-timeout 0s` expires immediately: the solve must fall
        // back to its deterministic greedy floor, and two runs must agree
        // exactly.
        let a = args(&[
            "stress",
            "--layers",
            "12",
            "--solver-timeout",
            "0s",
            "--quiet",
        ]);
        cmd_stress(&a).expect("stress degrades, never errors");
        cmd_stress(&a).expect("stress degrades, never errors");
    }

    #[test]
    fn stress_solves_tiny_instances_to_proof() {
        let a = args(&["stress", "--layers", "2", "--quiet"]);
        cmd_stress(&a).expect("tiny stress instance solves");
    }

    #[test]
    fn solver_flags_parse_into_the_config() {
        let run = RunContext::from_args(&args(&["assign", "--quiet"])).unwrap();
        let config = solver_config_of(
            &args(&["assign", "--solver-timeout", "10s", "--solver-nodes", "99"]),
            &run,
        )
        .unwrap();
        assert_eq!(config.max_wall, Some(Duration::from_secs(10)));
        assert_eq!(config.max_nodes, 99);
        assert!(solver_config_of(&args(&["assign", "--solver-timeout", "x"]), &run).is_err());
    }
}
