//! The traced run's per-layer costs. Every number here comes from
//! timing a layer's public function from this file, or from counters the
//! library already keeps; nothing is added inside the program.

use crate::plan::{self, Loaded};
use crate::util::{median, secs, Report};
use crate::{Ctx, Outcome};
use clado_core::{
    advance_prefix_cache, build_prefix_cache, eval_loss, eval_loss_from, measure_sensitivities,
    quant_error_table, solve_with_matrix, SensitivityOptions, ShardContext, PROBE_BATCH,
};
use clado_estim::{estimate_sensitivities, EstimatorKind, EstimatorOptions};
use clado_models::{pretrained, ModelKind};
use clado_nn::Network;
use clado_quant::{LayerSizes, QuantScheme};
use clado_solver::SolverConfig;
use clado_telemetry::Telemetry;
use clado_tensor::{conv2d_forward, matmul, matmul_a_bt, Conv2dSpec, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Median wall time in ms of `reps` calls of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t) * 1e3
        })
        .collect();
    median(&samples)
}

/// Root-stage names in execution order, read from the `forward.<stage>`
/// spans the network already records when telemetry is attached.
fn stage_names(net: &mut Network, x: &Tensor) -> Vec<String> {
    let t = Telemetry::new();
    t.set_trace_enabled(true);
    let mut probe = net.clone();
    probe.set_telemetry(t.clone());
    probe.forward(x.clone(), false);
    clado_telemetry::flush_thread_local();
    let mut events = t.take_trace_events();
    events.sort_by_key(|e| e.ts_us);
    events
        .into_iter()
        .filter_map(|e| e.name.strip_prefix("forward.").map(str::to_string))
        .collect()
}

/// Stage-boundary activations `x_0 … x_S` for one input batch.
fn boundaries(net: &mut Network, x: &Tensor) -> Vec<Tensor> {
    let mut acts = vec![x.clone()];
    for s in 0..net.num_stages() {
        let next = net.forward_range(s, s + 1, acts[s].clone(), false);
        acts.push(next);
    }
    acts
}

fn filled(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|i| ((i % 97) as f32 - 48.0) / 97.0).collect();
    Tensor::from_vec(shape, data).expect("shape matches data")
}

/// `nn.stage_ms.<model>.<stage>` for every root stage.
fn stage_costs(report: &mut Report, model: &str, net: &mut Network, x: &Tensor) {
    let names = stage_names(net, x);
    let acts = boundaries(net, x);
    // `acts` has one more entry (the logits) than there are stages.
    for (s, input) in acts.iter().enumerate().take(net.num_stages()) {
        let name = names.get(s).cloned().unwrap_or_else(|| format!("s{s}"));
        let ms = time_ms(7, || {
            black_box(net.forward_range(s, s + 1, input.clone(), false));
        });
        report.set(format!("nn.stage_ms.{model}.{name}"), ms, "ms");
    }
}

/// `tensor.conv2d_gflops`: `conv2d_forward` over the model's quantizable
/// conv shapes at probe batch. Geometry is computed from the weights and
/// the stage-boundary activations: a conv that changes the channel count
/// opens a downsampling block (stride 2, stage input size); the others
/// run at the stage's output size.
fn conv_rate(report: &mut Report, net: &mut Network, x: &Tensor) {
    let acts = boundaries(net, x);
    let layers = net.quantizable_layers().to_vec();
    let weights: Vec<Tensor> = (0..layers.len()).map(|i| net.weight(i)).collect();
    let downsamples = |stage: usize| {
        layers.iter().zip(&weights).any(|(l, w)| {
            let d = w.shape().dims().to_vec();
            l.stage == stage && d.len() == 4 && d[0] != d[1]
        })
    };
    let mut convs = Vec::new();
    let mut flops = 0.0;
    for (l, w) in layers.iter().zip(&weights) {
        let d = w.shape().dims().to_vec();
        if d.len() != 4 {
            continue;
        }
        let (cout, cin, k) = (d[0], d[1], d[2]);
        let in_hw = acts[l.stage].shape().dims()[2];
        let (stride, hw) = match (cin != cout, downsamples(l.stage)) {
            (true, _) => (2, in_hw),
            (false, true) => (1, in_hw / 2),
            (false, false) => (1, in_hw),
        };
        let spec = Conv2dSpec::new(cin, cout, k, stride, k / 2);
        let out = spec.out_size(hw);
        flops += 2.0 * (PROBE_BATCH * cout * out * out * cin * k * k) as f64;
        convs.push((filled(&[PROBE_BATCH, cin, hw, hw]), w.clone(), spec));
    }
    let ms = time_ms(9, || {
        for (input, w, spec) in &convs {
            black_box(conv2d_forward(input, w, None, spec));
        }
    });
    report.set("tensor.conv2d_gflops", flops / (ms * 1e-3) / 1e9, "GFLOP/s");
    report.note(format!(
        "tensor.conv2d_gflops: computed {:.3} GFLOP per pass over {} conv shapes",
        flops / 1e9,
        convs.len()
    ));
}

/// `tensor.sgemm_gflops`: the model's dense products (`x·Wᵀ` with
/// `rows = batch × tokens`) plus per-head attention products
/// (`Q·Kᵀ`, `A·V`), with token count and width read from the encoder's
/// boundary activation.
fn gemm_rate(report: &mut Report, net: &mut Network, x: &Tensor, heads: usize) {
    let acts = boundaries(net, x);
    let layers = net.quantizable_layers().to_vec();
    let mut products: Vec<(Tensor, Tensor, bool)> = Vec::new();
    let mut flops = 0.0;
    let mut tokens = 1;
    for l in &layers {
        let w = net.weight(l.index);
        let d = w.shape().dims().to_vec();
        if d.len() != 2 {
            continue;
        }
        let a = acts[l.stage].shape().dims().to_vec();
        let rows = if a.len() == 3 { a[0] * a[1] } else { a[0] };
        if a.len() == 3 {
            tokens = a[1];
        }
        flops += 2.0 * (rows * d[0] * d[1]) as f64;
        products.push((filled(&[rows, d[1]]), w, true));
    }
    let width = acts
        .iter()
        .find(|a| a.shape().dims().len() == 3)
        .map_or(0, |a| a.shape().dims()[2]);
    if width > 0 && heads > 0 {
        let dh = width / heads;
        let q = filled(&[tokens, dh]);
        let attn = filled(&[tokens, tokens]);
        let per_head = 2.0 * (2 * tokens * tokens * dh) as f64;
        flops += per_head * (PROBE_BATCH * heads) as f64;
        for _ in 0..PROBE_BATCH * heads {
            products.push((q.clone(), q.clone(), true));
            products.push((attn.clone(), q.clone(), false));
        }
    }
    let ms = time_ms(9, || {
        for (a, b, transposed) in &products {
            black_box(if *transposed {
                matmul_a_bt(a, b)
            } else {
                matmul(a, b)
            });
        }
    });
    report.set("tensor.sgemm_gflops", flops / (ms * 1e-3) / 1e9, "GFLOP/s");
    report.note(format!(
        "tensor.sgemm_gflops: computed {:.4} GFLOP per pass over {} products",
        flops / 1e9,
        products.len()
    ));
}

/// Fills every per-layer metric for a traced run, on the workload's model
/// and first sensitivity set (`l`) and at its solver budgets
/// (`ctx.budgets`).
pub fn collect(ctx: &Ctx, l: &mut Loaded, out: &mut Outcome) {
    let r = &mut out.report;
    let bits = plan::bits();
    let scheme = QuantScheme::PerTensorSymmetric;

    // models: the trained-model cache load.
    r.set(
        "models.load_ms",
        time_ms(3, || {
            pretrained(l.kind);
        }),
        "ms",
    );

    // tensor + nn on both plan models at probe batch.
    for (kind, id) in [(ModelKind::ResNet34, "resnet34"), (ModelKind::ViT, "vit")] {
        let mut p = pretrained(kind);
        let (x, _) = p.data.train.batch(0, PROBE_BATCH);
        stage_costs(r, id, &mut p.network, &x);
        match kind {
            ModelKind::ResNet34 => conv_rate(r, &mut p.network, &x),
            _ => gemm_rate(
                r,
                &mut p.network,
                &x,
                clado_models::ViTConfig::vit_mini(10, 0).heads,
            ),
        }
    }

    // quant: the Δw table the sweep starts from.
    let net = &mut l.p.network;
    r.set(
        "quant.error_table_ms",
        time_ms(3, || {
            quant_error_table(net, &bits, scheme);
        }),
        "ms",
    );

    // core probe primitives, at the middle quantizable layer's stage.
    let mid = net.stage_of(net.quantizable_layers().len() / 2);
    let set = &l.set;
    r.set(
        "core.full_eval_ms",
        time_ms(5, || {
            eval_loss(net, set, PROBE_BATCH);
        }),
        "ms",
    );
    r.set(
        "core.prefix_build_ms",
        time_ms(5, || {
            build_prefix_cache(net, set, PROBE_BATCH, mid);
        }),
        "ms",
    );
    let cache = build_prefix_cache(net, set, PROBE_BATCH, mid);
    let to = (mid + 1).min(net.num_stages());
    r.set(
        "core.prefix_advance_ms",
        time_ms(5, || {
            advance_prefix_cache(net, &cache, to);
        }),
        "ms",
    );
    r.set(
        "core.suffix_eval_ms",
        time_ms(5, || {
            eval_loss_from(net, &cache);
        }),
        "ms",
    );

    // core counts from one sweep with the library's own counters on.
    let t = Telemetry::new();
    let opts = SensitivityOptions {
        threads: ctx.nproc,
        telemetry: t.clone(),
        ..Default::default()
    };
    let t0 = Instant::now();
    let traced = measure_sensitivities(net, set, &bits, &opts);
    let traced_s = secs(t0);
    if let Ok(sm) = &traced {
        let st = sm.stats;
        r.set("core.full_evals", st.full_evals as f64, "count");
        r.set("core.suffix_evals", st.prefix_cache_hits as f64, "count");
        r.set("core.prefix_builds", st.prefix_cache_builds as f64, "count");
        r.set(
            "core.prefix_advances",
            t.counter_value("measure.prefix_cache_advances") as f64,
            "count",
        );
        r.set(
            "core.prefix_hit_ratio",
            st.prefix_cache_hits as f64 / st.evaluations.max(1) as f64,
            "ratio",
        );
        r.note(format!(
            "core counters from one {}-thread sweep of {:.3} s",
            ctx.nproc, traced_s
        ));
    }

    // core shard path vs the engine, on a small set of the same model.
    let small =
        l.p.data
            .train
            .sample_subset(ctx.sizes.shard_set, l.set_seed);
    let shard_ctx = ShardContext::new(net, small.len(), &bits, scheme, PROBE_BATCH, true);
    let mut replica = net.clone();
    let off = Telemetry::disabled();
    let shard_ms: Vec<f64> = shard_ctx
        .shards()
        .into_iter()
        .map(|spec| {
            let t = Instant::now();
            shard_ctx.run_shard(&mut replica, &small, spec, &off);
            secs(t) * 1e3
        })
        .collect();
    let mut engine = |threads: usize| {
        let t = Instant::now();
        let opts = SensitivityOptions {
            threads,
            ..Default::default()
        };
        measure_sensitivities(net, &small, &bits, &opts).map(|_| secs(t) * 1e3)
    };
    let (serial, parallel) = (engine(1), engine(ctx.nproc));
    r.set("core.shard_service_ms", median(&shard_ms), "ms");
    if let (Ok(serial_ms), Ok(parallel_ms)) = (serial, parallel) {
        r.set(
            "core.shard_vs_engine_ratio",
            shard_ms.iter().sum::<f64>() / serial_ms,
            "ratio",
        );
        r.set("core.thread_scaling", serial_ms / parallel_ms, "ratio");
    }

    // solver, at the workload's budgets on the Ω of the counted sweep.
    if let Ok(sm) = &traced {
        let sizes = LayerSizes::new(net.layer_param_counts());
        r.set(
            "solver.psd_project_ms",
            time_ms(3, || {
                sm.psd_projected();
            }),
            "ms",
        );
        let projected = sm.psd_projected();
        let (mut solve_ms, mut nodes, mut proved) = (Vec::new(), 0u64, 0usize);
        for &avg in ctx.budgets {
            let t = Instant::now();
            if let Ok(a) = solve_with_matrix(
                &projected,
                &bits,
                &sizes,
                sizes.budget_from_avg_bits(avg),
                &SolverConfig::default(),
            ) {
                solve_ms.push(secs(t) * 1e3);
                nodes += a.solution.nodes_explored;
                proved += usize::from(a.solution.proved_optimal);
            }
        }
        if !solve_ms.is_empty() {
            r.timing("solver.solve_ms", &solve_ms, "ms");
            r.set("solver.nodes", nodes as f64, "count");
            r.set(
                "solver.proved_frac",
                proved as f64 / solve_ms.len() as f64,
                "ratio",
            );
        }
    }

    // estim: blocktopk at the default budget on the serve miss config.
    let mut rn = pretrained(ModelKind::ResNet34);
    let miss_set = rn
        .data
        .train
        .sample_subset(ctx.sizes.miss_set, crate::serve::miss_seed(ctx.seed, 0));
    let t = Instant::now();
    if let Ok(est) = estimate_sensitivities(
        &mut rn.network,
        &miss_set,
        &bits,
        &EstimatorOptions {
            measure: SensitivityOptions {
                threads: ctx.nproc,
                ..Default::default()
            },
            ..EstimatorOptions::new(EstimatorKind::BlockTopK)
        },
    ) {
        r.set("estim.estimate_ms", secs(t) * 1e3, "ms");
        r.set("estim.probe_fraction", est.probe_fraction(), "ratio");
    }

    // Layers this workload never calls did no work.
    for &(name, unit) in crate::DIST_METRICS.iter().chain(crate::SERVE_METRICS) {
        r.metrics.entry(name.to_string()).or_insert((0.0, unit));
    }
}
