//! End-to-end tests of the `clado` binary via subprocess.

use clado_telemetry::{parse_json, Json};
use std::process::Command;

fn clado() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clado"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = clado().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("sensitivity"));
}

#[test]
fn no_arguments_prints_usage() {
    let out = clado().output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("COMMANDS"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = clado().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn models_lists_the_zoo() {
    let out = clado().arg("models").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in [
        "resnet20",
        "resnet34",
        "resnet50",
        "mobilenetv3",
        "regnet",
        "vit",
    ] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
}

#[test]
fn missing_required_option_is_reported() {
    let out = clado().arg("train").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));
}

#[test]
fn conflicting_progress_switches_are_rejected() {
    let out = clado()
        .args(["models", "--progress", "--no-progress"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn measure_alias_is_quiet_and_writes_a_valid_manifest() {
    let dir = std::env::temp_dir().join(format!("clado-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let clsm = dir.join("sens.clsm");
    let manifest = dir.join("manifest.json");
    let out = clado()
        .args([
            "measure",
            "--model",
            "resnet20",
            "--out",
            clsm.to_str().expect("utf8 path"),
            "--set-size",
            "8",
            "--bits",
            "4,8",
            "--metrics-out",
            manifest.to_str().expect("utf8 path"),
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // --quiet leaves exactly the final result line on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim_end().lines().count(), 1, "stdout:\n{stdout}");
    assert!(stdout.contains("measured Ĝ"), "stdout:\n{stdout}");

    let doc = std::fs::read_to_string(&manifest).expect("manifest written");
    let j = parse_json(&doc).expect("manifest parses as JSON");
    assert_eq!(
        j.get("schema").and_then(Json::as_str),
        Some("clado-telemetry-manifest/v1")
    );
    assert_eq!(j.get("command").and_then(Json::as_str), Some("sensitivity"));
    assert!(
        j.get("config")
            .and_then(|c| c.get("threads"))
            .and_then(Json::as_num)
            .is_some_and(|t| t >= 1.0),
        "config.threads missing"
    );
    let counter = |name: &str| {
        j.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(
        counter("measure.evaluations"),
        counter("measure.full_evals") + counter("measure.prefix_cache_hits"),
        "every evaluation is either a full eval or a cache hit"
    );
    let spans = j.get("spans").and_then(Json::as_arr).expect("span forest");
    assert!(
        spans
            .iter()
            .any(|n| n.get("name").and_then(Json::as_str) == Some("measure")),
        "span tree has a `measure` root"
    );
    let coverage = j
        .get("span_coverage")
        .and_then(Json::as_num)
        .expect("span_coverage");
    assert!(coverage >= 0.95, "span coverage {coverage} below 95%");
}

/// The headline fault-injection scenario: a `sensitivity` sweep is
/// SIGKILL-style aborted mid-run (no unwinding, no flushing) via the
/// `journal.commit` fail point, then resumed with `--resume`. The resumed
/// run must produce a bitwise-identical `.clsm` file to an uninterrupted
/// reference run, and its manifest must report the recovery counters.
///
/// Fail points only exist in debug builds, so this test is compiled out
/// under `--release` (where the same run would simply never crash).
#[cfg(debug_assertions)]
#[test]
fn sensitivity_killed_mid_sweep_resumes_bitwise_identical() {
    use clado_core::load_sensitivities;

    let dir = std::env::temp_dir().join(format!("clado-cli-faultinj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("ckpt");
    let recovered = dir.join("recovered.clsm");
    let reference = dir.join("reference.clsm");
    let manifest = dir.join("recovered-manifest.json");
    let base_args = |out: &std::path::Path| {
        vec![
            "sensitivity".to_string(),
            "--model".into(),
            "resnet20".into(),
            "--out".into(),
            out.to_str().expect("utf8 path").into(),
            "--set-size".into(),
            "8".into(),
            "--bits".into(),
            "4,8".into(),
            "--quiet".into(),
        ]
    };

    // Uninterrupted reference run (no checkpointing, no fail points).
    let out = clado()
        .args(base_args(&reference))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Kill the checkpointed sweep at its 15th journal commit — roughly
    // 50% through the 30 work items (1 base + 15 diagonal + 14 pairwise).
    let mut args = base_args(&recovered);
    args.push("--checkpoint-dir".into());
    args.push(ckpt.to_str().expect("utf8 path").into());
    let out = clado()
        .args(&args)
        .env("CLADO_FAULTPOINTS", "journal.commit=abort,skip=14")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "the armed abort must kill the sweep");
    assert!(!recovered.exists(), "no .clsm may appear from a dead sweep");
    let shards = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "clsj")
        })
        .count();
    assert_eq!(shards, 14, "commits before the abort are durable");

    // Resume: journaled probes restore, the rest re-measure.
    args.push("--resume".into());
    args.push("--metrics-out".into());
    args.push(manifest.to_str().expect("utf8 path").into());
    let out = clado().args(&args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Bitwise-identical matrix, base loss, and dimensions.
    let a = load_sensitivities(&reference).expect("reference .clsm loads");
    let b = load_sensitivities(&recovered).expect("recovered .clsm loads");
    assert_eq!(a.base_loss.to_bits(), b.base_loss.to_bits(), "base loss");
    let dim = a.matrix().dim();
    assert_eq!(dim, b.matrix().dim());
    for u in 0..dim {
        for v in u..dim {
            assert_eq!(
                a.matrix().get(u, v).to_bits(),
                b.matrix().get(u, v).to_bits(),
                "entry ({u},{v}) differs after resume"
            );
        }
    }
    assert!(b.stats.resumed > 0, "recovered run restored probes");
    assert_eq!(
        b.stats.resumed + b.stats.evaluations,
        a.stats.evaluations,
        "every probe was either resumed or re-measured exactly once"
    );

    // The manifest records the recovery.
    let doc = std::fs::read_to_string(&manifest).expect("manifest written");
    let j = parse_json(&doc).expect("manifest parses as JSON");
    let config_num = |name: &str| {
        j.get("config")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("config.{name} missing"))
    };
    assert!(
        config_num("resumed") > 0.0,
        "manifest reports resumed probes"
    );
    assert_eq!(config_num("resumed"), b.stats.resumed as f64);
    assert_eq!(config_num("quarantined"), b.stats.quarantined as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_clsm_bitwise_equal(reference: &std::path::Path, candidate: &std::path::Path) {
    use clado_core::load_sensitivities;
    let a = load_sensitivities(reference).expect("reference .clsm loads");
    let b = load_sensitivities(candidate).expect("candidate .clsm loads");
    assert_eq!(a.base_loss.to_bits(), b.base_loss.to_bits(), "base loss");
    let dim = a.matrix().dim();
    assert_eq!(dim, b.matrix().dim(), "matrix dimension");
    for u in 0..dim {
        for v in u..dim {
            assert_eq!(
                a.matrix().get(u, v).to_bits(),
                b.matrix().get(u, v).to_bits(),
                "entry ({u},{v}) differs"
            );
        }
    }
}

/// `measure` renders only its sensitivity set's samples. Its Ω must be
/// bitwise the Ω measured in process on the same set drawn from the
/// fully generated dataset.
#[test]
fn measure_on_a_rendered_set_matches_the_generated_dataset() {
    use clado_core::{measure_sensitivities, save_sensitivities, SensitivityOptions};
    use clado_models::{pretrained, ModelKind};
    use clado_quant::BitWidthSet;
    let dir = std::env::temp_dir().join(format!("clado-cli-render-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (subset, full) = (dir.join("subset.clsm"), dir.join("full.clsm"));
    let out = clado()
        .args([
            "measure",
            "--model",
            "resnet20",
            "--set-size",
            "8",
            "--set-seed",
            "3",
            "--bits",
            "4,8",
            "--out",
            subset.to_str().expect("utf8 path"),
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut p = pretrained(ModelKind::ResNet20);
    let set = p.data.train.sample_subset(8, 3);
    let bits = BitWidthSet::new(&[4, 8]);
    let sm = measure_sensitivities(&mut p.network, &set, &bits, &SensitivityOptions::default())
        .expect("in-process measure");
    save_sensitivities(&sm, &full).expect("save");
    assert_clsm_bitwise_equal(&full, &subset);
    let _ = std::fs::remove_dir_all(&dir);
}

fn measure_args(out: &std::path::Path) -> Vec<String> {
    vec![
        "measure".to_string(),
        "--model".into(),
        "resnet20".into(),
        "--out".into(),
        out.to_str().expect("utf8 path").into(),
        "--set-size".into(),
        "8".into(),
        "--bits".into(),
        "4,8".into(),
        "--quiet".into(),
    ]
}

fn count_shards(ckpt: &std::path::Path) -> usize {
    std::fs::read_dir(ckpt).map_or(0, |it| {
        it.filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "clsj")
        })
        .count()
    })
}

/// The acceptance scenario for the distributed sweep: a coordinator with
/// three worker processes, one of which is SIGKILLed at roughly 50% of
/// the sweep. The coordinator must evict the dead worker's lease,
/// reassign it, and produce a `.clsm` bitwise-identical to a serial run.
#[test]
fn distributed_sweep_with_sigkilled_worker_is_bitwise_identical_to_serial() {
    use std::io::BufRead;

    let dir = std::env::temp_dir().join(format!("clado-cli-dist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reference = dir.join("reference.clsm");
    let distributed = dir.join("distributed.clsm");
    let ckpt = dir.join("ckpt");

    // Serial reference run.
    let out = clado()
        .args(measure_args(&reference))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Coordinator in listen mode with journaling (the journal doubles as
    // our progress probe for timing the SIGKILL).
    let mut coord_args = measure_args(&distributed);
    coord_args.extend([
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--checkpoint-dir".into(),
        ckpt.to_str().expect("utf8 path").to_string(),
        "--idle-timeout-secs".into(),
        "120".into(),
    ]);
    let mut coordinator = clado()
        .args(&coord_args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let mut stdout = std::io::BufReader::new(coordinator.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("coordinator listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();

    // Three worker processes.
    let mut workers: Vec<_> = (0..3)
        .map(|_| {
            clado()
                .args(["worker", "--connect", &addr, "--quiet"])
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("worker spawns")
        })
        .collect();

    // SIGKILL one worker once ~half the 30 shards are committed. Workers
    // spend nearly all their time mid-lease, so the kill lands mid-shard.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while count_shards(&ckpt) < 15 {
        assert!(
            std::time::Instant::now() < deadline,
            "sweep never reached 50% ({} shards committed)",
            count_shards(&ckpt)
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let mut victim = workers.remove(0);
    victim.kill().expect("SIGKILL the worker");
    victim.wait().expect("reap the victim");

    let status = coordinator.wait().expect("coordinator exits");
    for mut w in workers {
        let _ = w.wait();
    }
    assert!(status.success(), "coordinator failed after worker SIGKILL");
    assert_clsm_bitwise_equal(&reference, &distributed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Coordinator crash + resume: a distributed sweep with spawned workers
/// is aborted (SIGKILL-style, via the `journal.commit` fail point) at
/// its 15th shard commit, then resumed distributed. The resumed run must
/// restore the journaled shards and produce a bitwise-identical `.clsm`.
///
/// Fail points only exist in debug builds.
#[cfg(debug_assertions)]
#[test]
fn distributed_coordinator_abort_and_resume_is_bitwise_identical() {
    use clado_core::load_sensitivities;

    let dir = std::env::temp_dir().join(format!("clado-cli-dist-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reference = dir.join("reference.clsm");
    let recovered = dir.join("recovered.clsm");
    let ckpt = dir.join("ckpt");

    let out = clado()
        .args(measure_args(&reference))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Coordinator (with 2 spawned workers) dies at its 15th journal
    // commit — no unwinding, no flushing, exactly like a SIGKILL.
    let mut args = measure_args(&recovered);
    args.extend([
        "--workers".into(),
        "2".into(),
        "--checkpoint-dir".into(),
        ckpt.to_str().expect("utf8 path").to_string(),
        "--idle-timeout-secs".into(),
        "120".into(),
    ]);
    let out = clado()
        .args(&args)
        .env("CLADO_FAULTPOINTS", "journal.commit=abort,skip=14")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "the armed abort must kill the sweep");
    assert!(!recovered.exists(), "no .clsm may appear from a dead sweep");
    assert_eq!(
        count_shards(&ckpt),
        14,
        "commits before the abort are durable"
    );

    // Resume distributed: journaled shards restore, the rest re-measure.
    args.push("--resume".into());
    let out = clado().args(&args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_clsm_bitwise_equal(&reference, &recovered);
    let b = load_sensitivities(&recovered).expect("recovered .clsm loads");
    assert!(b.stats.resumed > 0, "resumed run restored journaled probes");
    let a = load_sensitivities(&reference).expect("reference .clsm loads");
    assert_eq!(
        b.stats.resumed + b.stats.evaluations,
        a.stats.evaluations,
        "every probe was either resumed or re-measured exactly once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The table rows `clado sweep` prints for `extra` on resnet20-mini
/// (8-sample sets, 𝔹 = {4, 8}, budgets 4.5 and 5.5 bits).
fn sweep_rows(extra: &[&str]) -> String {
    let out = clado()
        .args([
            "sweep",
            "--model",
            "resnet20",
            "--set-size",
            "8",
            "--bits",
            "4,8",
            "--from",
            "4.5",
            "--to",
            "5.5",
            "--step",
            "1",
            "--quiet",
        ])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "sweep {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sweep_honours_set_seed_and_sweeps_a_stored_omega() {
    let dir = std::env::temp_dir().join(format!("clado-cli-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let clsm = dir.join("set3.clsm");
    let mut args = measure_args(&clsm);
    args.extend(["--set-seed".into(), "3".into()]);
    let out = clado().args(&args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let set0 = sweep_rows(&[]);
    let set3 = sweep_rows(&["--set-seed", "3"]);
    let stored = sweep_rows(&["--sens", clsm.to_str().expect("utf8 path")]);
    assert_eq!(set0.lines().count(), 2, "rows:\n{set0}");
    // On this model the two sets plan differently, so a sweep that
    // ignored --set-seed (and drew set 0) would fail here.
    assert_ne!(set3, set0, "--set-seed 3 swept set 0");
    // Sweeping the stored Ω of set 3 is sweeping set 3.
    assert_eq!(stored, set3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_refuses_a_stored_omega_for_the_baselines() {
    let out = clado()
        .args([
            "sweep",
            "--model",
            "resnet20",
            "--algorithm",
            "hawq",
            "--sens",
            "unused.clsm",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("CLADO variants"));
}

/// The result line `clado assign` prints for `extra` on resnet20-mini
/// (8-sample sets, 𝔹 = {4, 8}, 5 average bits).
fn assign_line(extra: &[&str]) -> String {
    let out = clado()
        .args([
            "assign",
            "--model",
            "resnet20",
            "--avg-bits",
            "5",
            "--set-size",
            "8",
            "--bits",
            "4,8",
            "--quiet",
        ])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "assign {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn assign_no_psd_solves_clado_no_psd_with_and_without_a_stored_omega() {
    let dir = std::env::temp_dir().join(format!("clado-cli-nopsd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let clsm = dir.join("set0.clsm");
    let out = clado()
        .args(measure_args(&clsm))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let measured = assign_line(&["--no-psd"]);
    let stored = assign_line(&["--no-psd", "--sens", clsm.to_str().expect("utf8 path")]);
    assert!(measured.starts_with("CLADO-noPSD"), "{measured}");
    // The stored Ω of set 0 is the Ω assign measures for set 0.
    assert_eq!(stored, measured);

    let refused = clado()
        .args(["assign", "--model", "resnet20", "--avg-bits", "5"])
        .args(["--algorithm", "hawq", "--no-psd"])
        .output()
        .expect("binary runs");
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--no-psd applies to"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn assign_honours_set_seed() {
    let dir = std::env::temp_dir().join(format!("clado-cli-assign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let clsm = dir.join("set3.clsm");
    let mut args = measure_args(&clsm);
    args.extend(["--set-seed".into(), "3".into()]);
    let out = clado().args(&args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let set3 = assign_line(&["--set-seed", "3"]);
    assert!(set3.starts_with("CLADO "), "{set3}");
    // On this model the two sets plan differently, so an assign that
    // ignored --set-seed (and drew set 0) would fail here.
    assert_ne!(set3, assign_line(&[]), "--set-seed 3 assigned from set 0");
    // Assigning from the stored Ω of set 3 is assigning from set 3.
    assert_eq!(
        assign_line(&["--sens", clsm.to_str().expect("utf8 path")]),
        set3
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_fail_and_removed_flags_warn() {
    let out = clado()
        .args(["assign", "--model", "resnet20", "--avg-bits", "3"])
        .args(["--algoritm", "hawq"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag `--algoritm` for `assign`"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE"), "{stderr}");

    let out = clado()
        .args(["models", "--pool", "--integer", "--estimator-seed", "7"])
        .args(["--no-batched-probes", "--retries", "2", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "pool",
        "integer",
        "estimator-seed",
        "no-batched-probes",
        "retries",
    ] {
        assert!(
            stderr.contains(&format!("--{flag} was removed")),
            "{stderr}"
        );
    }
}

#[test]
fn the_removed_adaptive_estimator_is_refused_by_name() {
    let out = clado()
        .args(["estimate", "--model", "resnet20", "--estimator", "adaptive"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("estimator 'adaptive' was removed"),
        "{stderr}"
    );
}

#[test]
fn estimate_quiet_prints_only_the_report_line() {
    let out = clado()
        .args([
            "estimate",
            "--model",
            "resnet20",
            "--set-size",
            "8",
            "--bits",
            "4,8",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim_end().lines().count(), 1, "stdout:\n{stdout}");
    assert!(stdout.contains("blocktopk"), "stdout:\n{stdout}");
}

#[test]
fn stress_deadline_returns_the_warm_start_with_one_downgrade() {
    // The planted instance outlives any node cap, so the 1 s deadline
    // stops branch and bound and the completed local-search warm start is
    // returned, with exactly one fallback in the trail.
    let dir = std::env::temp_dir().join(format!("clado-cli-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("m.json");
    let out = clado()
        .args([
            "stress",
            "--solver-timeout",
            "1s",
            "--metrics-out",
            manifest.to_str().expect("utf8 path"),
            "--no-progress",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("termination=deadline_exceeded method=local_search"),
        "stdout:\n{stdout}"
    );
    let doc = std::fs::read_to_string(&manifest).expect("manifest written");
    let j = parse_json(&doc).expect("manifest parses as JSON");
    let config = |name: &str| j.get("config").and_then(|c| c.get(name));
    assert_eq!(
        config("solver_downgrades").and_then(Json::as_num),
        Some(1.0)
    );
    assert_eq!(
        config("solver_method").and_then(Json::as_str),
        Some("local_search")
    );
    let counter = |name: &str| {
        j.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
    };
    assert_eq!(counter("solver.downgrades"), Some(1.0));
    assert_eq!(counter("solver.downgrades.deadline_exceeded"), Some(1.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_requires_connect() {
    let out = clado().arg("worker").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--connect"));
}

#[test]
fn sensitivity_resume_requires_checkpoint_dir() {
    let out = clado()
        .args([
            "sensitivity",
            "--model",
            "resnet20",
            "--out",
            "unused.clsm",
            "--resume",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"),
        "error names the missing flag"
    );
}

#[test]
fn invalid_model_is_reported() {
    let out = clado()
        .args(["train", "--model", "alexnet"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));
}

/// SIGTERM drains `clado serve` through its signal self-pipe: the daemon
/// prints its lifetime report and exits 0. The drain handler is in place
/// by the time the ports are announced, so the signal is sent as soon as
/// they are read.
#[cfg(unix)]
#[test]
fn serve_drains_on_sigterm_and_exits_zero() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut daemon = clado()
        .args(["serve", "--listen", "127.0.0.1:0", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("stdout"));
    let mut announced = String::new();
    for _ in 0..2 {
        stdout.read_line(&mut announced).expect("port announcement");
    }
    assert!(announced.contains("serve worker port"), "{announced}");
    let kill = Command::new("kill")
        .args(["-s", "TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(exit) = daemon.try_wait().expect("daemon status") {
            break exit;
        }
        if Instant::now() >= deadline {
            let _ = daemon.kill();
            panic!("the daemon did not drain within 30 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let (mut report, mut stderr) = (String::new(), String::new());
    stdout.read_to_string(&mut report).expect("stdout");
    let mut err = daemon.stderr.take().expect("stderr");
    err.read_to_string(&mut stderr).expect("stderr");
    assert!(exit.success(), "exit {exit:?}; stderr:\n{stderr}");
    assert!(report.contains("serve drained"), "{report}\n{stderr}");
}
