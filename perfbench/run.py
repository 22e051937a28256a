#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload plan-resnet34 --seed 1 --seconds 25 --trace 0

Builds the `clado` binary and the `perfbench` driver (release, offline,
into $CARGO_TARGET_DIR or .bench_build), trains the two zoo models once
into the benchmark's own model cache (.bench_cache/models), then runs the
driver. Its last stdout line is the result JSON. Extra flags (--smoke,
--corrupt-reference) are passed through to the driver; see README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(ROOT, ".bench_cache")
MODELS = ("resnet34", "vit")
# The driver must finish well inside the 180 s a run is allowed.
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the binaries are built from (the lock
    files are generated, and every dependency is an in-tree path)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "src", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".py"))
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    """SHA of the working tree, or "none" when ROOT is not a git checkout
    (git is kept from looking in the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    if out.returncode != 0:
        return "none"
    return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def build(target, binaries, digest):
    """Builds both binaries unless they were built from these sources.

    The stamp matters outside git: a build script of the repo watches
    `.git/HEAD`, and without that file cargo rebuilds on every call.
    """
    stamp = os.path.join(target, "perfbench.stamp")
    if all(os.path.isfile(b) for b in binaries) and os.path.isfile(stamp):
        with open(stamp) as fh:
            if fh.read() == digest:
                return
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "clado-cli"],
                  ["--manifest-path", os.path.join(BENCH, "Cargo.toml")]):
        res = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *extra],
            cwd=ROOT, env=env, stdout=sys.stderr,
        )
        if res.returncode != 0:
            fail("build failed", 3)
    with open(stamp, "w") as fh:
        fh.write(digest)


def train(clado, env):
    """Trains each model once; later runs load it from the cache."""
    cached = os.listdir(env["CLADO_CACHE_DIR"])
    for model in MODELS:
        if any(f.startswith(model + "-") for f in cached):
            continue
        res = subprocess.run(
            [clado, "train", "--model", model, "--quiet"],
            env=env, stdout=sys.stderr,
        )
        if res.returncode != 0:
            fail(f"training {model} failed", 3)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args, passthrough = p.parse_known_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        fail("run from the root of a clado source checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    clado = os.path.join(target, "release", "clado")
    driver = os.path.join(target, "release", "perfbench")
    digest = source_digest()
    build(target, (clado, driver), digest)

    env = dict(os.environ, CLADO_CACHE_DIR=os.path.join(CACHE, "models"))
    os.makedirs(env["CLADO_CACHE_DIR"], exist_ok=True)
    train(clado, env)

    cmd = [
        driver,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--clado", clado,
        "--work", os.path.join(CACHE, "work", args.workload),
        "--git", git_sha(),
        "--source", digest,
        *passthrough,
    ]
    # A session of its own, so a timeout can take down the whole tree
    # (daemon, pool workers, coordinator) and not only the driver.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s", 4)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # reap any straggler in the group
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
