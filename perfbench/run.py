#!/usr/bin/env python3
"""Builds the release `ipe` binary and the benchmark, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload complete_hot --seed 1 --seconds 30 --trace 0

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`); build output
goes to stderr. The benchmark's notes and its JSON result line go to
stdout, the result line last. The exit status is the benchmark's: 0 only
when every answer was right and every validity gate held.

`python3 perfbench/run.py --test` builds the same way and runs the
benchmark's own tests.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; leave room for the wrapper itself.
RUN_TIMEOUT_S = 175


def cargo(args, env):
    """Runs one cargo command from the root, its output on stderr."""
    return subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr).returncode


def tree_files(base):
    """Every file under `base` (or `base` itself), in a stable order."""
    if os.path.isfile(base):
        yield base
        return
    for parent, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "target")
        for name in sorted(files):
            yield os.path.join(parent, name)


def source_revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        for path in tree_files(os.path.join(ROOT, top)):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def rustc_version(env):
    try:
        return subprocess.run(
            ["rustc", "--version"], env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    for build in (
        ["build", "--release", "--offline", "--manifest-path", "Cargo.toml", "--bin", "ipe"],
        ["build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        code = cargo(build, env)
        if code != 0:
            print(f"perfbench: build failed: cargo {' '.join(build)}", file=sys.stderr)
            return code or 1
    ipe = os.path.join(target, "release", "ipe")
    if sys.argv[1:] == ["--test"]:
        env["PERFBENCH_IPE"] = ipe
        return cargo(
            ["test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"], env
        )
    env["PERFBENCH_REV"] = source_revision()
    env["PERFBENCH_RUSTC"] = rustc_version(env)
    cmd = [
        os.path.join(target, "release", "ipe-perfbench"),
        *sys.argv[1:],
        "--ipe", ipe,
        "--work-dir", os.path.join(target, "perfbench"),
    ]
    # Its own session, so a timeout takes the spawned servers down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
