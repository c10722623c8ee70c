#!/usr/bin/env bash
# The full local gate: build, tests, lints, formatting — in both metrics
# modes. CI-equivalent; run before pushing.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== build (obs-off) =="
cargo build --workspace --features ipe/obs-off

echo "== tests =="
cargo test -q --workspace

echo "== tests (obs-off) =="
cargo test -q -p ipe-obs -p ipe-core -p ipe-index -p ipe-oodb -p ipe-query -p ipe-repl -p ipe-service -p ipe-store -p ipe-tenant --features obs-off

echo "== service smoke (incl. 64-connection reactor burst) =="
# Starts its own `ipe serve` and fails unless it exits 0 after
# POST /v1/shutdown.
./target/release/service_load --smoke

echo "== reactor partial-I/O edges =="
# Slow-loris heads, split request lines, write backpressure, mid-body
# deadline expiry — the front end's worst-case socket behaviour.
cargo test -q -p ipe-service --test reactor_edges

echo "== metrics-lint =="
# Prometheus exposition must pass the in-repo format lint, in both modes:
# the service-level test hits GET /metrics?format=prometheus on a live
# server and runs ipe_obs::prom::lint over the body.
cargo test -q -p ipe-obs prom
cargo test -q -p ipe-service --test server prometheus_
cargo test -q -p ipe-service --test server prometheus_ --features obs-off

echo "== batch smoke =="
./target/release/batch_bench --smoke

echo "== index smoke =="
./target/release/index_bench --smoke

echo "== query smoke =="
./target/release/query_bench --smoke

echo "== store smoke =="
./target/release/store_bench --smoke

echo "== store kill -9 recovery smoke =="
./target/release/store_bench --kill9-smoke

echo "== replication smoke =="
./target/release/repl_bench --smoke

echo "== tenant smoke =="
./target/release/tenant_bench --smoke

echo "== WAL v1 -> v2 migration =="
cargo test -q -p ipe-store --test migration

echo "== replication kill -9 catch-up smoke =="
./target/release/repl_bench --kill9-smoke

echo "== benchmark build and self-tests =="
# perfbench/ is its own cargo workspace that compiles against
# ipe-service's public API; building it here keeps a refactor of that API
# from breaking the benchmark unnoticed.
python3 perfbench/run.py --test

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (obs-off) =="
cargo clippy --workspace --all-targets --features ipe/obs-off -- -D warnings

echo "== fmt =="
cargo fmt --check

echo "OK: all checks passed"
