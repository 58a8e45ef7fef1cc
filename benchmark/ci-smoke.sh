#!/usr/bin/env bash
# Smoke run of the J-QoS benchmark: every workload once, one 0.3 s trial per
# phase, correctness gates only.  Not a measurement; it fails when a gate
# fails, a metric name is misspelt or the benchmark no longer builds against
# the workspace's public API.  Under 20 s after the build.
#
# Run from anywhere; ready to be wired into .github/workflows as
#   - run: benchmark/ci-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- suite --smoke
