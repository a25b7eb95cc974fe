#!/usr/bin/env bash
# The CI pipeline: build, tests, the byte-for-byte reproduction of the
# paper results, the benchmark package, rustdoc, format check and clippy
# (of the workspace and of the benchmark package). CI runs exactly this
# script; run it locally before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# Every test target once, among them: the golden IR dump (compiler
# pipeline output pinned, one section per pass), the layout/shape
# properties (AoS = SoA and span kernels = per-cell reference, bit for
# bit), the FEM and LBM row-path properties (each interior body = its
# per-cell body, bit for bit), every EXPERIMENTS.md verdict on the paper's
# figures (crates/bench/tests/paper_shapes.rs), and the end-to-end gates:
# functional executor (parallel_replay_gate), fusion (fusion_properties),
# temporal blocking (temporal_properties), faults (fault_recovery), link
# faults and stragglers (link_fault_properties), serving (serve.rs),
# hierarchical collectives (paper_shapes and tests/collective_properties)
# and chunk events (tests/collective_properties).
echo "==> cargo test --workspace --quiet"
cargo test --workspace --quiet

# The virtual-clock contract: `repro all` rewrites results/*.txt and the
# EXPERIMENTS.md tables, and none of their bytes may move. On a failure the
# regenerated files stay in the tree, so `git diff` shows what moved.
echo "==> repro all reproduces results/*.txt and EXPERIMENTS.md byte for byte"
saved="$(mktemp -d)"
trap 'rm -rf "$saved"' EXIT
cp -r results EXPERIMENTS.md "$saved"/
cargo run --release --quiet -p neon-bench --bin repro -- all >/dev/null
diff -r "$saved/results" results
diff "$saved/EXPERIMENTS.md" EXPERIMENTS.md

echo "==> benchmark package unit tests (it builds against the crates' public API only)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (all five workloads, both passes, every output checked)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke >/dev/null

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# `benchmark/` is a workspace of its own, which the root-level fmt and
# clippy do not reach.
echo "==> cargo fmt --manifest-path benchmark/Cargo.toml -- --check"
cargo fmt --manifest-path benchmark/Cargo.toml -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "All checks passed."
