#!/usr/bin/env bash
# The CI pipeline: build, tests, smoke gates, the benchmark package,
# rustdoc, format check and clippy. CI runs exactly this script; run it
# locally before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# Every test target once, among them: the golden IR dump (compiler
# pipeline output pinned, incl. layout-select), the layout/shape
# properties (AoS = SoA and span kernels = per-cell reference, bit for
# bit), the FEM and LBM row-path properties (each interior body = its
# per-cell body, bit for bit).
echo "==> cargo test --workspace --quiet"
cargo test --workspace --quiet

echo "==> functional executor smoke (parallel must match serial bit-for-bit)"
cargo run --release -p neon-bench --bin repro_functional -- --smoke

echo "==> fusion smoke (fused must match unfused bit-for-bit and cut launches/bytes)"
cargo run --release -p neon-bench --bin repro_fusion -- --smoke

echo "==> temporal smoke (super-steps bit-identical, 1 deep round per k iters, 4-dev win >= 25%)"
cargo run --release -p neon-bench --bin repro_temporal -- --smoke

echo "==> fault smoke (retry/rollback/eviction must recover bit-identically)"
cargo run --release -p neon-bench --bin repro_faults -- --smoke

echo "==> serving smoke (multiplexed jobs bit-identical to solo, wfq >= 1.3x fifo, Jain >= 0.9)"
cargo run --release -p neon-bench --bin repro_serve -- --smoke

echo "==> hierarchical smoke (bit-identical, >=20% win on [2,2]x16MiB, fewer slow-link bytes, chunk-events never loses)"
cargo run --release -p neon-bench --bin repro_hierarchical -- --smoke

echo "==> degraded-link smoke (transient overhead <= 10%, link repairs bit-transparent, split reroutes flat, straggler rebalance wins)"
cargo run --release -p neon-bench --bin repro_degraded -- --smoke

echo "==> benchmark package unit tests (it builds against the crates' public API only)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (all five workloads, both passes, every output checked)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke >/dev/null

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
