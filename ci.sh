#!/usr/bin/env bash
# Full local CI: exactly what .github/workflows/ci.yml runs.
# The workspace builds offline — all former crates.io dev-dependencies
# (proptest, criterion) are vendored as shims/ — so no network is needed.
# Pass --slow to also run the workflow's slow tier: release tests with
# the #[ignore]d sweeps included, plus the multi_step campaign that
# produces target/paper-results/multi_step.json.
set -euo pipefail
cd "$(dirname "$0")"

SLOW=0
[[ "${1:-}" == "--slow" ]] && SLOW=1

echo "== build =="
cargo build --workspace --all-targets

echo "== build the benchmark crate =="
# perfbench/ is a separate Cargo workspace built against the library
# crates by path, so an API break there only shows when it is built.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== test =="
cargo test -q --workspace

echo "== rbio-check fast schedule sweep (256 seeds) =="
# Deterministic schedule exploration of the concurrency harness's
# program families. Any failure prints the seed and the exact schedule;
# replay it with: rbio-check replay --program <pX> --schedule "..."
RBC=target/debug/rbio-check
"$RBC" sweep --program p1 --seeds 128
"$RBC" sweep --program p1 --seeds 64 --preempt
"$RBC" sweep --program p2 --seeds 16
"$RBC" sweep --program p3 --seeds 16
"$RBC" sweep --program p4 --seeds 32
"$RBC" sweep --program p5 --seeds 256
"$RBC" sweep --program p6 --seeds 16
"$RBC" sweep --program p7 --seeds 16
"$RBC" sweep --program p9a --seeds 32
"$RBC" sweep --program p9b --seeds 32
"$RBC" sweep --program p9c --seeds 32
"$RBC" sweep --program p10 --seeds 16

echo "== crash-image torture sweep (fast tier) =="
# Record each strategy's durability op stream and restore ~64 legal
# post-crash filesystem images per strategy; then prove the harness
# catches a planted missing-dir-fsync (revert of the PR 1 barrier).
RCR=target/debug/rbio-crash
"$RCR" sweep --images 64
"$RCR" sweep --strategy rbio --images 32 --revert-pr1 > /dev/null

echo "== offline scrubber smoke (repair selftest + clean dry-run) =="
target/debug/rbio-scrub --demo > /dev/null
SCRUB_DIR=$(mktemp -d)
target/debug/rbio-scrub --dir "$SCRUB_DIR" --dry-run --json > /dev/null
rm -rf "$SCRUB_DIR"

echo "== rbio-tune fast gate (small budget, winner in the Fig. 8 band) =="
# The autotuner must rediscover the paper's nf ~= 1024 sweet spot on
# the calibrated Intrepid model even under the small CI eval budget;
# --expect-nf makes a miss a hard failure (exit 1).
target/debug/rbio-tune search --np 16384 --env intrepid --budget small \
  --expect-nf 512:2048 > /dev/null

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --check

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [[ "$SLOW" == 1 ]]; then
  echo "== test (release, --include-ignored) =="
  cargo test --release -q --workspace -- --include-ignored

  echo "== rbio-check deep schedule sweep (4096 seeds, release) =="
  cargo build --release -p rbio-check
  RBC=target/release/rbio-check
  "$RBC" sweep --program p1 --seeds 2048
  "$RBC" sweep --program p1 --seeds 1024 --preempt
  "$RBC" sweep --program p2 --seeds 512
  "$RBC" sweep --program p3 --seeds 256
  "$RBC" sweep --program p4 --seeds 256
  "$RBC" sweep --program p5 --seeds 4096
  "$RBC" sweep --program p6 --seeds 256
  "$RBC" sweep --program p7 --seeds 256
  "$RBC" sweep --program p9a --seeds 512
  "$RBC" sweep --program p9b --seeds 512
  "$RBC" sweep --program p9c --seeds 512
  "$RBC" sweep --program p9a --seeds 256 --preempt
  "$RBC" sweep --program p9b --seeds 256 --preempt
  "$RBC" sweep --program p9c --seeds 256 --preempt
  "$RBC" sweep --program p10 --seeds 256
  "$RBC" sweep --program p10 --seeds 64 --preempt

  echo "== crash-image torture sweep (slow tier, >= 512 images) =="
  # Exhaustive tier: at least 512 distinct crash images across the
  # three strategies plus three-step recordings, a planted-revert catch,
  # and the scrub-repair throughput selftest into the bench artifact.
  cargo build --release -p rbio-check
  RCR=target/release/rbio-crash
  mkdir -p target/paper-results
  "$RCR" sweep --images 224 --steps 3 --seed 0x5eed --json target/paper-results/crash.json
  "$RCR" sweep --images 192 --seed 0xbeef
  "$RCR" sweep --strategy rbio --images 64 --revert-pr1 > /dev/null
  target/release/rbio-scrub --demo > /dev/null
  cp target/paper-results/crash.json BENCH_crash.json
  ls -l BENCH_crash.json

  echo "== multi_step campaign (depth 2) =="
  cargo run --release -p rbio-bench --bin multi_step -- 16384 20 10 2
  ls -l target/paper-results/multi_step.json

  echo "== datapath metrics (copies/byte + CRC throughput) =="
  cargo run --release -p rbio-bench --bin datapath
  cp target/paper-results/datapath.json BENCH_datapath.json
  ls -l BENCH_datapath.json

  echo "== tiering ablation (perceived vs durable bandwidth) =="
  cargo run --release -p rbio-bench --bin tiering -- 16384
  cp target/paper-results/tiering.json BENCH_tiering.json
  ls -l BENCH_tiering.json

  echo "== multi-tenant service stress (fairness pinned at <= 2x) =="
  cargo run --release -p rbio-bench --bin service
  cp target/paper-results/service.json BENCH_service.json
  ls -l BENCH_service.json

  echo "== rbio-tune full-budget gate (exact nf=1024 rediscovery) =="
  cargo build --release -p rbio-tune
  target/release/rbio-tune search --np 16384 --env intrepid --budget full \
    --expect-nf 1024:1024 > /dev/null

  echo "== autotuner campaign (full budget, every machine variant) =="
  cargo run --release -p rbio-bench --bin tune
  cp target/paper-results/tune.json BENCH_tune.json
  ls -l BENCH_tune.json
fi

echo "ci: all checks passed"
