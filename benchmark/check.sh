#!/usr/bin/env bash
# Build, unit tests, a --smoke run of every workload (traced and untraced)
# and the check that the harness reports exactly the workload and metric
# names BENCHMARK.json declares. Smoke numbers stay in benchmark/out/ and
# are never copied into BENCHMARK.json or baseline.json.
set -euo pipefail

cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"

echo "== build"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target"
echo "== unit tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target"
echo "== smoke run + name check"
"$target/release/sdnshield-benchmark" run --seed 1 --smoke
echo "== leftovers"
if ls benchmark/out/journal_* >/dev/null 2>&1; then
    echo "journal files were left behind in benchmark/out/" >&2
    exit 1
fi
echo "check.sh: ok"
