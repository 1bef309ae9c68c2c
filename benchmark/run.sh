#!/usr/bin/env bash
# Contract entry point: builds the benchmark package (a no-op once built)
# and runs one workload. `--trace 1` runs use the binary with the counting
# allocator; everything else the untraced one. Run from the repository root:
#   bash benchmark/run.sh --workload wire_lat --seed 1 --seconds 20 --trace 0
# Subcommands `run` and `aa` (see README.md) go to the untraced binary.
set -euo pipefail

manifest="benchmark/Cargo.toml"
if [ ! -f "$manifest" ]; then
    echo "error: $manifest not found; run from the repository root" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path "$manifest" --target-dir "$target" >&2

bin="$target/release/sdnshield-benchmark"
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin="$target/release/sdnshield-benchmark-traced"
    fi
    prev="$arg"
done
exec "$bin" "$@"
