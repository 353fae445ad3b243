#!/usr/bin/env bash
# Builds the benchmark offline and runs it; arguments go to the binary.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh [--trace]     # all five workloads, one after another
#   benchmark/run.sh --smoke       # every workload, both halves, 1 round
#   benchmark/run.sh --aa          # same-code noise table
#
# Run from the repo root (BENCHMARK.json's command does). The build
# shares the repo's target dir unless CARGO_TARGET_DIR names another.
set -euo pipefail
here="$(dirname "$0")"

# Keep glibc from mmap-ing and unmapping every large block (a `System`
# clone is several MB): on this VM the page-fault time of identical work
# ranged 1.5-7 s per run (`ladder_long`), which no calibration follows.
# With these, big blocks are recycled on the heap and system time drops
# to ~0.2 s; one arena keeps the served path's threads from each growing
# a heap of their own (peak RSS 111-134 MB otherwise, 36 MB with).
# Numbers are only comparable when made through this script.
export MALLOC_MMAP_THRESHOLD_=33554432    # 32 MiB, glibc's maximum
export MALLOC_TRIM_THRESHOLD_=1073741824  # never shrink the heap
export MALLOC_TOP_PAD_=67108864           # grow it 64 MiB at a time
export MALLOC_ARENA_MAX=1

target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/e2e" "$@"
