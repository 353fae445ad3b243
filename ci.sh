#!/usr/bin/env bash
# The single local CI gate, mirrored by .github/workflows/ci.yml.
#
# The workspace is hermetic by construction — no external crates — so
# every step runs with `--offline`: a clean checkout plus a bare
# rustc/cargo toolchain must be enough. If a step here fails, CI fails.
#
# Set NESTSIM_CI_ARTIFACTS to a directory to collect the fresh
# BENCH_*.json measurement files the gates produce (ci.yml uploads
# them so a red gate can be diagnosed from the run page).
set -euo pipefail
cd "$(dirname "$0")"

# Per-stage wall-clock accounting: stage <name> closes the previous
# stage and opens the next; the summary table prints at the end.
STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_START=0
stage() {
    local now=$SECONDS
    if [[ -n "$CURRENT_STAGE" ]]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECS+=($((now - STAGE_START)))
    fi
    CURRENT_STAGE="$1"
    STAGE_START=$now
    echo "==> $1"
}
stage_summary() {
    stage "done"
    echo "==> ci.sh stage timing"
    local i
    for i in "${!STAGE_NAMES[@]}"; do
        printf '    %4ds  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
    done
}

# bench_gate <name>: three measured runs of the <name> bench, compared
# against the committed BENCH_<name>.json baseline (>15% fails). Three
# runs because the gate takes the best-of-runs fastest sample against
# the baseline median, which keeps it robust to background load on
# shared machines (see bench_compare's docs).
bench_gate() {
    local name="$1"
    stage "bench regression gate ($name vs committed BENCH_${name}.json, >15% fails)"
    local runs=()
    local i tmp
    for i in 1 2 3; do
        tmp="$(mktemp -d)"
        NESTSIM_BENCH_OUT="$tmp" cargo bench --offline -p nestsim-bench --bench "$name"
        runs+=("$tmp/BENCH_${name}.json")
        if [[ -n "${NESTSIM_CI_ARTIFACTS:-}" ]]; then
            mkdir -p "$NESTSIM_CI_ARTIFACTS"
            cp "$tmp/BENCH_${name}.json" "$NESTSIM_CI_ARTIFACTS/BENCH_${name}.run${i}.json"
        fi
    done
    cargo run --offline --release -p nestsim-bench --bin bench_compare -- \
        "BENCH_${name}.json" "${runs[@]}"
}

stage "cargo fmt --check"
cargo fmt --check

stage "CHANGES.md newest entry (<= 20 lines of <= 160 characters)"
# An entry runs from a line starting `PR <n>` to the next one; only the
# newest, to EOF, is held to the cap, since older entries predate it.
# Characters, not bytes: UTF-8 continuation bytes are not counted, and
# LC_ALL=C makes every awk count bytes the same way first.
LC_ALL=C awk '
    /^PR [0-9]+/ { start = NR; n = 0 }
    start { text[++n] = $0 }
    END {
        if (!start) { print "ci.sh: CHANGES.md has no entry starting `PR <n>`"; exit 1 }
        if (n > 20) { print "ci.sh: the newest CHANGES.md entry has " n " lines (cap: 20)"; bad = 1 }
        for (i = 1; i <= n; i++) {
            t = text[i]
            chars = length(t) - gsub(/[\200-\277]/, "", t)
            if (chars > 160) {
                print "ci.sh: CHANGES.md line " start + i - 1 " has " chars " characters (cap: 160)"; bad = 1
            }
        }
        exit bad
    }
' CHANGES.md

stage "nestlint self-test (rules vs committed fixtures)"
cargo run --offline -q -p nestlint -- --self-test

stage "nestlint scan (token rules + whole-program call-graph rules, fails on unsuppressed findings)"
# The scan now includes the three graph rules (panic-reachability,
# determinism-taint, wire-codec-symmetry); --budget-ms keeps the whole
# warm scan under 5s so the lint never becomes the slow stage, and the
# JSONL artifact lets a red gate be triaged from the run page.
NESTLINT_ARGS=(--budget-ms 5000)
if [[ -n "${NESTSIM_CI_ARTIFACTS:-}" ]]; then
    mkdir -p "$NESTSIM_CI_ARTIFACTS"
    NESTLINT_ARGS+=(--jsonl "$NESTSIM_CI_ARTIFACTS/nestlint.jsonl")
fi
cargo run --offline -q -p nestlint -- "${NESTLINT_ARGS[@]}"

stage "cargo clippy (all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

stage "cargo build --release"
cargo build --offline --release

stage "cargo test"
cargo test --offline --workspace -q

stage "QRR example (README's QRR command: asserts a covered flip recovers)"
cargo run --offline --release --example qrr_recovery

stage "cluster smoke (coordinator + 2 worker processes on loopback, byte-identity + crash re-dispatch)"
# cluster_smoke execs the sibling nestsim-worker binary, so build the
# package's bins explicitly (`cargo run --bin` alone would only build
# cluster_smoke). Loopback TCP only; fully offline.
cargo build --offline --release -p nestsim-cluster --bins
cargo run --offline --release -p nestsim-cluster --bin cluster_smoke

stage "mck smoke (deterministic protocol simulation: six phases, two mutation gates)"
# Fixed-seed, fully deterministic: one simulated world steps the
# coordinator's and the service's server-loop adapters. Per scenario,
# a bounded DFS and a seeded random sweep under injected faults must
# stay clean, then a mutation gate plants an exactly-once bug
# (first-writer-wins off; dedup fan-out off) that the explorer must
# catch as a double count / lost subscriber, replaying from its
# printed seed and/or schedule.
cargo run --offline --release -p nestsim-mck --bin mck_smoke

stage "svc smoke (campaign service: two concurrent tenants, overlapping grids, dedup + byte-identity + crash retry)"
# Starts the multi-tenant campaign service on loopback, submits
# overlapping campaign grids from two concurrent clients, and asserts
# results are byte-identical to in-process execution with the shared
# cell executed exactly once (svc.* dedup counters) — including under
# an injected execution crash. Loopback TCP only; fully offline.
cargo run --offline --release -p nestsim-svc --bin svc_smoke

stage "benchmark package (BENCHMARK.json's program: its own tests, then every workload once)"
# `benchmark/` is a workspace of its own that calls the engine through a
# frozen probe surface (System::{new, clone, run_until},
# DramContents::new, the one-call campaign entry points); nothing in the
# root workspace compiles it, so a signature change there would
# otherwise break it silently. The smoke runs both halves (untraced and
# traced) of all five workloads on one cell and checks every result.
(cd benchmark && cargo test --release --offline --target-dir ../target)
smoke_out="$(mktemp)"
benchmark/run.sh --smoke | tee "$smoke_out"
# Zero-allocation tick gate (README, *Performance notes*: no component's
# tick touches the heap): the smoke's traced halves
# count heap calls per component tick with the benchmark's own counting
# allocator. Not `== 0`: PCIe reads 0.0005, one amortised growth.
# Lane gate: the `l2c_lanes` block must report batches formed, lanes
# retired in them and lanes that left them on a fork — a silently
# de-batched engine passes every identity test, being byte-identical by
# construction, and a benchmark with no leaver would not time the forks.
# Build-once gate: the untraced `l2c_indep` and `ccx_indep` blocks must
# stay under an allocation count per injection that a flop layout
# rebuilt on every attach cannot meet (≈400 field names formatted:
# 645 and 896 before the per-process prototypes, 210 and 153 with them
# on the smoke's single cold cell) — an exact count, not a timing.
awk '
    BEGIN { alloc_cap["l2c_indep"] = 300; alloc_cap["ccx_indep"] = 400 }
    /^# [a-z0-9_]+ seed / { workload = $2; traced = ($5 == "traced") }
    !traced && $1 == "allocs_per_inj" && (workload in alloc_cap) {
        seen[workload " allocs_per_inj"] = 1
        if ($2 + 0 >= alloc_cap[workload]) {
            print "ci.sh: " workload " allocs_per_inj = " $2 " (gate: < " alloc_cap[workload] ")"; bad = 1
        }
    }
    $1 ~ /^models\.tick_allocs\./ {
        seen[$1] = 1
        if ($2 + 0 >= 0.01) { print "ci.sh: " $1 " = " $2 " allocations per tick (gate: < 0.01)"; bad = 1 }
    }
    workload == "l2c_lanes" && ($1 == "core.lanes_batches" || $1 == "core.lanes_retired_early" \
                                || $1 == "core.lanes_scalar_fallbacks") {
        seen[$1] = 1
        if ($2 + 0 <= 0) { print "ci.sh: l2c_lanes reports " $1 " = " $2 " (gate: > 0)"; bad = 1 }
    }
    END {
        split("models.tick_allocs.l2c models.tick_allocs.mcu models.tick_allocs.ccx models.tick_allocs.pcie " \
              "core.lanes_batches core.lanes_retired_early core.lanes_scalar_fallbacks", want, " ")
        for (i in want) if (!(want[i] in seen)) {
            print "ci.sh: smoke printed no " want[i] " row"; bad = 1
        }
        for (w in alloc_cap) if (!((w " allocs_per_inj") in seen)) {
            print "ci.sh: smoke printed no untraced allocs_per_inj row for " w; bad = 1
        }
        exit bad
    }
' "$smoke_out"

stage "bench smoke run (1 iteration per bench)"
NESTSIM_BENCH_SMOKE=1 NESTSIM_BENCH_OUT="$(mktemp -d)" \
    cargo bench --offline -p nestsim-bench

bench_gate kernel
# Besides timings, campaign_grid prints forward-sim cycles, ladder.captures
# and ladder.rungs, and asserts the fixed ladder engine keeps no more
# rungs than shards and forward-simulates >= 2x fewer cycles than replay.
bench_gate campaign_grid
bench_gate campaign_cluster
bench_gate campaign_lanes
bench_gate campaign_adaptive

stage_summary
echo "==> ci.sh: all gates green"
