#!/usr/bin/env bash
# The single local CI gate, mirrored by .github/workflows/ci.yml.
#
# The workspace is hermetic by construction — no external crates, which
# the hermeticity stage checks — so every step runs with `--offline`: a
# clean checkout plus a bare rustc/cargo toolchain must be enough. If a
# step here fails, CI fails.
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

stage "doc length ratchet (DESIGN.md and README.md may not grow)"
# ROADMAP item 13: DESIGN.md keeps mechanisms and invariants, CHANGES.md
# the measurements, so the two long documents may shrink but not grow. A
# PR may lower a cap; raising one needs a CHANGES.md line that names the
# new cap, as "DESIGN.md cap 1900", which this stage looks for.
doc_cap() {
    local file="$1" cap="$2" lines
    lines=$(wc -l < "$file")
    if (( lines > cap )); then
        echo "ci.sh: $file has $lines lines (cap: $cap)"
        return 1
    fi
    if ! grep -qF "$file cap $cap" CHANGES.md; then
        echo "ci.sh: no CHANGES.md line names \"$file cap $cap\""
        return 1
    fi
}
doc_cap DESIGN.md 1601
doc_cap README.md 564

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

stage "hermeticity (the resolved dependency graph holds no registry or git package)"
# cargo metadata prints `"source":null` for a path package and the
# registry or git URL for any other; a dependency cargo cannot resolve
# offline fails the command itself. Both workspaces: the root one and
# the benchmark package's.
for manifest in Cargo.toml benchmark/Cargo.toml; do
    metadata="$(cargo metadata --offline --format-version 1 --manifest-path "$manifest")"
    if grep -qF '"source":"' <<< "$metadata"; then
        echo "ci.sh: $manifest resolves a registry or git dependency"
        exit 1
    fi
done

stage "cargo clippy (all targets, -D warnings, every allow needs a reason)"
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -W clippy::allow_attributes_without_reason

stage "cargo build --release"
cargo build --offline --release

stage "cargo test"
cargo test --offline --workspace -q

stage "QRR example (README's QRR command: asserts a covered flip recovers)"
cargo run --offline --release --example qrr_recovery

stage "Fig. 7 on every component (RTL-only ground truth beside mixed mode, 100 samples each)"
# The RTL-only mode is the one injection run with no early exit, on any
# component's driver; this drives that path end to end for all four.
for component in l2c mcu ccx pcie; do
    cargo run --offline --release -p nestsim-repro -- fig7 --samples 100 --component "$component"
done

stage "benchmark package (BENCHMARK.json's program: its own tests, then every workload once)"
# `benchmark/` is a workspace of its own that calls the engine through a
# frozen probe surface: System::{new, clone, run_until},
# DramContents::new, the one-call campaign entry points, the four
# co-simulation drivers' `attach` and `CosimDriver`, `ShardRunner::new`,
# `laddered_golden_reference`, `SnapshotLadder::truncate_above` and
# `CampaignSpec::snapshot_interval`. The last two are why ROADMAP item 4
# waits for a benchmark-only change. Nothing in the root workspace
# compiles the package, so a signature change there would otherwise
# break it silently. The smoke runs both halves (untraced and traced) of
# all five workloads on one cell and checks every result.
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
# Build-once and recycling gate: the untraced `l2c_indep`, `ccx_indep`,
# `ladder_long`, `l2c_lanes` and `served` blocks must stay under an allocation
# count per injection — an exact count, not a timing. On the smoke's
# single cell they read 122.3, 12.63, 81.1, 1.09 and 14.5 while a shard
# refills its window carriers, the drivers forked off them and its lane
# sides, a walk takes the drivers and lane sides the last walk of its
# component parked (`Component::kept`), and every system a campaign
# needs refills one an earlier walk or cell of the process parked
# (`cosim::unpark`); 122.3, 12.75, 81.1, 2.38 and 15.43 when drivers die
# with the walk (its systems parked, its ports and sides freed). Each
# smoke cell follows the workloads before it in one process, so
# `ccx_indep` and `ladder_long` follow no walk of their component, and
# `l2c_indep` no walk at all. `served` is the
# same cell reached through the one campaign server machine, its worker
# walking every lease of a job on one cursor from the base alone.
# Storage gate: the same blocks' `alloc_kb_per_inj` read 776, 85.0, 69.3,
# 138 and 13.1 KiB on the smoke (`ladder_long`, `l2c_indep`, `served`,
# `ccx_indep`, `l2c_lanes`) — one cell of each after the others, so its
# storage comes parked from the workloads before it; 911 / 105 / 176 /
# 329 / 31.4 with nothing parked, 1,033 / 102 / 158 / 263 / 24.3 without
# the golden run's hand-over. A parked system frees its arena chunks:
# kept, they read 487 / 67.8 / 14.7 / 9.4 / 11.4 here, and cost 20 % of
# `ccx_indep`'s peak RSS in the benchmark, beside the calibration
# kernel's allocations between campaigns (DESIGN.md *Recycling*).
# Co-simulation gate: the traced `l2c_indep`, `l2c_lanes`, `ladder_long`,
# `served` and `ccx_indep` blocks must report `core.golden_compares_per_inj`
# < 7.5 / < 6 / < 4 / < 10 / < 2 — a run whose outputs all matched ends at
# the first compare that finds no difference a tick can read (identical,
# invalid slots' payloads, dead fields), and any run at the program's
# end: 5.97, 4.41, 2.38, 8.28 and 1.0 on the smoke; 9.09, 7.81, 6.38 and
# 11.35 when a `BenignOnly` run waits for the drain (`inject::converged`),
# and 33.9, 57.5 and 193.4 on `l2c_indep`, `ladder_long` and `ccx_indep`
# when an `Identical` one does too — an exact count, so waiting again
# fails here, not on a timing.
# `l2c_indep`'s mean moves with one long run: one of its 32 samples
# co-simulates 2,128 cycles to the program's end (ONA).
awk '
    BEGIN { alloc_cap["l2c_indep"] = 123; alloc_cap["ccx_indep"] = 12.7; alloc_cap["ladder_long"] = 85
            alloc_cap["l2c_lanes"] = 1.2; alloc_cap["served"] = 15
            kb_cap["ladder_long"] = 830; kb_cap["l2c_indep"] = 92; kb_cap["served"] = 80
            kb_cap["ccx_indep"] = 150; kb_cap["l2c_lanes"] = 21
            compare_cap["l2c_indep"] = 7.5; compare_cap["l2c_lanes"] = 6
            compare_cap["ladder_long"] = 4; compare_cap["served"] = 10
            compare_cap["ccx_indep"] = 2 }
    /^# [a-z0-9_]+ seed / { workload = $2; traced = ($5 == "traced") }
    !traced && $1 == "allocs_per_inj" && (workload in alloc_cap) {
        seen[workload " allocs_per_inj"] = 1
        if ($2 + 0 >= alloc_cap[workload]) {
            print "ci.sh: " workload " allocs_per_inj = " $2 " (gate: < " alloc_cap[workload] ")"; bad = 1
        }
    }
    !traced && $1 == "alloc_kb_per_inj" && (workload in kb_cap) {
        seen[workload " alloc_kb_per_inj"] = 1
        if ($2 + 0 >= kb_cap[workload]) {
            print "ci.sh: " workload " alloc_kb_per_inj = " $2 " (gate: < " kb_cap[workload] ")"; bad = 1
        }
    }
    traced && $1 == "core.golden_compares_per_inj" && (workload in compare_cap) {
        seen[workload " golden_compares_per_inj"] = 1
        if ($2 + 0 >= compare_cap[workload]) {
            print "ci.sh: " workload " core.golden_compares_per_inj = " $2 " (gate: < " compare_cap[workload] ")"; bad = 1
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
        for (w in kb_cap) if (!((w " alloc_kb_per_inj") in seen)) {
            print "ci.sh: smoke printed no untraced alloc_kb_per_inj row for " w; bad = 1
        }
        for (w in compare_cap) if (!((w " golden_compares_per_inj") in seen)) {
            print "ci.sh: smoke printed no traced core.golden_compares_per_inj row for " w; bad = 1
        }
        exit bad
    }
' "$smoke_out"

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
