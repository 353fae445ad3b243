//! The per-crate / per-module policy table: which rules apply where.
//!
//! Paths are workspace-relative with forward slashes. The table is
//! first-match-wins, so narrow exemptions (one file) sit above the
//! broad crate entries they carve a hole into. Everything the table
//! does not mention gets no path-scoped rules; `telemetry-names` and
//! suppression hygiene are not path-scoped and do not appear here.
//! A row names where a rule starts: `no-panic-on-wire` files are
//! token-checked and root `panic-reachability` at their decode entry
//! points; every fn of a `determinism-taint` file roots that rule.
//!
//! The split encodes the repo's determinism argument (see DESIGN.md
//! "Static analysis"): crates whose outputs feed campaign *results*
//! must be deterministic by construction, so hash-order iteration and
//! wall clocks are banned there; infrastructure that exists to
//! measure wall time (bench harness, perf self-calibration) or to run
//! real clocks (cluster lease bookkeeping, sockets) is exempt by
//! listing, not by accident.

use crate::rules::Rule;

/// One policy row: path prefix (or exact file) → rules enabled.
pub struct PolicyRow {
    /// Workspace-relative path prefix, forward slashes.
    pub prefix: &'static str,
    /// Rules enabled under this prefix.
    pub rules: &'static [Rule],
    /// Why this row says what it says (rendered by `--policy`).
    pub why: &'static str,
}

/// The policy table. First match wins.
pub const TABLE: &[PolicyRow] = &[
    PolicyRow {
        prefix: "crates/core/src/perfmodel.rs",
        rules: &[],
        why: "perf self-calibration measures wall time by design; its outputs never feed results",
    },
    PolicyRow {
        prefix: "crates/cluster/src/wire.rs",
        rules: &[Rule::DeterminismTaint, Rule::NoPanicOnWire],
        why: "decodes untrusted TCP bytes into result-carrying values",
    },
    PolicyRow {
        prefix: "crates/cluster/src/frame.rs",
        rules: &[Rule::DeterminismTaint, Rule::NoPanicOnWire],
        why: "parses untrusted frame headers; a bad length must be an error, not a panic",
    },
    PolicyRow {
        prefix: "crates/cluster/src/proto.rs",
        rules: &[Rule::DeterminismTaint, Rule::NoPanicOnWire],
        why: "decodes untrusted messages from workers and multi-tenant service clients; \
              the service's determinism key (content address) is computed from these codecs",
    },
    PolicyRow {
        prefix: "crates/cluster/src/shard.rs",
        rules: &[Rule::DeterminismTaint],
        why: "shard planning must be identical in every process",
    },
    PolicyRow {
        prefix: "crates/cluster/src/machine.rs",
        rules: &[Rule::DeterminismTaint],
        why: "sans-I/O campaign server machine: a pure event→actions function the model \
              checker replays under every schedule; time arrives only as an event payload",
    },
    PolicyRow {
        prefix: "crates/cluster/src/worker_machine.rs",
        rules: &[Rule::DeterminismTaint],
        why: "sans-I/O worker: same pure-function contract as the server machine",
    },
    PolicyRow {
        prefix: "crates/cluster/src/sched.rs",
        rules: &[Rule::DeterminismTaint],
        why: "DRR fair-share ordering must be a pure function of submissions so grant \
              order is reproducible in the model checker and across restarts",
    },
    PolicyRow {
        prefix: "crates/cluster/src/store.rs",
        rules: &[Rule::DeterminismTaint],
        why: "the content-addressed store decides dedup hits; its keys and fan-out \
              order must be identical in every process",
    },
    PolicyRow {
        prefix: "crates/cluster/src/conn.rs",
        rules: &[Rule::DeterminismTaint, Rule::NoPanicOnWire],
        why: "incremental frame accumulation over nonblocking sockets: a malformed \
              header from one peer must not panic the shared server loop",
    },
    PolicyRow {
        prefix: "crates/cluster/src/poll.rs",
        rules: &[Rule::NoPanicOnWire],
        why: "the readiness poller under the shared server loop; kernel-reported edge \
              cases must be errors on one connection, never a process abort",
    },
    PolicyRow {
        prefix: "crates/cluster/src/server.rs",
        rules: &[Rule::NoPanicOnWire],
        why: "one loop thread serves every worker or tenant of a server: a peer's bytes \
              must end that peer's connection, never the loop",
    },
    PolicyRow {
        prefix: "crates/cluster/",
        rules: &[],
        why: "lease deadlines, sockets, and backoff run on real clocks by design",
    },
    PolicyRow {
        prefix: "crates/svc/",
        rules: &[],
        why: "the driver layer (event loop, execution pool) runs real sockets and \
              threads by design",
    },
    PolicyRow {
        prefix: "crates/mck/src/",
        rules: &[Rule::DeterminismTaint],
        why: "the model checker's value is exact replay from a printed seed or schedule; \
              a wall clock or hash-order iteration anywhere in it voids that",
    },
    PolicyRow {
        prefix: "crates/arch/src/",
        rules: &[Rule::DeterminismTaint],
        why: "architectural state feeds golden digests and corruption diffs",
    },
    PolicyRow {
        prefix: "crates/core/src/adaptive.rs",
        rules: &[Rule::DeterminismTaint],
        why: "the round scheduler: stop decisions and stratum allocations must be a pure \
              function of merged counts, identical on every node; pinned explicitly so a \
              future core-wide exemption cannot silently drop it",
    },
    PolicyRow {
        prefix: "crates/core/src/checkpoint.rs",
        rules: &[Rule::DeterminismTaint],
        why: "rollback/propagation analysis is part of every record; pinned explicitly so \
              a future core-wide exemption cannot silently drop it",
    },
    PolicyRow {
        prefix: "crates/core/src/lanes.rs",
        rules: &[Rule::DeterminismTaint],
        why: "lane batching must retire byte-identical results at every lane width; \
              pinned explicitly so a future core-wide exemption cannot silently drop it",
    },
    PolicyRow {
        prefix: "crates/core/src/",
        rules: &[Rule::DeterminismTaint],
        why: "the injection engine: everything here is result-affecting",
    },
    PolicyRow {
        prefix: "crates/hlsim/src/",
        rules: &[Rule::DeterminismTaint],
        why: "the accelerated-mode simulator produces the golden reference",
    },
    PolicyRow {
        prefix: "crates/models/src/",
        rules: &[Rule::DeterminismTaint],
        why: "component models decide every outcome classification",
    },
    PolicyRow {
        prefix: "crates/proto/src/",
        rules: &[Rule::DeterminismTaint],
        why: "address/packet types flow through digests",
    },
    PolicyRow {
        prefix: "crates/qrr/src/",
        rules: &[Rule::DeterminismTaint],
        why: "detection/recovery outcomes are results",
    },
    PolicyRow {
        prefix: "crates/rtl/src/lanes.rs",
        rules: &[Rule::DeterminismTaint],
        why: "the lane-wise XOR golden compare decides which universes diverged; \
              pinned explicitly so a future rtl-wide exemption cannot silently drop it",
    },
    PolicyRow {
        prefix: "crates/rtl/src/",
        rules: &[Rule::DeterminismTaint],
        why: "RTL state and parity feed outcome classification",
    },
    PolicyRow {
        prefix: "crates/stats/src/stop.rs",
        rules: &[Rule::DeterminismTaint],
        why: "the sequential stop rule: cluster coordinator and in-process engine must \
              reach identical decisions from identical counts; pinned explicitly so a \
              future stats-wide exemption cannot silently drop it",
    },
    PolicyRow {
        prefix: "crates/stats/src/",
        rules: &[Rule::DeterminismTaint],
        why: "estimators and seeds must replay bit-identically",
    },
];

/// Path-scoped rules for one workspace-relative file path.
pub fn rules_for(path: &str) -> &'static [Rule] {
    for row in TABLE {
        if path.starts_with(row.prefix) {
            return row.rules;
        }
    }
    &[]
}

/// Table hygiene: first-match-wins means a row whose prefix extends an
/// *earlier* row's prefix can never match — it is dead, and the policy
/// it states is silently not in force. That includes exact duplicates.
/// The scan refuses to run over a table with dead rows.
pub fn check_table() -> Result<(), String> {
    for (i, earlier) in TABLE.iter().enumerate() {
        for later in &TABLE[i + 1..] {
            if later.prefix.starts_with(earlier.prefix) {
                return Err(format!(
                    "policy table: row `{}` is unreachable — it is shadowed by the earlier row \
                     `{}` (first match wins; move the narrow row above the broad one)",
                    later.prefix, earlier.prefix
                ));
            }
        }
    }
    Ok(())
}

/// Renders the policy table as the `--policy` listing. One `prefix ->
/// rule, rule` line per row followed by an indented `why:` line — the
/// round-trip test re-parses this text back into (prefix, rules) pairs.
pub fn render_policy() -> String {
    let mut out = String::from("nestlint policy table (first match wins):\n");
    for row in TABLE {
        let rules = if row.rules.is_empty() {
            "(path-scoped rules off)".to_string()
        } else {
            row.rules
                .iter()
                .map(|r| r.id())
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!("  {:<38} {rules}\n", row.prefix));
        out.push_str(&format!("  {:<38}   why: {}\n", "", row.why));
    }
    out.push_str("  everywhere                             suppression hygiene\n");
    out.push_str("  whole workspace                        telemetry-names, panic-reachability, determinism-taint\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_exemptions_win_over_crate_rows() {
        assert!(rules_for("crates/core/src/perfmodel.rs").is_empty());
        assert!(rules_for("crates/core/src/cosim.rs").contains(&Rule::DeterminismTaint));
    }

    #[test]
    fn lane_modules_are_pinned_result_affecting() {
        // The lane modules must stay DeterminismTaint via their own
        // rows, not by riding the crate-wide defaults: the explicit
        // prefix must match before the crate prefix does.
        for path in [
            "crates/core/src/lanes.rs",
            "crates/rtl/src/lanes.rs",
            "crates/core/src/adaptive.rs",
            "crates/stats/src/stop.rs",
        ] {
            assert!(rules_for(path).contains(&Rule::DeterminismTaint), "{path}");
            let row = TABLE
                .iter()
                .find(|r| path.starts_with(r.prefix))
                .expect("a row matches");
            assert_eq!(row.prefix, path, "first match must be the pinned row");
        }
    }

    #[test]
    fn cluster_wire_paths_get_both_rules() {
        for f in ["wire.rs", "frame.rs", "proto.rs"] {
            let rules = rules_for(&format!("crates/cluster/src/{f}"));
            assert!(rules.contains(&Rule::NoPanicOnWire), "{f}");
            assert!(rules.contains(&Rule::DeterminismTaint), "{f}");
        }
        assert!(rules_for("crates/cluster/src/lease.rs").is_empty());
        assert!(rules_for("crates/cluster/src/coordinator.rs").is_empty());
    }

    #[test]
    fn sans_io_machines_and_model_checker_are_deterministic() {
        // The protocol machines are pinned above the cluster catch-all:
        // the drivers may run real clocks and sockets, the machines
        // themselves may not.
        for path in [
            "crates/cluster/src/machine.rs",
            "crates/cluster/src/worker_machine.rs",
            "crates/mck/src/world.rs",
            "crates/mck/src/service.rs",
            "crates/mck/src/explore.rs",
            "crates/mck/src/exec.rs",
            "crates/mck/src/bin/mck_smoke.rs",
        ] {
            assert!(rules_for(path).contains(&Rule::DeterminismTaint), "{path}");
        }
    }

    #[test]
    fn service_wire_and_core_modules_are_pinned() {
        // The service's wire path parses untrusted multi-tenant input
        // inside the shared server loop: panic-free and deterministic.
        for path in ["crates/cluster/src/proto.rs", "crates/cluster/src/conn.rs"] {
            let rules = rules_for(path);
            assert!(rules.contains(&Rule::NoPanicOnWire), "{path}");
            assert!(rules.contains(&Rule::DeterminismTaint), "{path}");
        }
        for f in ["poll.rs", "server.rs"] {
            let rules = rules_for(&format!("crates/cluster/src/{f}"));
            assert!(rules.contains(&Rule::NoPanicOnWire), "{f}");
        }
        // Scheduler, store, and machine decide grant order, dedup, and
        // fan-out: deterministic, but they may panic on internal bugs.
        for f in ["sched.rs", "store.rs", "machine.rs"] {
            let rules = rules_for(&format!("crates/cluster/src/{f}"));
            assert!(rules.contains(&Rule::DeterminismTaint), "{f}");
            assert!(!rules.contains(&Rule::NoPanicOnWire), "{f}");
        }
        // The drivers run threads and a client: catch-all exempt.
        assert!(rules_for("crates/svc/src/service.rs").is_empty());
        assert!(rules_for("crates/cluster/src/client.rs").is_empty());
    }

    #[test]
    fn unlisted_paths_get_no_path_scoped_rules() {
        assert!(rules_for("crates/telemetry/src/lib.rs").is_empty());
        assert!(rules_for("crates/bench/benches/kernel.rs").is_empty());
        assert!(rules_for("tests/end_to_end.rs").is_empty());
    }

    #[test]
    fn committed_table_has_no_dead_rows() {
        check_table().expect("every policy row must be reachable");
    }

    #[test]
    fn shadowed_rows_are_detected() {
        // The committed table orders narrow rows above broad ones; the
        // checker must reject the reverse ordering. Simulate it by
        // checking the predicate the checker uses on a known pair.
        let broad = "crates/cluster/";
        let narrow = "crates/cluster/src/wire.rs";
        assert!(narrow.starts_with(broad));
        let broad_at = TABLE.iter().position(|r| r.prefix == broad).unwrap();
        let narrow_at = TABLE.iter().position(|r| r.prefix == narrow).unwrap();
        assert!(
            narrow_at < broad_at,
            "narrow wire row must precede the cluster catch-all"
        );
    }

    #[test]
    fn rendered_policy_round_trips() {
        // Re-parse the `--policy` listing back into (prefix, rules)
        // pairs and compare against the table — the rendering is the
        // user-facing contract, so it must not drop or mangle rows.
        let rendered = render_policy();
        let mut parsed: Vec<(String, Vec<String>)> = Vec::new();
        for line in rendered.lines().skip(1) {
            let line = line.trim_start();
            if line.starts_with("why:")
                || line.starts_with("everywhere")
                || line.starts_with("whole workspace")
            {
                continue;
            }
            let (prefix, rules) = line.split_once(char::is_whitespace).unwrap();
            let rules = if rules.trim() == "(path-scoped rules off)" {
                Vec::new()
            } else {
                rules
                    .trim()
                    .split(", ")
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            };
            parsed.push((prefix.to_string(), rules));
        }
        assert_eq!(parsed.len(), TABLE.len(), "{rendered}");
        for (row, (prefix, rules)) in TABLE.iter().zip(&parsed) {
            assert_eq!(row.prefix, prefix);
            let want: Vec<String> = row.rules.iter().map(|r| r.id().to_string()).collect();
            assert_eq!(&want, rules, "rules for {prefix}");
            // Every parsed id must survive a Rule::from_id round trip.
            for id in rules {
                assert!(Rule::from_id(id).is_some(), "unknown rule id `{id}`");
            }
        }
    }
}
