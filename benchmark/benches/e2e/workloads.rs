//! The five campaign workloads, their seed-derived cells, and one
//! untraced rep of a cell through the stable one-call entry points.

use nestsim_cluster::{run_campaign_cluster, ClusterConfig, JobWire};
use nestsim_core::campaign::{run_campaign_with, CampaignSpec};
use nestsim_core::inject::InjectionRecord;
use nestsim_core::OutcomeCounts;
use nestsim_hlsim::workload::{by_name, BenchProfile};
use nestsim_models::ComponentKind;
use nestsim_stats::SeedSeq;
use nestsim_svc::{serve, JobOutcome, ServiceConfig, SvcClient, SvcConfig};

use crate::trace::Tracer;

/// Samples of the `served` rep's cluster cell.
pub const SERVED_CLUSTER_SAMPLES: u64 = 16;
/// Samples of each of the `served` rep's three service jobs.
pub const SERVED_JOB_SAMPLES: u64 = 8;

/// How a rep reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `run_campaign_with`, in process.
    InProcess,
    /// `run_campaign_cluster` (one worker thread), then a fresh
    /// `serve()` and one `SvcClient` submitting three jobs with seeds
    /// `{s, s+1, s}`: two executions and one dedup fan-out.
    Served,
}

/// One workload: a cell shape, run on `cells` seeds × [`ROUNDS`] per run.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    /// Component under test.
    pub component: ComponentKind,
    /// Benchmark profile name.
    pub benchmark: &'static str,
    /// Benchmark length divisor.
    pub length_scale: u64,
    /// Injections one rep delivers.
    pub samples: u64,
    /// Trajectory cluster size (1 = independent samples).
    pub lane_cluster: u64,
    /// Entry point the rep goes through.
    pub path: Path,
    /// Distinct cells (campaign seeds) per run at the default
    /// `--seconds`, sized so the timed part takes about that long. A run
    /// reports cost per injection averaged over all of them, so that
    /// the metric depends on `--seed` by less than its bound: cost per
    /// injection is heavy-tailed (most errors vanish within a few
    /// hundred co-simulated cycles, 1–2 % run to the cap, some re-run
    /// the application), and one 8–32 sample cell moves ±20 % with its
    /// seed.
    pub cells: usize,
}

/// Timed rounds per run. Every round runs every cell once; the second
/// round checks each cell against the first and lets a cell's floor
/// skip a stall. More rounds would buy nothing: this sandbox's slow
/// mode lasts longer than a run, so the time goes into more cells.
pub const ROUNDS: usize = 2;

/// Co-simulation cycle cap of every workload. In a 2 400-sample census
/// (L2C, CCX, MCU) no injection converged between 3 000 and 20 000
/// cycles: 1–2 % persist to any cap, and at `quick`'s 20 000 those few
/// are 35–70 % of all co-simulated cycles, so cost per injection would
/// follow the seed's count of them. 4 000 classifies every sample the
/// same and keeps them to 15–33 %.
pub const COSIM_CAP: u64 = 4_000;

/// Untimed, discarded reps of the first cell before the first timed one.
pub const WARMUP_REPS: usize = 3;

/// How much of a workload one run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Distinct cells.
    pub cells: usize,
    /// Timed rounds over them.
    pub rounds: usize,
    /// Discarded reps first.
    pub warmup_reps: usize,
}

impl Plan {
    /// `--smoke`: one rep of one cell.
    pub const SMOKE: Plan = Plan {
        cells: 1,
        rounds: 1,
        warmup_reps: 0,
    };

    /// A measuring run over `cells` cells.
    pub fn measured(cells: usize) -> Plan {
        Plan {
            cells,
            rounds: ROUNDS,
            warmup_reps: WARMUP_REPS,
        }
    }
}

/// `--seconds` the `cells` counts are sized for (`run_seconds` in
/// `BENCHMARK.json`); other values scale them linearly.
pub const DEFAULT_SECONDS: u64 = 15;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "l2c_indep",
        why: "short L2C cell, independent samples: per-injection plumbing (clone, attach, warm-up, L2C ticks, compare) dominates; ladder and lanes idle",
        component: ComponentKind::L2c,
        benchmark: "radi",
        length_scale: 100,
        samples: 32,
        lane_cluster: 1,
        path: Path::InProcess,
        cells: 48,
    },
    Workload {
        name: "l2c_lanes",
        why: "same L2C cell with 16-sample trajectory clusters: the lane-batched engine does the work, so lane gains that tax the scalar path show against l2c_indep",
        component: ComponentKind::L2c,
        benchmark: "radi",
        length_scale: 100,
        samples: 128,
        lane_cluster: 16,
        path: Path::InProcess,
        cells: 32,
    },
    Workload {
        name: "ccx_indep",
        why: "CCX cell: the crossbar tick (7x the L2C cost, allocation-heavy) dominates, so L2C-only or ladder-only changes predict no move here",
        component: ComponentKind::Ccx,
        benchmark: "radi",
        length_scale: 100,
        samples: 8,
        lane_cluster: 1,
        path: Path::InProcess,
        cells: 28,
    },
    Workload {
        name: "ladder_long",
        why: "long MCU run (~130K cycles, ~50 rungs): accelerated forward-sim and snapshot capture/restore dominate, so tick-only changes predict no move here",
        component: ComponentKind::Mcu,
        benchmark: "flui",
        length_scale: 20,
        samples: 8,
        lane_cluster: 1,
        path: Path::InProcess,
        cells: 28,
    },
    Workload {
        name: "served",
        why: "the scalar L2C engine reached through cluster and service (codec, frames, leases, epoll, result store, dedup); closed loop, one client",
        component: ComponentKind::L2c,
        benchmark: "radi",
        length_scale: 100,
        samples: SERVED_CLUSTER_SAMPLES + 3 * SERVED_JOB_SAMPLES,
        lane_cluster: 1,
        path: Path::Served,
        cells: 24,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One campaign cell of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Benchmark profile.
    pub profile: &'static BenchProfile,
    /// The full-cell spec (`samples` = the in-process sample count; the
    /// `served` path derives its cluster and job specs from it).
    pub spec: CampaignSpec,
}

impl Workload {
    /// The workload's first `n` cells for `--seed`: a pure function of
    /// the seed. One compute thread everywhere (`workers = 1`), default
    /// `check_interval` / `snapshot_interval` / `lane_width`.
    pub fn cells(&self, seed: u64, n: usize) -> Vec<Cell> {
        let profile = by_name(self.benchmark).expect("workload names a known benchmark");
        let root = SeedSeq::new(seed).derive("e2e").derive(self.name);
        (0..n as u64)
            .map(|k| Cell {
                profile,
                spec: CampaignSpec {
                    seed: root.derive_index(k).rng().next_u64(),
                    length_scale: self.length_scale,
                    cosim_cap: COSIM_CAP,
                    workers: 1,
                    lane_cluster: self.lane_cluster,
                    ..CampaignSpec::new(self.component, self.samples)
                },
            })
            .collect()
    }

    /// The untraced run of `seconds`: the cell count scales with it.
    pub fn plan(&self, seconds: u64) -> Plan {
        Plan::measured(((self.cells as u64 * seconds).div_ceil(DEFAULT_SECONDS) as usize).max(1))
    }
}

/// What one rep delivered to its caller: one part per campaign result
/// (a single part in process; cluster cell + three jobs when served).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// `(records, counts)` per delivered campaign result.
    pub parts: Vec<(Vec<InjectionRecord>, OutcomeCounts)>,
}

impl Delivered {
    /// Injection records delivered.
    pub fn injections(&self) -> u64 {
        self.parts.iter().map(|(r, _)| r.len() as u64).sum()
    }

    /// Outcome tallies over all parts.
    pub fn counts(&self) -> OutcomeCounts {
        let mut total = OutcomeCounts::new();
        for (_, c) in &self.parts {
            total.merge(c);
        }
        total
    }
}

/// The `served` rep's four campaign specs, in delivery order: the
/// cluster cell, then jobs with seeds `{s, s+1, s}`.
pub fn served_specs(cell: &Cell) -> [CampaignSpec; 4] {
    let job = |seed| CampaignSpec {
        samples: SERVED_JOB_SAMPLES,
        seed,
        ..cell.spec
    };
    let s = cell.spec.seed;
    [
        CampaignSpec {
            samples: SERVED_CLUSTER_SAMPLES,
            ..cell.spec
        },
        job(s),
        job(s.wrapping_add(1)),
        job(s),
    ]
}

/// One service, one compute thread, never more runnable simulation
/// threads than the box has cores.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        machine: SvcConfig {
            exec_slots: 1,
            ..SvcConfig::default()
        },
        exec_threads: 1,
        ..ServiceConfig::default()
    }
}

/// Unwraps a service outcome; `Rejected` / `Failed` fail the rep.
pub fn done(outcome: JobOutcome) -> Result<(Vec<InjectionRecord>, OutcomeCounts), String> {
    match outcome {
        JobOutcome::Done(r) => Ok((r.records, r.counts)),
        JobOutcome::Rejected(why) => Err(format!("job rejected: {why}")),
        JobOutcome::Failed(why) => Err(format!("job failed: {why}")),
    }
}

impl Cell {
    /// The cell's set-up call: the same cell with `samples = 0`, the
    /// engine's empty-campaign short-circuit — golden pass, rung
    /// capture and sample draw, nothing else. Everything a `repro` user
    /// pays per cell before the first injection.
    pub fn run_setup(&self) {
        let empty = CampaignSpec {
            samples: 0,
            ..self.spec
        };
        let r = run_campaign_with(self.profile, &empty, None);
        assert!(
            r.records.is_empty(),
            "an empty campaign delivers no records"
        );
    }

    /// One full cold rep through the one-call entry points.
    pub fn run_full(&self, path: Path) -> Result<Delivered, String> {
        match path {
            Path::InProcess => Ok(self.in_process(&self.spec)),
            Path::Served => self.served(&mut Tracer::disabled()),
        }
    }

    fn in_process(&self, spec: &CampaignSpec) -> Delivered {
        let r = run_campaign_with(self.profile, spec, None);
        Delivered {
            parts: vec![(r.records, r.counts)],
        }
    }

    /// The `served` rep: the cluster cell, then a fresh service, one
    /// client, three pipelined jobs, shutdown. Spans go to `t` (the
    /// untraced run passes a disabled recorder).
    pub fn served(&self, t: &mut Tracer) -> Result<Delivered, String> {
        let [cluster_spec, jobs @ ..] = served_specs(self);
        let c = t.span("cluster.run_campaign", || {
            run_campaign_cluster(
                self.profile,
                &cluster_spec,
                None,
                &ClusterConfig::threads(1),
            )
        });
        let mut parts = vec![(c.records, c.counts)];

        let handle = t
            .span("svc.serve", || serve(service_config()))
            .map_err(|e| format!("serve failed: {e}"))?;
        let outcomes = t
            .span("svc.connect", || {
                SvcClient::connect(&handle.addr().to_string(), "e2e")
            })
            .and_then(|mut c| {
                let jobs = jobs.map(|spec| (JobWire::from_spec(self.profile, &spec, None), 1));
                t.span("svc.run_jobs", || c.run_jobs(&jobs))
            });
        // Stop the service whether or not the client succeeded, so a
        // failed rep leaves no thread behind.
        t.span("svc.shutdown", || handle.shutdown())
            .map_err(|e| format!("service shutdown failed: {e}"))?;
        for outcome in outcomes? {
            parts.push(done(outcome)?);
        }
        Ok(Delivered { parts })
    }

    /// What a correct rep must deliver, given the cell's first rep. In
    /// process that is the first rep itself (every later one must equal
    /// it); served, it is the in-process result of each of the four
    /// specs, which pins cluster = service = in-process and the
    /// duplicate job to its twin.
    pub fn reference(&self, path: Path, first: &Result<Delivered, String>) -> Delivered {
        match path {
            // A failed first rep leaves an empty reference, which no
            // rep of this cell can match.
            Path::InProcess => first.clone().unwrap_or(Delivered { parts: Vec::new() }),
            Path::Served => Delivered {
                parts: served_specs(self)
                    .iter()
                    .flat_map(|spec| self.in_process(spec).parts)
                    .collect(),
            },
        }
    }
}

/// Checks one rep against the cell's reference: record count as
/// requested, records and counts equal part by part.
pub fn check(
    w: &Workload,
    reference: &Delivered,
    got: &Result<Delivered, String>,
) -> Result<(), String> {
    let got = got.as_ref().map_err(Clone::clone)?;
    if got.injections() != w.samples {
        return Err(format!(
            "delivered {} records, requested {}",
            got.injections(),
            w.samples
        ));
    }
    if got != reference {
        return Err("records or counts differ from the reference".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let a = w.cells(99, w.cells);
            assert_eq!(a, w.cells(99, w.cells), "{}: same seed, same cells", w.name);
            assert_eq!(a.len(), w.cells);
            assert_eq!(
                a[..3],
                w.cells(99, 3),
                "{}: fewer cells are a prefix",
                w.name
            );
            let b = w.cells(100, w.cells);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.spec.seed != y.spec.seed),
                "{}: another seed, other cells",
                w.name
            );
            let mut seeds: Vec<u64> = a.iter().map(|c| c.spec.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), w.cells, "{}: cells are distinct", w.name);
            for c in &a {
                assert_eq!(c.spec.workers, 1, "one compute thread");
                assert!(c.spec.validate().is_ok());
            }
        }
    }

    #[test]
    fn workloads_differ_between_names_for_one_seed() {
        let l2c = workload("l2c_indep").unwrap().cells(7, 1);
        let lanes = workload("l2c_lanes").unwrap().cells(7, 1);
        assert_ne!(l2c[0].spec.seed, lanes[0].spec.seed);
    }

    #[test]
    fn served_rep_is_two_executions_and_one_duplicate() {
        let w = workload("served").unwrap();
        let cell = w.cells(1, 1)[0];
        let [cluster, a, b, dup] = served_specs(&cell);
        assert_eq!(cluster.samples, SERVED_CLUSTER_SAMPLES);
        assert_eq!(a, dup);
        assert_ne!(a.seed, b.seed);
        assert_eq!(
            w.samples,
            cluster.samples + a.samples + b.samples + dup.samples
        );
    }

    #[test]
    fn cells_scale_with_seconds() {
        let w = workload("l2c_indep").unwrap();
        assert_eq!(w.plan(DEFAULT_SECONDS), Plan::measured(w.cells));
        assert_eq!(w.plan(2 * DEFAULT_SECONDS).cells, 2 * w.cells);
        assert!(w.plan(1).cells >= 1);
    }

    #[test]
    fn a_short_or_failed_rep_fails_the_check() {
        let w = workload("ccx_indep").unwrap();
        let reference = Delivered {
            parts: vec![(Vec::new(), OutcomeCounts::new())],
        };
        assert!(check(w, &reference, &Ok(reference.clone()))
            .unwrap_err()
            .contains("requested 8"));
        assert!(check(w, &reference, &Err("job rejected: full".into()))
            .unwrap_err()
            .contains("rejected"));
    }
}
