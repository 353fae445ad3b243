//! Cross-figure campaign cell cache and the concurrent grid runner.
//!
//! Figs. 3, 4, 8 and 9 all consume per-(component, benchmark) campaign
//! cells, and their default benchmark subsets overlap heavily — so
//! `repro fig4` after `repro fig3` (or any figure inside `repro all`)
//! used to recompute identical campaigns from scratch. The cache memos
//! every computed [`CampaignResult`] under its determinism key, the
//! one the campaign service dedups on ([`JobWire::result_key`]), which
//! is sound because campaigns are bit-reproducible: equal keys imply
//! byte-identical results.
//!
//! [`run_grid`] evaluates the independent cells of one figure
//! concurrently, dividing the machine between grid-level threads and
//! per-campaign workers; cell results come back in request order, so
//! figure output stays deterministic.
//!
//! Hit/miss accounting lives in a [`Recorder`] using the shared
//! telemetry names, so the engine footer under each figure (and the
//! `fig4`-after-`fig3` zero-redundant-runs test) can read it.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use nestsim_cluster::proto::JobWire;
use nestsim_cluster::{run_cluster, ClusterConfig};
use nestsim_core::campaign::{default_workers, run_rounds, CampaignSpec, LadderExecutor, Plan};
use nestsim_core::CampaignResult;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_models::ComponentKind;
use nestsim_stats::stop::StopPolicy;
use nestsim_svc::{JobKey, JobOutcome, SvcClient};
use nestsim_telemetry::{names, Recorder, TelemetryConfig};

use crate::Opts;

/// What the cache keys a cell on: the [`JobWire::result_key`] of the
/// job the cell describes — the key the service dedups on — plus the
/// adaptive stopping policy by exact bit pattern (`None` for a
/// fixed-count cell). Worker count, snapshot interval, lane width and
/// cluster mode are absent: the engine guarantees they never affect
/// results (the byte-identity locked by the equivalence tests and the
/// cluster end-to-end tests).
type CacheKey = (JobKey, Option<(u64, u64)>);

struct CellCache {
    cells: Mutex<HashMap<CacheKey, CampaignResult>>,
    stats: Mutex<Recorder>,
}

fn cache() -> &'static CellCache {
    static CACHE: OnceLock<CellCache> = OnceLock::new();
    CACHE.get_or_init(|| CellCache {
        cells: Mutex::new(HashMap::new()),
        stats: Mutex::new(Recorder::active(&TelemetryConfig::default())),
    })
}

/// A snapshot of the cache's hit/miss counters
/// ([`names::CELL_CACHE_HITS`] / [`names::CELL_CACHE_MISSES`]).
pub fn cache_stats() -> Recorder {
    cache().stats.lock().expect("cache stats poisoned").clone()
}

fn campaign_spec(opts: &Opts, component: ComponentKind, workers: usize) -> CampaignSpec {
    CampaignSpec {
        samples: opts.samples,
        seed: opts.seed,
        length_scale: opts.scale.max(1),
        cosim_cap: opts.cosim_cap,
        check_interval: opts.check_interval,
        snapshot_interval: opts.snapshot_interval,
        lane_cluster: opts.lane_cluster,
        lane_width: opts.lane_width,
        workers,
        ..CampaignSpec::new(component, opts.samples)
    }
}

/// Computes (or fetches) one campaign cell through the cross-figure
/// cache. `workers` bounds the cell's campaign workers when it has to
/// be computed (0 = available parallelism).
pub fn cell_cached(
    profile: &'static BenchProfile,
    opts: &Opts,
    component: ComponentKind,
    workers: usize,
) -> CampaignResult {
    let spec = campaign_spec(opts, component, workers);
    let tcfg = TelemetryConfig::default();
    let telemetry = opts.telemetry.as_ref().map(|_| &tcfg);
    let job = JobWire::from_spec(profile, &spec, telemetry);
    let policy = opts
        .adaptive
        .then(|| (opts.ci_target.to_bits(), opts.ci_confidence.to_bits()));
    let key = (job.result_key().expect("a campaign cell encodes"), policy);
    if let Some(hit) = cache().cells.lock().expect("cell cache poisoned").get(&key) {
        let result = hit.clone();
        cache()
            .stats
            .lock()
            .expect("cache stats poisoned")
            .count(names::CELL_CACHE_HITS, 1);
        return result;
    }
    // What to run and where to run it are separate choices. The plan is
    // in the cell key; the executor is not — every one returns the same
    // bytes. (The service runs fixed-count cells only.)
    let plan = if opts.adaptive {
        Plan::Adaptive(StopPolicy::new(opts.ci_target, opts.ci_confidence))
    } else {
        Plan::Fixed
    };
    let result = if let Some(addr) = &opts.service {
        run_cell_via_service(addr, &job)
    } else if opts.cluster > 0 {
        // `--cluster N` spawned worker processes (`repro worker`, the
        // hidden subcommand).
        let worker = std::env::current_exe()
            .expect("current_exe")
            .to_string_lossy()
            .into_owned();
        let cfg = ClusterConfig::processes(vec![worker, "worker".to_string()], opts.cluster);
        run_cluster(profile, &spec, &plan, telemetry, &cfg)
    } else {
        let executor = LadderExecutor::new(profile, &spec, &plan, telemetry);
        run_rounds(profile, &spec, &plan, telemetry, executor)
    };
    let mut stats = cache().stats.lock().expect("cache stats poisoned");
    stats.count(names::CELL_CACHE_MISSES, 1);
    drop(stats);
    cache()
        .cells
        .lock()
        .expect("cell cache poisoned")
        .insert(key, result.clone());
    result
}

/// Submits one cell to a running `nestsim-svc` campaign service
/// (`--service ADDR`) and blocks for the streamed result. Service
/// execution is byte-identical to local execution — the service runs
/// the same fixed plan on the same executor — so the cell lands in the
/// same cache slot.
/// Concurrent `repro` invocations pointing at one service dedupe
/// overlapping cells server-side to a single execution.
fn run_cell_via_service(addr: &str, job: &JobWire) -> CampaignResult {
    let mut client = SvcClient::connect(addr, "repro")
        .unwrap_or_else(|e| panic!("cannot reach campaign service at {addr}: {e}"));
    match client.run_job(job, 1) {
        Ok(JobOutcome::Done(result)) => *result,
        Ok(JobOutcome::Rejected(reason)) => {
            panic!("campaign service at {addr} rejected the cell: {reason}")
        }
        Ok(JobOutcome::Failed(reason)) => {
            panic!("campaign service at {addr} failed the cell: {reason}")
        }
        Err(e) => panic!("campaign service I/O at {addr} failed: {e}"),
    }
}

/// Runs the independent campaign cells of one figure concurrently and
/// returns their results **in request order**. The machine is divided
/// between grid-level threads and per-campaign workers so a
/// many-celled figure does not oversubscribe the cores.
pub fn run_grid(
    cells: &[(ComponentKind, &'static BenchProfile)],
    opts: &Opts,
) -> Vec<CampaignResult> {
    if cells.is_empty() {
        return Vec::new();
    }
    let avail = default_workers();
    // Cluster mode distributes each cell across worker processes, so
    // grid-level concurrency would oversubscribe; run cells serially.
    let lanes = if opts.cluster > 0 {
        1
    } else {
        avail.min(cells.len())
    };
    let workers_per_cell = (avail / lanes).max(1);
    let slots: Vec<Mutex<Option<CampaignResult>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let slots = &slots;
            scope.spawn(move || {
                // Lane `l` takes cells l, l+lanes, l+2*lanes, …
                for (idx, &(component, profile)) in cells.iter().enumerate() {
                    if idx % lanes != lane {
                        continue;
                    }
                    let r = cell_cached(profile, opts, component, workers_per_cell);
                    *slots[idx].lock().expect("grid slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("grid slot poisoned")
                .expect("every grid lane fills its slots")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figs::pick_benchmarks;

    /// The cell cache and its hit/miss counters are one per process,
    /// and the test runner runs this module's tests on parallel
    /// threads: every test that fills the cache holds this lock, so a
    /// test that diffs [`cache_stats`] counts only its own cells.
    fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // A test that failed while holding it has already reported;
        // the guarded state is `()`, so there is nothing to distrust.
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn quick_opts(seed: u64) -> Opts {
        Opts {
            samples: 3,
            scale: 400,
            seed,
            ..Opts::default()
        }
    }

    /// The acceptance scenario: a fig4 grid run after a fig3 grid run
    /// performs zero redundant campaign cell computations — every cell
    /// fig3 already computed is a cache hit, verified through the
    /// telemetry counters.
    #[test]
    fn fig4_after_fig3_recomputes_no_shared_cell() {
        let _cache = cache_lock();
        let opts = quick_opts(77);
        // fig3's grid: the default benchmark subset for one component.
        let fig3_cells: Vec<(ComponentKind, &'static BenchProfile)> =
            pick_benchmarks(&opts, opts.component)
                .into_iter()
                .map(|b| (opts.component, b))
                .collect();
        let before = cache_stats();
        let fig3 = run_grid(&fig3_cells, &opts);
        let mid = cache_stats();
        assert_eq!(
            mid.counter(names::CELL_CACHE_MISSES) - before.counter(names::CELL_CACHE_MISSES),
            fig3_cells.len() as u64,
            "a cold cache computes every fig3 cell"
        );

        // fig4's grid re-requests the same component's cells (among
        // others); the shared ones must all hit.
        let fig4 = run_grid(&fig3_cells, &opts);
        let after = cache_stats();
        assert_eq!(
            after.counter(names::CELL_CACHE_MISSES),
            mid.counter(names::CELL_CACHE_MISSES),
            "zero redundant campaign cell runs after fig3"
        );
        assert!(
            after.counter(names::CELL_CACHE_HITS) - mid.counter(names::CELL_CACHE_HITS)
                >= fig3_cells.len() as u64
        );

        // Cached results are the same campaigns, byte for byte.
        for (a, b) in fig3.iter().zip(&fig4) {
            assert_eq!(a.records, b.records);
            assert_eq!(a.counts, b.counts);
        }
    }

    /// `--service ADDR` routes cells through a campaign service and
    /// gets results byte-identical to in-process execution.
    #[test]
    fn service_cell_matches_in_process() {
        let _cache = cache_lock();
        let handle =
            nestsim_svc::serve(nestsim_svc::ServiceConfig::default()).expect("start service");
        let mut opts = quick_opts(81);
        opts.service = Some(handle.addr().to_string());
        let profile = pick_benchmarks(&opts, ComponentKind::L2c)[0];
        let got = cell_cached(profile, &opts, ComponentKind::L2c, 1);
        let spec = campaign_spec(&opts, ComponentKind::L2c, 1);
        let reference = nestsim_core::run_campaign_with(profile, &spec, None);
        assert_eq!(got.records, reference.records);
        assert_eq!(got.counts, reference.counts);
        assert_eq!(got.golden, reference.golden);
        handle.shutdown().expect("shutdown");
    }

    /// The cache keys on what changes results and nothing else: one
    /// cell asked for at two lane widths and two snapshot intervals is
    /// one computation, while a new seed, lane cluster or adaptive CI
    /// target is a cell of its own.
    #[test]
    fn cache_key_ignores_execution_knobs_and_keeps_result_fields() {
        let _cache = cache_lock();
        let base = Opts {
            lane_width: 1,
            ..quick_opts(82)
        };
        let profile = pick_benchmarks(&base, ComponentKind::L2c)[0];
        // (misses, hits) one request adds.
        let request = |opts: &Opts| {
            let before = cache_stats();
            cell_cached(profile, opts, ComponentKind::L2c, 1);
            let after = cache_stats();
            let delta = |name| after.counter(name) - before.counter(name);
            (
                delta(names::CELL_CACHE_MISSES),
                delta(names::CELL_CACHE_HITS),
            )
        };
        assert_eq!(request(&base), (1, 0), "a new cell is computed");
        let same_cell = [
            Opts {
                lane_width: 64,
                ..base.clone()
            },
            Opts {
                snapshot_interval: 500,
                ..base.clone()
            },
            Opts {
                snapshot_interval: 7_000,
                lane_width: 64,
                ..base.clone()
            },
        ];
        for opts in &same_cell {
            assert_eq!(request(opts), (0, 1), "{opts:?}");
        }
        let adaptive = Opts {
            adaptive: true,
            ci_target: 0.3,
            ..base.clone()
        };
        let other_cells = [
            Opts {
                seed: 83,
                ..base.clone()
            },
            Opts {
                lane_cluster: 2,
                ..base.clone()
            },
            adaptive.clone(),
            Opts {
                ci_target: 0.25,
                ..adaptive
            },
        ];
        for opts in &other_cells {
            assert_eq!(request(opts), (1, 0), "{opts:?}");
        }
    }

    /// Grid results come back in request order regardless of which
    /// lane computed them, and match a direct cell computation.
    #[test]
    fn grid_preserves_request_order() {
        let _cache = cache_lock();
        let opts = quick_opts(78);
        let benches = pick_benchmarks(&opts, ComponentKind::L2c);
        let cells: Vec<(ComponentKind, &'static BenchProfile)> = benches
            .iter()
            .take(2)
            .map(|&b| (ComponentKind::L2c, b))
            .collect();
        let grid = run_grid(&cells, &opts);
        assert_eq!(grid.len(), cells.len());
        for (r, (component, profile)) in grid.iter().zip(&cells) {
            assert_eq!(r.benchmark, profile.name);
            assert_eq!(r.component, *component);
            let direct = cell_cached(profile, &opts, *component, 1);
            assert_eq!(r.records, direct.records);
        }
    }
}
