//! The campaign executor behind the simulated workers.
//!
//! A real cluster worker re-derives everything from the
//! [`JobWire`] seed and runs injections through
//! [`nestsim_core::campaign::ShardRunner`]. That derivation is
//! deterministic — the whole cluster design leans on it — which means
//! a simulated worker does not need to re-run the engine per explored
//! schedule: [`CampaignExec`] runs the engine **once**, caches every
//! [`RunWire`] in entry order, and replays cached results to the
//! thousands of schedules the explorer visits. Determinism is what
//! makes the cache faithful: any worker, at any point in any
//! schedule, executing entry-order position `p` would produce exactly
//! these bytes.
//!
//! The same object owns the in-process reference result
//! ([`CampaignExec::reference`]), so the checker's "merged results are
//! byte-identical to the in-process engine" invariant compares real
//! records and real merged telemetry, not synthetic stand-ins.

use nestsim_cluster::proto::RunWire;
use nestsim_cluster::JobWire;
use nestsim_core::campaign::{
    assemble_result, run_campaign_with, CampaignResult, CampaignSpec, CellBase, IndexedRuns,
    ShardRunner,
};
use nestsim_core::inject::GoldenRef;
use nestsim_hlsim::ladder::DEFAULT_MAX_RUNGS;
use nestsim_hlsim::workload::BenchProfile;
use nestsim_telemetry::{Recorder, TelemetryConfig};

/// One campaign cell, fully executed and cached for schedule replay.
pub struct CampaignExec {
    profile: &'static BenchProfile,
    job: JobWire,
    golden: GoldenRef,
    /// Cached per-run results, indexed by entry-order *position* (the
    /// `pos` a [`nestsim_cluster::WorkerAction::Execute`] names).
    runs: Vec<RunWire>,
    reference: CampaignResult,
}

impl CampaignExec {
    /// Runs the cell once through the real engine and caches every
    /// per-run result plus the in-process reference campaign.
    ///
    /// # Panics
    ///
    /// Panics on invalid campaign cells, exactly like the engines.
    pub fn new(
        profile: &'static BenchProfile,
        spec: &CampaignSpec,
        telemetry: Option<&TelemetryConfig>,
    ) -> CampaignExec {
        assert!(spec.samples > 0, "an empty campaign has nothing to check");
        let job = JobWire::from_spec(profile, spec, telemetry);
        // The worker's ladder, which leased shards may enter anywhere.
        let mut base = CellBase::capture(profile, spec, DEFAULT_MAX_RUNGS);
        let round = base.draw(profile, spec, None);
        let golden = base.golden;

        // One straight-through runner, a group at a time as a worker
        // runs them.
        let mut runner = ShardRunner::new(
            &base.ladder,
            &round.samples,
            &golden,
            telemetry,
            spec.lane_width as usize,
        );
        let mut runs = Vec::with_capacity(round.order.len());
        let mut rest = &round.order[..];
        while !rest.is_empty() {
            let group = runner.run_group(rest);
            rest = &rest[group.len()..];
            for (sample, record, recorder) in group {
                runs.push(RunWire {
                    sample: sample as u64,
                    record,
                    recorder,
                });
            }
        }

        let reference = run_campaign_with(profile, spec, telemetry);
        CampaignExec {
            profile,
            job,
            golden,
            runs,
            reference,
        }
    }

    /// The wire-format job description the simulated server
    /// serves to workers.
    pub fn job(&self) -> &JobWire {
        &self.job
    }

    /// The engine's golden reference for this cell.
    pub fn golden(&self) -> GoldenRef {
        self.golden
    }

    /// Number of samples (== number of entry-order positions).
    pub fn samples(&self) -> u64 {
        self.runs.len() as u64
    }

    /// The cached result of executing entry-order position `pos` —
    /// the bytes any deterministic worker would produce there.
    pub fn run(&self, pos: u64) -> RunWire {
        self.runs[pos as usize].clone()
    }

    /// The in-process engine's result for this cell — the byte-level
    /// oracle every explored schedule's merged output must match.
    pub fn reference(&self) -> &CampaignResult {
        &self.reference
    }

    /// The coordinator epilogue for the cell's one round, as
    /// [`nestsim_cluster::ClusterCampaign`] and the round loop perform
    /// it between them: flatten per-shard runs, attribute worker
    /// samples, sort, cover-check and merge in sample order.
    ///
    /// # Panics
    ///
    /// Panics unless `results` covers every sample exactly once — the
    /// simulator checks exact-cover *before* calling this, so a panic
    /// here means the checker itself is broken.
    pub fn assemble(
        &self,
        golden: GoldenRef,
        results: Vec<Vec<RunWire>>,
        engine: Recorder,
    ) -> CampaignResult {
        let mut indexed: IndexedRuns = Vec::with_capacity(self.runs.len());
        let mut worker_samples = Vec::with_capacity(results.len());
        for runs in results {
            worker_samples.push(runs.len());
            for run in runs {
                indexed.push((run.sample as usize, run.record, run.recorder));
            }
        }
        if self.job.telemetry.is_none() {
            worker_samples = Vec::new();
        }
        assemble_result(
            self.profile,
            &self.job.spec,
            self.job.telemetry.as_ref(),
            golden,
            indexed,
            worker_samples,
            engine,
        )
    }
}
