//! The round loop on its own, and the edges its executors own.
//!
//! `run_rounds` is the one place a campaign's rounds are asked for,
//! merged and — under the adaptive plan — judged. A scripted executor
//! that returns canned outcomes drives it here without simulating
//! anything, so what is checked is the loop: which rounds it asks for,
//! when it stops, what it hands back. The empty-round edges of the real
//! in-process executor sit beside it.

use nestsim::core::adaptive::{AdaptiveState, StratifiedRound};
use nestsim::core::campaign::{
    contiguous_shards, run_campaign_with, run_rounds, CampaignSpec, Execution, IndexedRuns,
    LadderExecutor, Plan, RoundExecutor,
};
use nestsim::core::inject::{GoldenRef, InjectionRecord};
use nestsim::core::Outcome;
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;
use nestsim::stats::stop::{StopDecision, StopPolicy};
use nestsim::telemetry::{names, Recorder, TelemetryConfig};

const GOLDEN: GoldenRef = GoldenRef {
    digest: 0x5eed,
    cycles: 1_000,
};

/// The canned outcome of position `i` of round `round`: mostly
/// Vanished, with enough ONA to keep an interval wide for a few rounds.
fn canned(round: usize, i: usize) -> Outcome {
    if (round + i).is_multiple_of(3) {
        Outcome::Ona
    } else {
        Outcome::Vanished
    }
}

/// An executor that simulates nothing: it logs what it was asked for
/// and answers each position with its canned outcome.
struct Scripted<'a> {
    fixed_samples: u64,
    asked: &'a mut Vec<Option<StratifiedRound>>,
}

impl RoundExecutor for Scripted<'_> {
    fn run_round(&mut self, strata: Option<&StratifiedRound>) -> IndexedRuns {
        let round = self.asked.len();
        self.asked.push(strata.copied());
        let n = strata.map_or(self.fixed_samples, |r| r.alloc.iter().sum()) as usize;
        (0..n)
            .map(|i| {
                let record = InjectionRecord {
                    outcome: canned(round, i),
                    bit: i,
                    inject_cycle: 500,
                    cosim_cycles: 40,
                    erroneous_output_cycle: None,
                    propagation_latency: None,
                    corrupted_line_count: 0,
                    rollback_distance: None,
                };
                (i, record, Recorder::null())
            })
            .collect()
    }

    fn finish(self) -> Execution {
        let mut engine = Recorder::active(&TelemetryConfig::default());
        engine.count("scripted.rounds", self.asked.len() as u64);
        Execution {
            golden: GOLDEN,
            engine,
            worker_samples: Vec::new(),
        }
    }
}

fn policy() -> StopPolicy {
    let mut p = StopPolicy::new(0.10, 0.90);
    p.min_samples = 8;
    p.initial_round = 8;
    p.max_round = 32;
    p.max_samples = 160;
    p
}

#[test]
fn adaptive_plan_stops_where_the_state_driven_by_hand_stops() {
    let profile = by_name("radi").unwrap();
    let spec = CampaignSpec::quick(ComponentKind::L2c, 0);

    // By hand: the decision state fed the same canned outcomes.
    let mut state = AdaptiveState::new(spec.component, policy());
    let mut expected = Vec::new();
    let mut alloc = state.initial_alloc();
    loop {
        let round = expected.len();
        expected.push(Some(state.round(alloc)));
        let n = alloc.iter().sum::<u64>() as usize;
        state.absorb_round(&alloc, (0..n).map(|i| canned(round, i)));
        match state.decide() {
            StopDecision::Stop { .. } => break,
            StopDecision::Continue { next_round } => alloc = state.alloc_for(next_round),
        }
    }
    let by_hand = state.into_summary();
    assert!(by_hand.rounds.len() >= 3, "the script takes several rounds");

    let mut asked = Vec::new();
    let executor = Scripted {
        fixed_samples: 0,
        asked: &mut asked,
    };
    let r = run_rounds(profile, &spec, &Plan::Adaptive(policy()), None, executor);
    assert_eq!(asked, expected, "same rounds asked for, and no more");
    let summary = r.adaptive.expect("adaptive summary");
    assert_eq!(summary.rounds, by_hand.rounds);
    assert_eq!(summary, by_hand);
    assert_eq!(r.records.len() as u64, by_hand.samples_run);
    assert_eq!(r.counts.total(), by_hand.samples_run);
    assert_eq!(r.golden, GOLDEN);
    // The plan's own counters land on the executor's recorder.
    let engine = &r.telemetry.engine;
    assert_eq!(
        engine.counter(names::ADAPTIVE_ROUNDS),
        by_hand.rounds.len() as u64
    );
    assert_eq!(engine.counter("scripted.rounds"), asked.len() as u64);
}

#[test]
fn fixed_plan_runs_exactly_one_round() {
    let profile = by_name("radi").unwrap();
    let spec = CampaignSpec::quick(ComponentKind::L2c, 10);
    let mut asked = Vec::new();
    let executor = Scripted {
        fixed_samples: spec.samples,
        asked: &mut asked,
    };
    let r = run_rounds(profile, &spec, &Plan::Fixed, None, executor);
    assert_eq!(asked, vec![None]);
    assert!(r.adaptive.is_none());
    assert_eq!(r.records.len(), 10);
    assert_eq!(r.counts.count(Outcome::Ona), 4);
    assert_eq!(r.telemetry.engine.counter(names::ADAPTIVE_ROUNDS), 0);
}

#[test]
fn fixed_plan_with_no_samples_asks_for_one_empty_round() {
    let profile = by_name("fft").unwrap();
    let spec = CampaignSpec::quick(ComponentKind::Mcu, 0);
    let cfg = TelemetryConfig::default();
    let mut asked = Vec::new();
    let executor = Scripted {
        fixed_samples: 0,
        asked: &mut asked,
    };
    let scripted = run_rounds(profile, &spec, &Plan::Fixed, Some(&cfg), executor);
    assert_eq!(asked, vec![None], "the empty round is still asked for");
    assert!(scripted.records.is_empty());
    assert_eq!(scripted.counts.total(), 0);

    // The real executor on the same cell — the path a `samples = 0`
    // setup measurement takes — differs in its engine recorder only,
    // and that holds the one golden pass, no rung capture and nothing
    // of a shard.
    let real = run_campaign_with(profile, &spec, Some(&cfg));
    assert_eq!(real.telemetry.merged, Recorder::active(&cfg));
    assert_eq!(real.telemetry.merged, scripted.telemetry.merged);
    assert!(real.telemetry.worker_samples.is_empty());
    assert_eq!(
        real.telemetry.engine.counters(),
        vec![(names::LADDER_CAPTURES, 0), (names::LADDER_RUNGS, 1)]
    );
}

#[test]
fn an_empty_round_spawns_nothing_and_counts_nothing() {
    let profile = by_name("radi").unwrap();
    let cfg = TelemetryConfig::default();
    for workers in [0, 3] {
        let spec = CampaignSpec {
            workers,
            ..CampaignSpec::quick(ComponentKind::L2c, 0)
        };
        let mut executor = LadderExecutor::new(profile, &spec, &Plan::Fixed, Some(&cfg));
        assert!(executor.run_round(None).is_empty());
        let done = executor.finish();
        // No shard was planned, so no worker is on record, no rung was
        // captured, and no runner existed to count a forward cycle, a
        // restore or a lane.
        assert!(done.worker_samples.is_empty());
        assert_eq!(
            done.engine.counters(),
            vec![(names::LADDER_CAPTURES, 0), (names::LADDER_RUNGS, 1)]
        );
    }
}

#[test]
#[should_panic(expected = "at least one worker")]
fn contiguous_shards_reject_zero_workers() {
    let _ = contiguous_shards(&[0, 1, 2], 0);
}
