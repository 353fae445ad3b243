//! RTL-only simulation runs for the Fig. 7 accuracy comparison
//! (Sec. 4.3).
//!
//! In RTL-only mode the target component is co-simulated for the
//! *entire* application — no acceleration, and no early exit — which is
//! the ground truth the mixed-mode platform is validated against. An
//! RTL-only sample is an ordinary injection run on the component's
//! driver: its warm-up starts at cycle 0 and lasts to the flip, its cap
//! never strikes, and no golden compare ends it, so it leaves
//! co-simulation only at a trap, the watchdog or the program's end, and
//! phase 3 classifies it as it does a mixed-mode run. The paper runs
//! this for a small FFT on 4 threads without an OS; the reproduction
//! harness uses [`Topology::reduced`] and a large length divisor for the
//! same reason (RTL-only is slow).

use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{RunResult, System, SystemConfig};
use nestsim_models::ComponentKind;
use nestsim_proto::Topology;
use nestsim_stats::SeedSeq;
use nestsim_telemetry::Recorder;

use crate::campaign::{injection_target_bits, injection_window};
use crate::cosim::{on_component, Component, CosimDriver};
use crate::inject::{
    aborted, run_injection, warm, Flipped, GoldenRef, InjectionRecord, InjectionSpec,
    PostFlipStats, DEFAULT_CHECK_INTERVAL, DEFAULT_COSIM_CAP, MIN_WARMUP,
};
use crate::outcome::Outcome;

/// Configuration of the Fig. 7 comparison runs.
#[derive(Debug, Clone, Copy)]
pub struct RtlOnlyConfig {
    /// Benchmark (the paper uses FFT).
    pub profile: &'static BenchProfile,
    /// Length divisor (the paper's FFT variant runs ~1M cycles).
    pub length_scale: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Component under test, on its instance 0.
    pub component: ComponentKind,
}

impl RtlOnlyConfig {
    /// The paper's setup: small FFT, 4 threads, no OS, on L2C bank 0.
    pub fn paper_like(profile: &'static BenchProfile) -> Self {
        RtlOnlyConfig {
            profile,
            length_scale: 40,
            seed: 2015,
            component: ComponentKind::L2c,
        }
    }

    fn system(&self) -> System {
        System::new(SystemConfig {
            topology: Topology::reduced(),
            seed: self.seed,
            length_scale: self.length_scale,
            ..SystemConfig::new(self.profile)
        })
    }

    /// Sample `(bit, inject_cycle)` as an injection run: RTL-only from
    /// cycle 0 with no cap, or mixed mode from the minimum warm-up.
    fn spec(&self, bit: usize, inject_cycle: u64, rtl_only: bool) -> InjectionSpec {
        let (warmup, cosim_cap) = if rtl_only {
            (inject_cycle, u64::MAX)
        } else {
            (MIN_WARMUP, DEFAULT_COSIM_CAP)
        };
        InjectionSpec {
            component: self.component,
            instance: 0,
            bit,
            inject_cycle,
            warmup,
            cosim_cap,
            check_interval: DEFAULT_CHECK_INTERVAL,
        }
    }
}

/// Runs the error-free RTL-only reference (co-simulation from cycle 0
/// until the program ends with the component drained) and returns its
/// golden data.
///
/// # Panics
///
/// Panics if the error-free RTL-only run does not complete.
pub fn rtl_only_golden(cfg: &RtlOnlyConfig) -> GoldenRef {
    let result = on_component!(cfg.component, C => {
        // Entered as `inject::warm` enters a run at cycle 0: past the
        // accelerated events of cycle 0.
        let mut sys = cfg.system();
        sys.run_until(0);
        let mut driver = C::attach_instance(sys, 0);
        while !(driver.sys().all_halted() && driver.drained() || aborted(&driver)) {
            driver.step();
        }
        driver.detach().sys.run_to_end()
    });
    match result {
        RunResult::Completed { digest, cycles } => GoldenRef { digest, cycles },
        other => panic!("error-free RTL-only run failed: {other:?}"),
    }
}

/// Runs one RTL-only injection: co-simulation from cycle 0 with a bit
/// flip at `inject_cycle`, to a trap, the watchdog or the program's
/// end, classified against `golden`.
pub fn run_rtl_only_injection(
    cfg: &RtlOnlyConfig,
    golden: &GoldenRef,
    bit: usize,
    inject_cycle: u64,
) -> InjectionRecord {
    let spec = cfg.spec(bit, inject_cycle, true);
    on_component!(cfg.component, C => {
        let warmed = warm::<C>(&cfg.system(), golden, &spec, None);
        let run = Flipped {
            golden,
            spec: &spec,
            inject_cycle: warmed.driver.cycle(),
            converges: false,
        };
        run.finish(warmed, &mut Recorder::null(), &mut PostFlipStats::default()).0
    })
}

/// Mixed-mode counterpart on the identical reduced configuration, so
/// Fig. 7 compares like against like.
pub fn run_mixed_injection_reduced(
    cfg: &RtlOnlyConfig,
    golden: &GoldenRef,
    bit: usize,
    inject_cycle: u64,
) -> InjectionRecord {
    run_injection(&cfg.system(), golden, &cfg.spec(bit, inject_cycle, false))
}

/// An outcome as Fig. 7 counts it: ONA joins OMM (the reduced setup has
/// no output-file distinction), and Persist counts as Vanished.
pub fn fig7_outcome(record: &InjectionRecord) -> Outcome {
    match record.outcome {
        Outcome::Ona => Outcome::Omm,
        Outcome::Persist => Outcome::Vanished,
        o => o,
    }
}

/// Draws deterministic (bit, cycle) injection points for Fig. 7 runs:
/// the component's injection targets, over its campaign window.
pub fn draw_fig7_samples(cfg: &RtlOnlyConfig, golden: &GoldenRef, n: u64) -> Vec<(usize, u64)> {
    let bits = injection_target_bits(cfg.component);
    let (lo, hi) = injection_window(cfg.component, cfg.profile, golden);
    let root = SeedSeq::new(cfg.seed).derive("fig7");
    (0..n)
        .map(|k| {
            let mut rng = root.derive_index(k).rng();
            (*rng.pick(bits), rng.range(lo, hi))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;

    fn tiny_cfg(component: ComponentKind) -> RtlOnlyConfig {
        RtlOnlyConfig {
            profile: by_name("fft").unwrap(),
            length_scale: 400,
            seed: 3,
            component,
        }
    }

    #[test]
    fn error_free_rtl_only_completes_and_matches_accelerated() {
        // The same configuration run purely accelerated produces the
        // same output digest — the premise of Sec. 2.1 ("under
        // error-free conditions they produce the same output signals").
        let cfg = tiny_cfg(ComponentKind::L2c);
        let accelerated = match cfg.system().run_to_end() {
            RunResult::Completed { digest, .. } => digest,
            other => panic!("accelerated run failed: {other:?}"),
        };
        for component in ComponentKind::ALL {
            let golden = rtl_only_golden(&RtlOnlyConfig { component, ..cfg });
            assert_eq!(golden.digest, accelerated, "{component}");
        }
    }

    #[test]
    fn injected_rtl_only_run_classifies() {
        let cfg = tiny_cfg(ComponentKind::L2c);
        let golden = rtl_only_golden(&cfg);
        for (bit, cycle) in draw_fig7_samples(&cfg, &golden, 2) {
            let r = run_rtl_only_injection(&cfg, &golden, bit, cycle);
            let o = fig7_outcome(&r);
            assert!(
                matches!(
                    o,
                    Outcome::Vanished | Outcome::Omm | Outcome::Ut | Outcome::Hang
                ),
                "unexpected {o:?} from {r:?}"
            );
        }
    }

    #[test]
    fn rtl_only_runs_to_the_program_end_unless_it_traps_or_hangs() {
        // No golden compare ends an RTL-only run: one that neither
        // trapped nor hung co-simulated to the program's end.
        for component in ComponentKind::ALL {
            let cfg = tiny_cfg(component);
            let golden = rtl_only_golden(&cfg);
            for (bit, cycle) in draw_fig7_samples(&cfg, &golden, 2) {
                let r = run_rtl_only_injection(&cfg, &golden, bit, cycle);
                assert_eq!(r.inject_cycle, cycle, "{component}");
                assert_ne!(r.outcome, Outcome::Persist, "{component}");
                if !matches!(r.outcome, Outcome::Ut | Outcome::Hang) {
                    assert!(
                        r.inject_cycle + r.cosim_cycles >= golden.cycles,
                        "{component}: {r:?} ended before the program's end ({})",
                        golden.cycles
                    );
                }
            }
        }
    }
}
