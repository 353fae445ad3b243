//! RTL-only simulation runs for the Fig. 7 accuracy comparison
//! (Sec. 4.3).
//!
//! In RTL-only mode the target component is co-simulated for the
//! *entire* application — no acceleration, no warm-up, no early exit —
//! which is the ground truth the mixed-mode platform is validated
//! against. The paper runs this for a small FFT on 4 threads without
//! an OS; the reproduction harness uses [`Topology::reduced`] and a
//! large length divisor for the same reason (RTL-only is slow).

use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{RunResult, System, SystemConfig};
use nestsim_proto::addr::BankId;
use nestsim_proto::Topology;
use nestsim_stats::SeedSeq;

use crate::cosim::{CosimDriver, L2cDriver};
use crate::inject::GoldenRef;
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
    /// Bank under test.
    pub bank: BankId,
}

impl RtlOnlyConfig {
    /// The paper's setup: small FFT, 4 threads, no OS.
    pub fn paper_like(profile: &'static BenchProfile) -> Self {
        RtlOnlyConfig {
            profile,
            length_scale: 40,
            seed: 2015,
            bank: BankId::new(0),
        }
    }

    fn system_config(&self, seed: u64) -> SystemConfig {
        SystemConfig {
            topology: Topology::reduced(),
            seed,
            length_scale: self.length_scale,
            ..SystemConfig::new(self.profile)
        }
    }
}

/// Runs the error-free RTL-only reference (full co-simulation from
/// cycle 0 to completion) and returns its golden data.
///
/// # Panics
///
/// Panics if the error-free RTL-only run does not complete.
pub fn rtl_only_golden(cfg: &RtlOnlyConfig) -> GoldenRef {
    let sys = System::new(cfg.system_config(cfg.seed));
    match run_rtl_only(sys, cfg.bank, None) {
        RunResult::Completed { digest, cycles } => GoldenRef { digest, cycles },
        other => panic!("error-free RTL-only run failed: {other:?}"),
    }
}

/// Runs one RTL-only injection: full co-simulation from cycle 0, with a
/// bit flip at `inject_cycle`, classified against `golden`.
///
/// ONA and OMM are merged (as in the paper's Fig. 7, where the reduced
/// setup has no output-file distinction); completed-and-matching runs
/// count as Vanished.
pub fn run_rtl_only_injection(
    cfg: &RtlOnlyConfig,
    golden: &GoldenRef,
    bit: usize,
    inject_cycle: u64,
) -> Outcome {
    let mut sys = System::new(cfg.system_config(cfg.seed));
    sys.set_watchdog(golden.watchdog());
    golden.verdict(&run_rtl_only(sys, cfg.bank, Some((bit, inject_cycle))))
}

/// Mixed-mode counterpart on the identical reduced configuration, so
/// Fig. 7 compares like against like. Returns the merged-category
/// outcome.
pub fn run_mixed_injection_reduced(
    cfg: &RtlOnlyConfig,
    golden: &GoldenRef,
    bit: usize,
    inject_cycle: u64,
) -> Outcome {
    let base = System::new(cfg.system_config(cfg.seed));
    let spec = crate::inject::InjectionSpec {
        component: nestsim_models::ComponentKind::L2c,
        instance: cfg.bank.index(),
        bit,
        inject_cycle,
        warmup: crate::inject::MIN_WARMUP,
        cosim_cap: crate::inject::DEFAULT_COSIM_CAP,
        check_interval: crate::inject::DEFAULT_CHECK_INTERVAL,
    };
    let r = crate::inject::run_injection(&base, golden, &spec);
    match r.outcome {
        // Merge categories to match the RTL-only classification.
        Outcome::Ona => Outcome::Omm,
        Outcome::Persist => Outcome::Vanished,
        o => o,
    }
}

/// Drives a full RTL-only execution, optionally injecting `(bit, at)`,
/// and returns the application result.
fn run_rtl_only(sys: System, bank: BankId, inject: Option<(usize, u64)>) -> RunResult {
    let mut drv = L2cDriver::attach(sys, bank);
    let mut injected = false;
    loop {
        drv.step();
        if let Some((bit, at)) = inject {
            if !injected && drv.cycle() >= at {
                drv.inject(bit);
                injected = true;
            }
        }
        if let Some((thread, cause, cycle)) = drv.sys().trap() {
            return RunResult::Trapped {
                thread,
                cause,
                cycle,
            };
        }
        if drv.sys().all_halted() {
            let detach = drv.detach();
            let mut sys = detach.sys;
            return sys.run_to_end();
        }
        if drv.cycle() > drv.sys().watchdog() {
            return RunResult::Hang { cycle: drv.cycle() };
        }
    }
}

/// Draws deterministic (bit, cycle) injection points for Fig. 7 runs.
pub fn draw_fig7_samples(cfg: &RtlOnlyConfig, golden: &GoldenRef, n: u64) -> Vec<(usize, u64)> {
    let bits = crate::campaign::injection_target_bits(nestsim_models::ComponentKind::L2c);
    let root = SeedSeq::new(cfg.seed).derive("fig7");
    (0..n)
        .map(|k| {
            let mut rng = root.derive_index(k).rng();
            (
                *rng.pick(&bits),
                rng.range(2_000, (golden.cycles * 9 / 10).max(2_001)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;

    fn tiny_cfg() -> RtlOnlyConfig {
        RtlOnlyConfig {
            profile: by_name("radi").unwrap(),
            length_scale: 400,
            seed: 3,
            bank: BankId::new(0),
        }
    }

    #[test]
    fn error_free_rtl_only_completes_and_matches_accelerated() {
        let cfg = tiny_cfg();
        let golden = rtl_only_golden(&cfg);
        // The same configuration run purely accelerated produces the
        // same output digest — the premise of Sec. 2.1 ("under
        // error-free conditions they produce the same output signals").
        let mut acc = System::new(SystemConfig {
            topology: Topology::reduced(),
            seed: cfg.seed,
            length_scale: cfg.length_scale,
            ..SystemConfig::new(cfg.profile)
        });
        match acc.run_to_end() {
            RunResult::Completed { digest, .. } => assert_eq!(digest, golden.digest),
            other => panic!("accelerated run failed: {other:?}"),
        }
    }

    #[test]
    fn injected_rtl_only_run_classifies() {
        let cfg = tiny_cfg();
        let golden = rtl_only_golden(&cfg);
        let samples = draw_fig7_samples(&cfg, &golden, 2);
        for (bit, cycle) in samples {
            let o = run_rtl_only_injection(&cfg, &golden, bit, cycle);
            assert!(
                matches!(
                    o,
                    Outcome::Vanished | Outcome::Omm | Outcome::Ut | Outcome::Hang
                ),
                "unexpected {o:?}"
            );
        }
    }
}
