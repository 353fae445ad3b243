//! The Fig. 5 warm-up-accuracy experiment (Sec. 4.1).
//!
//! The paper validates that 1,000 warm-up cycles suffice to reconstruct
//! the microarchitectural state the high-level model does not carry, by
//! comparing each state bit under mixed-mode entry against a full
//! co-simulation. We reproduce this with a *shadow* comparison that
//! keeps the two sides perfectly traffic-aligned: the target component
//! runs with `HISTORY_CYCLES` of real co-simulation history (standing
//! in for "full co-simulation from the very beginning"), then a cold
//! copy — carrying only the transferred architectural state, exactly a
//! mixed-mode entry — is attached as the driver's golden slot. Both
//! then receive identical inputs, and the per-cycle flop mismatch
//! fraction is the Fig. 5 Y-axis.

use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{System, SystemConfig};
use nestsim_models::ComponentKind;
use nestsim_stats::SeedSeq;

use crate::campaign::draw_instance;
use crate::cosim::{on_component, Component, CosimDriver};

/// Co-simulation history given to the "full" side before the shadow is
/// attached (enough to cycle every queue in the models several times).
pub const HISTORY_CYCLES: u64 = 4_000;

/// One warm-up convergence curve: `points[w]` is the average fraction
/// of microarchitectural state bits that differ after `w` warm-up
/// cycles (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmupCurve {
    /// Component measured.
    pub component: ComponentKind,
    /// Mismatch fraction per warm-up cycle, averaged over runs.
    pub points: Vec<f64>,
}

impl WarmupCurve {
    /// Mismatch fraction after the full warm-up window.
    pub fn residual(&self) -> f64 {
        self.points.last().copied().unwrap_or(0.0)
    }
}

/// Runs the Fig. 5 experiment for one component.
///
/// `runs` independent (seeded) windows are averaged; `window` is the
/// warm-up length swept on the X-axis (the paper uses 1,000).
pub fn warmup_experiment(
    component: ComponentKind,
    profile: &'static BenchProfile,
    runs: usize,
    window: u64,
    seed: u64,
    length_scale: u64,
) -> WarmupCurve {
    let mut sums = vec![0.0f64; (window + 1) as usize];
    for r in 0..runs {
        let run_seed = SeedSeq::new(seed).derive("warmup").derive_index(r as u64);
        let cfg = SystemConfig {
            seed: run_seed.seed(),
            length_scale,
            ..SystemConfig::new(profile)
        };
        let mut sys = System::new(cfg);
        let mut rng = run_seed.derive("entry").rng();
        let entry = 500 + rng.below(2_000);
        sys.run_until(entry);
        let instance = draw_instance(component, &mut rng);
        on_component!(component, C => {
            accumulate(C::attach_instance(sys, instance), window, &mut sums)
        });
    }
    WarmupCurve {
        component,
        points: sums.into_iter().map(|s| s / runs.max(1) as f64).collect(),
    }
}

fn accumulate<D: CosimDriver>(mut drv: D, window: u64, sums: &mut [f64]) {
    // Build up "full co-simulation" history in the target.
    for _ in 0..HISTORY_CYCLES {
        drv.step();
    }
    // Align to an architectural boundary, then attach the cold
    // (mixed-mode-entry) shadow and watch it converge.
    let mut guard = 0;
    while !drv.at_cold_snapshot_boundary() && guard < 256 {
        drv.step();
        guard += 1;
    }
    drv.snapshot_golden_cold();
    for w in 0..=window {
        sums[w as usize] += drv.mismatch_fraction();
        drv.step();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;

    #[test]
    fn l2c_warmup_converges() {
        let c = warmup_experiment(ComponentKind::L2c, by_name("radi").unwrap(), 2, 400, 7, 200);
        assert_eq!(c.points.len(), 401);
        let start = c.points[0];
        let end = c.residual();
        assert!(
            end < start * 0.9 || start == 0.0,
            "no convergence: {start:.4} → {end:.4}"
        );
    }

    #[test]
    fn ccx_warmup_converges_fast() {
        // The crossbar holds only in-flight packets; per the paper's
        // footnote 4 it needs no architectural transfer at all.
        let c = warmup_experiment(
            ComponentKind::Ccx,
            by_name("lu-c").unwrap(),
            2,
            300,
            11,
            200,
        );
        assert!(c.residual() <= c.points[0] || c.points[0] == 0.0);
    }
}
