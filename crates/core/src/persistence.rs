//! The Fig. 6 persistence sweep (Sec. 4.2).
//!
//! For each sampled target flip-flop, measures how many co-simulation
//! cycles an injected error persists in *unmapped microarchitectural
//! state* (neither vanished, nor benign, nor mapped to high-level
//! uncore state). Fig. 6 plots, per component, the fraction of
//! flip-flops whose errors persist beyond a given cycle count.

use nestsim_hlsim::workload::BenchProfile;
use nestsim_models::ComponentKind;
use nestsim_stats::SeedSeq;

use crate::campaign::{draw_instance, golden_reference, injection_target_bits, CampaignSpec};
use crate::cosim::{on_component, Component, CosimDriver};
use crate::inject::MIN_WARMUP;

/// Persistence of one sampled flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlopPersistence {
    /// The sampled flop bit.
    pub bit: usize,
    /// Cycles the injected error persisted in unmapped microarch state
    /// (clamped at the sweep limit).
    pub cycles: u64,
    /// True if the error was still present at the sweep limit.
    pub censored: bool,
}

/// Result of the persistence sweep for one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceSweep {
    /// Component measured.
    pub component: ComponentKind,
    /// One entry per sampled flop.
    pub flops: Vec<FlopPersistence>,
    /// The sweep limit used.
    pub limit: u64,
}

impl PersistenceSweep {
    /// Fraction of sampled flops whose error persisted beyond `cycles`
    /// (the Fig. 6 Y-axis).
    pub fn fraction_beyond(&self, cycles: u64) -> f64 {
        if self.flops.is_empty() {
            return 0.0;
        }
        let n = self.flops.iter().filter(|f| f.cycles > cycles).count();
        n as f64 / self.flops.len() as f64
    }
}

/// Runs the Fig. 6 sweep: samples `flop_samples` target flops and
/// measures each one's persistence up to `limit` cycles.
pub fn persistence_sweep(
    component: ComponentKind,
    profile: &'static BenchProfile,
    flop_samples: usize,
    limit: u64,
    spec: &CampaignSpec,
) -> PersistenceSweep {
    let (base, _golden) = golden_reference(profile, spec);
    let bits = injection_target_bits(component);
    let root = SeedSeq::new(spec.seed).derive("persistence");
    let stride = (bits.len() / flop_samples.max(1)).max(1);
    let mut flops = Vec::with_capacity(flop_samples);
    for (k, bit) in bits.iter().step_by(stride).take(flop_samples).enumerate() {
        let mut rng = root.derive_index(k as u64).rng();
        let entry = 200 + rng.below(2_000);
        let mut sys = base.clone();
        sys.run_until(entry);
        let instance = draw_instance(component, &mut rng);
        let (cycles, censored) = on_component!(component, C => {
            measure(C::attach_instance(sys, instance), *bit, limit)
        });
        flops.push(FlopPersistence {
            bit: *bit,
            cycles,
            censored,
        });
    }
    PersistenceSweep {
        component,
        flops,
        limit,
    }
}

fn measure<D: CosimDriver>(mut drv: D, bit: usize, limit: u64) -> (u64, bool) {
    for _ in 0..MIN_WARMUP {
        drv.step();
    }
    drv.snapshot_golden();
    drv.inject(bit);
    let mut cycles = 0;
    while cycles < limit {
        drv.step();
        cycles += 1;
        if cycles % 16 == 0 && drv.check_every_field().exitable() {
            return (cycles, false);
        }
        if drv.sys().trap().is_some() {
            // The system died; the microarch question is moot — count
            // the error as cleared at this point.
            return (cycles, false);
        }
    }
    (limit, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::L2cDriver;
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::{L2cBank, UncoreRtl};
    use nestsim_proto::addr::BankId;

    #[test]
    fn sweep_produces_entries_and_monotone_curve() {
        let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
        let s = persistence_sweep(
            ComponentKind::L2c,
            by_name("radi").unwrap(),
            8,
            4_000,
            &spec,
        );
        assert_eq!(s.flops.len(), 8);
        let f10 = s.fraction_beyond(10);
        let f1000 = s.fraction_beyond(1_000);
        assert!(f10 >= f1000, "fraction must be non-increasing");
    }

    #[test]
    fn config_flop_errors_persist() {
        // A flipped configuration bit is never overwritten by traffic:
        // it must persist to the sweep limit (these are the flops one
        // "may conservatively choose to protect", Sec. 4.2).
        let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
        let profile = by_name("radi").unwrap();
        let (base, _) = golden_reference(profile, &spec);
        let bank = L2cBank::new(BankId::new(0));
        let cfg_bit = bank
            .flops()
            .fields()
            .iter()
            .find(|f| f.name == "cfg.throttle")
            .map(|f| f.offset + 2)
            .unwrap();
        let mut sys = base.clone();
        sys.run_until(500);
        let (cycles, censored) = measure(L2cDriver::attach(sys, BankId::new(0)), cfg_bit, 2_000);
        assert!(censored, "config flip cleared after {cycles} cycles");
    }
}
