//! Processor-core soft-error injection — the Fig. 4 baseline.
//!
//! The paper compares uncore OMM rates against processor-core rates
//! *from the literature* (LEON3, IVM Alpha, POWER6, OpenRISC). To make
//! the comparison apples-to-apples on *this* substrate, this module
//! injects flips into the modeled cores' architectural registers
//! (accumulators, address cursors, load-return registers, control
//! state) and classifies outcomes with the same five categories. Core
//! injection needs no co-simulation: the corrupted state is
//! architectural, so the accelerated mode carries it to the outcome
//! directly — which is also why core-side errors are *detected* much
//! faster than uncore errors (Sec. 5.1).

use nestsim_hlsim::workload::BenchProfile;
use nestsim_hlsim::{CoreReg, System};
use nestsim_stats::SeedSeq;

use crate::campaign::{golden_reference, CampaignSpec};
use crate::inject::GoldenRef;
use crate::outcome::{Outcome, OutcomeCounts};

/// Flip-flops per T2 processor core (paper Table 3). Our core
/// abstraction models only the *live* architectural registers
/// ([`CoreReg::ALL`], 226 bits × 8 hardware threads per core); the
/// remaining flops — pipeline latches, decode state, L1 arrays'
/// periphery — are don't-care at this abstraction level, and a flip
/// there vanishes, exactly the derating a full-RTL core study observes
/// (the literature's >90% vanish rates). Campaigns sample the *full*
/// population so rates are per-core-flop, comparable to Fig. 4.
pub const CORE_FLOPS_PER_CORE: u64 = 44_288;

/// Runs one core-register injection and classifies the outcome.
pub fn run_core_injection(
    base: &System,
    golden: &GoldenRef,
    thread: usize,
    reg: CoreReg,
    bit: u32,
    inject_cycle: u64,
) -> Outcome {
    let mut sys = base.clone();
    sys.set_watchdog(golden.watchdog());
    sys.run_until(inject_cycle);
    sys.flip_core_register_bit(thread, reg, bit);
    golden.verdict(&sys.run_to_end())
}

/// Runs a core-injection campaign: `samples` random flips over a
/// per-core flop population of [`CORE_FLOPS_PER_CORE`] (the paper's
/// Table 3 count). Flips landing outside the live architectural
/// registers vanish at this abstraction level (see the constant's
/// docs), so the reported rates are per-core-flop — directly comparable
/// to the uncore rates of Fig. 4 and to the cited core studies.
pub fn core_campaign(profile: &'static BenchProfile, spec: &CampaignSpec) -> OutcomeCounts {
    let (base, golden) = golden_reference(profile, spec);
    let threads = 64u64;
    let live_bits_per_thread: u32 = CoreReg::ALL.iter().map(|(_, w)| w).sum();
    let threads_per_core = 8u64;
    let live_bits_per_core = live_bits_per_thread as u64 * threads_per_core;
    let root = SeedSeq::new(spec.seed).derive("core").derive(profile.name);
    let mut counts = OutcomeCounts::new();
    let hi = (golden.cycles * 9 / 10).max(129);
    for k in 0..spec.samples {
        let mut rng = root.derive_index(k).rng();
        let flop = rng.below(CORE_FLOPS_PER_CORE);
        if flop >= live_bits_per_core {
            // Outside the modeled live registers: no architectural
            // effect at this abstraction level.
            counts.record(Outcome::Vanished);
            continue;
        }
        let thread = rng.below(threads) as usize;
        let mut pick = (flop % live_bits_per_thread as u64) as u32;
        let (reg, bit) = CoreReg::ALL
            .iter()
            .find_map(|&(r, w)| {
                if pick < w {
                    Some((r, pick))
                } else {
                    pick -= w;
                    None
                }
            })
            .expect("bit within total width");
        let cycle = rng.range(128, hi);
        counts.record(run_core_injection(&base, &golden, thread, reg, bit, cycle));
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;

    #[test]
    fn acc_flip_after_outputs_started_corrupts_output() {
        let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
        let (base, golden) = golden_reference(by_name("radi").unwrap(), &spec);
        // Flip an accumulator bit mid-run: the final per-thread output
        // store writes the corrupted value.
        let o = run_core_injection(&base, &golden, 5, CoreReg::Acc, 13, golden.cycles / 2);
        assert_eq!(o, Outcome::Omm, "corrupted accumulator must show");
    }

    #[test]
    fn control_flip_diverges_the_op_stream() {
        let spec = CampaignSpec::quick(ComponentKind::L2c, 1);
        let (base, golden) = golden_reference(by_name("flui").unwrap(), &spec);
        let o = run_core_injection(&base, &golden, 9, CoreReg::Control, 3, golden.cycles / 3);
        assert_ne!(o, Outcome::Persist);
        // A perturbed generator draws different addresses/ops; the run
        // must not silently match the golden output.
        assert_ne!(o, Outcome::Vanished, "control corruption cannot vanish");
    }

    #[test]
    fn small_core_campaign_classifies_everything() {
        let spec = CampaignSpec::quick(ComponentKind::L2c, 64);
        let counts = core_campaign(by_name("lu-c").unwrap(), &spec);
        assert_eq!(counts.total(), 64);
        assert_eq!(counts.count(Outcome::Persist), 0, "no co-sim, no persist");
        // The don't-care derating dominates, as in real core studies.
        assert!(counts.count(Outcome::Vanished) * 10 >= 64 * 8);
    }
}
