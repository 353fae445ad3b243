//! Timing parity of co-simulation against the accelerated golden run.
//!
//! A fault-free run co-simulates its component from cycle 0 to the
//! program's end, as an RTL-only run does, and accelerated mode then
//! finishes nothing: every thread has halted. The program must end on
//! the accelerated run's timeline, within a per-component tolerance of
//! the golden's length, with the golden's output and no trap. A
//! component whose co-simulated timing drifts from the functional
//! latencies it stands in for runs the program on another timeline, and
//! its injection outcomes are drawn from that timeline instead.
//!
//! The L2C and MCU bounds are the spreads measured before the crossbar
//! was fixed, not targets: the bank and the controller model their own
//! queueing. From cycle 0 on these benchmarks the L2C timeline reads
//! 0.95–0.98 of the accelerated one and the MCU's 0.83–0.85; whether
//! the MCU's is a fault is open. The crossbar's banks are functional and its replies are due
//! when accelerated mode would deliver them (`cosim::bank_reply_due`);
//! the DMA engine moves one word a cycle, as the functional engine does.

use nestsim::core::cosim::{CcxDriver, CosimDriver, L2cDriver, McuDriver, PcieDriver};
use nestsim::hlsim::workload::by_name;
use nestsim::hlsim::{RunResult, System, SystemConfig};
use nestsim::models::ComponentKind;
use nestsim::proto::addr::{BankId, McuId};

/// Co-simulated over accelerated length, inclusive bounds, per
/// component.
fn tolerance(component: ComponentKind) -> (f64, f64) {
    match component {
        ComponentKind::L2c => (0.93, 1.08),
        ComponentKind::Mcu => (0.81, 1.01),
        ComponentKind::Ccx => (0.97, 1.03),
        ComponentKind::Pcie => (0.999, 1.001),
    }
}

/// The cells: three benchmarks per component at the benchmark's scale,
/// file-fed ones for PCIe.
fn cells(component: ComponentKind) -> [(&'static str, u64); 3] {
    match component {
        ComponentKind::Pcie => [("p-lr", 20), ("p-sm", 20), ("flui", 100)],
        _ => [("radi", 100), ("fft", 100), ("flui", 100)],
    }
}

/// The length of the run co-simulated from cycle 0 on the driver
/// `attach` makes, over the golden run's.
fn parity<D: CosimDriver>(
    (component, attach): (ComponentKind, fn(System) -> D),
    bench: &str,
    length_scale: u64,
) -> f64 {
    let profile = by_name(bench).expect("a known benchmark");
    let mut sys = System::new(SystemConfig {
        length_scale,
        ..SystemConfig::new(profile)
    });
    let (digest, cycles) = match sys.clone().run_to_end() {
        RunResult::Completed { digest, cycles } => (digest, cycles),
        other => panic!("{bench}: the golden run must complete, got {other:?}"),
    };
    sys.set_watchdog(2 * cycles);
    // Entered as an RTL-only run enters: past cycle 0's accelerated
    // events.
    sys.run_until(0);
    let mut drv = attach(sys);
    while !(drv.sys().all_halted() && drv.drained()) {
        let at = drv.cycle();
        assert!(
            drv.sys().trap().is_none(),
            "{component} {bench}: a fault-free co-simulated run trapped: {:?}",
            drv.sys().trap()
        );
        assert!(
            at <= 2 * cycles,
            "{component} {bench}: co-simulation passed cycle {at}, twice the golden's {cycles}"
        );
        drv.step();
    }
    match drv.detach().sys.run_to_end() {
        RunResult::Completed {
            digest: d,
            cycles: end,
        } => {
            assert_eq!(d, digest, "{component} {bench}: the output differs");
            end as f64 / cycles as f64
        }
        other => panic!("{component} {bench}: a fault-free co-simulated run ended {other:?}"),
    }
}

fn assert_parity<D: CosimDriver>(component: ComponentKind, attach: fn(System) -> D) {
    let (lo, hi) = tolerance(component);
    let got: Vec<(&str, f64)> = (cells(component).into_iter())
        .map(|(bench, scale)| (bench, parity((component, attach), bench, scale)))
        .collect();
    eprintln!("{component}: {got:?}");
    for (bench, ratio) in got {
        assert!(
            (lo..=hi).contains(&ratio),
            "{component} {bench}: the co-simulated program runs {ratio:.3}x the accelerated \
             length, outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn l2c_cosimulation_keeps_the_accelerated_timeline() {
    assert_parity(ComponentKind::L2c, |sys| {
        L2cDriver::attach(sys, BankId::new(0))
    });
}

#[test]
fn mcu_cosimulation_keeps_the_accelerated_timeline() {
    assert_parity(ComponentKind::Mcu, |sys| {
        McuDriver::attach(sys, McuId::new(0))
    });
}

#[test]
fn ccx_cosimulation_keeps_the_accelerated_timeline() {
    assert_parity(ComponentKind::Ccx, CcxDriver::attach);
}

#[test]
fn pcie_cosimulation_keeps_the_accelerated_timeline() {
    assert_parity(ComponentKind::Pcie, PcieDriver::attach);
}
