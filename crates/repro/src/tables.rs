//! Table reproductions (Tables 2–6 of the paper).

use nestsim::report::{pct, Table};
use nestsim_core::perfmodel;
use nestsim_hlsim::workload::{by_name, BENCHMARKS, CYCLE_SCALE, INPUT_SCALE};
use nestsim_hlsim::{RunResult, System, SystemConfig};
use nestsim_models::inventory::{model_census, table4_for, TABLE3};
use nestsim_models::ComponentKind;
use nestsim_qrr::cost::{paper, CostModel};

use crate::Opts;

/// Table 2: mixed-mode simulation performance per step.
pub fn table2(opts: &Opts) {
    println!("== Table 2: mixed-mode simulation performance ==\n");
    println!("Paper model (application length L = 862M cycles, FFT):");
    let mut t = Table::new(["step", "cycles", "rate (cyc/s)", "seconds"]);
    for r in perfmodel::paper_table2(862.0e6) {
        t.row([
            r.step.to_string(),
            if r.cycles.is_nan() {
                "-".into()
            } else {
                format!("{:.0}", r.cycles)
            },
            format!("{:.0}", r.rate),
            format!("{:.1}", r.seconds),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nPaper throughput model: L/(70 + L/4M) cyc/s; >2M cyc/s for L>280M;\n\
         >20,000x speedup over the ~{} cyc/s RTL-only rate [Weaver 08].\n",
        perfmodel::PAPER_RTL_ONLY_RATE
    );

    println!(
        "Measured on this implementation (radi, scale {}):",
        opts.scale
    );
    let m = perfmodel::measure_rates(by_name("radi").unwrap(), opts.scale.max(1));
    let mut t = Table::new(["mode", "rate (cyc/s)"]);
    t.row(["accelerated", &format!("{:.0}", m.accelerated)]);
    t.row(["co-simulation (target+golden)", &format!("{:.0}", m.cosim)]);
    t.row(["speedup", &format!("{:.0}x", m.speedup())]);
    t.row([
        "mixed-mode effective (L=120K, 2K cosim, 2% phase-3)",
        &format!("{:.0}", m.mixed_throughput(120_000.0, 2_000.0, 0.02)),
    ]);
    print!("{}", t.render());
}

/// Table 3: processor core and uncore components of OpenSPARC T2.
pub fn table3() {
    println!("== Table 3: OpenSPARC T2 component inventory (paper values) ==\n");
    let mut t = Table::new(["component", "instances", "flops/inst", "gates/inst"]);
    for r in TABLE3 {
        t.row([
            r.component.to_string(),
            r.instances.to_string(),
            r.flops.to_string(),
            r.gates.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\nScaled nestsim model census (this implementation):");
    let mut t = Table::new([
        "component",
        "flops (model)",
        "target share",
        "paper target share",
    ]);
    for kind in ComponentKind::ALL {
        let c = model_census(kind);
        let p = table4_for(kind);
        t.row([
            kind.to_string(),
            c.total().to_string(),
            pct(c.target_share(), 1),
            pct(p.target_share(), 1),
        ]);
    }
    print!("{}", t.render());
}

/// Table 4: flip-flops targeted for error injection.
pub fn table4() {
    println!("== Table 4: injection-target flip-flops (paper | model) ==\n");
    let mut t = Table::new([
        "component",
        "target (paper)",
        "protected (paper)",
        "inactive (paper)",
        "target (model)",
        "protected (model)",
        "inactive (model)",
    ]);
    for kind in ComponentKind::ALL {
        let p = table4_for(kind);
        let m = model_census(kind);
        t.row([
            format!("{kind} ({})", p.instances),
            format!("{} ({})", p.target, pct(p.target_share(), 1)),
            p.protected.to_string(),
            p.inactive.to_string(),
            format!("{} ({})", m.target, pct(m.target_share(), 1)),
            m.protected.to_string(),
            m.inactive.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// Table 5: benchmark applications, paper lengths vs. measured scaled
/// lengths.
pub fn table5(opts: &Opts) {
    println!(
        "== Table 5: benchmarks (cycle scale 1/{CYCLE_SCALE}, input scale 1/{INPUT_SCALE}, extra /{}) ==\n",
        opts.scale
    );
    let mut t = Table::new([
        "bench",
        "suite",
        "paper Mcycles",
        "paper input",
        "scaled input",
        "measured cycles",
        "digest",
    ]);
    for b in &BENCHMARKS {
        let cfg = SystemConfig {
            seed: opts.seed,
            length_scale: opts.scale.max(1),
            ..SystemConfig::new(b)
        };
        let mut sys = System::new(cfg);
        let (cycles, digest) = match sys.run_to_end() {
            RunResult::Completed { digest, cycles } => {
                (cycles.to_string(), format!("{digest:016x}"))
            }
            other => (format!("{other:?}"), "-".into()),
        };
        t.row([
            b.name.to_string(),
            b.suite.to_string(),
            b.paper_mcycles.to_string(),
            if b.paper_input_bytes == 0 {
                "no input".into()
            } else {
                format!("{:.1} MB", b.paper_input_bytes as f64 / 1e6)
            },
            if b.input_bytes() == 0 {
                "-".into()
            } else {
                format!("{} B", b.input_bytes())
            },
            cycles,
            digest,
        ]);
    }
    print!("{}", t.render());
}

/// Table 6: QRR area and power overhead.
pub fn table6() {
    println!("== Table 6: QRR area/power overhead for L2C+MCU ==\n");
    let t6 = CostModel::default().table6();
    let mut t = Table::new([
        "overhead",
        "parity",
        "hardening",
        "controller+table",
        "total",
        "chip-level",
        "hardening-only",
        "hardening-only chip",
    ]);
    t.row([
        "area (model)".to_string(),
        pct(t6.qrr_area.parity, 1),
        pct(t6.qrr_area.hardening, 1),
        pct(t6.qrr_area.controller, 1),
        pct(t6.qrr_area.total(), 1),
        pct(t6.qrr_area_chip, 2),
        pct(t6.hardening_only_area, 1),
        pct(t6.hardening_only_area_chip, 2),
    ]);
    t.row([
        "area (paper)".to_string(),
        pct(paper::AREA[0], 1),
        pct(paper::AREA[1], 1),
        pct(paper::AREA[2], 1),
        pct(paper::AREA[3], 1),
        pct(paper::AREA[4], 2),
        pct(paper::HARDENING_ONLY[0], 1),
        pct(paper::HARDENING_ONLY[1], 2),
    ]);
    t.row([
        "power (model)".to_string(),
        pct(t6.qrr_power.parity, 1),
        pct(t6.qrr_power.hardening, 1),
        pct(t6.qrr_power.controller, 1),
        pct(t6.qrr_power.total(), 1),
        pct(t6.qrr_power_chip, 2),
        pct(t6.hardening_only_power, 1),
        pct(t6.hardening_only_power_chip, 2),
    ]);
    t.row([
        "power (paper)".to_string(),
        pct(paper::POWER[0], 1),
        pct(paper::POWER[1], 1),
        pct(paper::POWER[2], 1),
        pct(paper::POWER[3], 1),
        pct(paper::POWER[4], 2),
        pct(paper::HARDENING_ONLY[2], 1),
        pct(paper::HARDENING_ONLY[3], 2),
    ]);
    print!("{}", t.render());
    println!(
        "\nQRR saves {} area / {} power vs. hardening everything (paper: 23% / 31%).",
        pct(1.0 - t6.qrr_area.total() / t6.hardening_only_area, 0),
        pct(1.0 - t6.qrr_power.total() / t6.hardening_only_power, 0),
    );
}
