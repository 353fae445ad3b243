//! Why checkpoint recovery struggles with uncore errors (Sec. 5):
//! measures error-propagation latency (Fig. 8) and required rollback
//! distance (Fig. 9) from a small L2C campaign, then evaluates how
//! much an incremental checkpointing scheme would actually cover.
//!
//! ```sh
//! cargo run --release --example checkpoint_analysis
//! ```

use nestsim::core::campaign::{run_campaign_with, CampaignSpec};
use nestsim::core::checkpoint::{checkpoint_coverage, propagation_cdf, rollback_cdf};
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;
use nestsim::report::render_cdf;

fn main() {
    let profile = by_name("lu-c").expect("known benchmark");
    let spec = CampaignSpec {
        samples: 400,
        length_scale: 20,
        ..CampaignSpec::new(ComponentKind::L2c, 400)
    };
    println!(
        "running {} L2C injections during {} ...\n",
        spec.samples, profile.name
    );
    let result = run_campaign_with(profile, &spec, None);

    // Fig. 8: how long before an injected error is even *visible* to a
    // core-side detector.
    let mut prop = propagation_cdf(&result.records);
    println!(
        "{}",
        render_cdf(
            &format!(
                "error-propagation latency to cores ({} propagating errors, mean {:.0} cycles)",
                prop.len(),
                prop.mean()
            ),
            &mut prop,
            6,
        )
    );

    // Fig. 9: how far back a recovery mechanism must roll to undo the
    // corruption.
    let mut roll = rollback_cdf(&result.records);
    println!(
        "{}",
        render_cdf(
            &format!(
                "required rollback distance ({} memory-corrupting errors)",
                roll.len()
            ),
            &mut roll,
            6,
        )
    );

    // The punchline: an incremental checkpointing scheme sized for
    // processor-core errors covers only part of the uncore population.
    println!("incremental-checkpoint coverage of memory-corrupting uncore errors:");
    for (interval, depth) in [(1_000u64, 2u64), (1_000, 8), (10_000, 8), (100_000, 8)] {
        let c = checkpoint_coverage(&result.records, interval, depth);
        println!(
            "  interval {interval:>7} cycles x {depth} checkpoints -> {:.1}% covered",
            c * 100.0
        );
    }
    println!(
        "\npaper: covering >99% of corrupting errors needs rollback beyond 400M cycles\n\
         (full scale) because address-related errors corrupt locations last written\n\
         arbitrarily long ago — e.g. input data written once at program start."
    );
}
