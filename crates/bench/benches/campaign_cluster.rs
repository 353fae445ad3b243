//! Distributed-campaign benchmark: the in-process snapshot-ladder
//! engine against the cluster path (coordinator + 2 in-process worker
//! threads over loopback TCP) on one campaign cell.
//!
//! Both paths produce byte-identical campaigns (locked by the cluster
//! end-to-end tests); this bench measures the distribution tax —
//! framing, wire codecs, lease bookkeeping, and each worker's own
//! golden pass (workers re-derive the cell from its seed rather than
//! receiving state). The tax is the price of fault tolerance: any
//! worker can die mid-shard and the campaign still completes, byte-
//! identical (see DESIGN.md "The campaign server").
//!
//! Thread workers are used so the bench measures the protocol, not
//! process spawn + relink time.
//!
//! Writes `BENCH_campaign_cluster.json` via the in-repo harness runner.

use std::hint::black_box;

use nestsim_cluster::{run_campaign_cluster, ClusterConfig};
use nestsim_core::campaign::{run_campaign_with, CampaignSpec};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;

fn spec() -> CampaignSpec {
    CampaignSpec {
        seed: 99,
        length_scale: 100,
        cosim_cap: 20_000,
        workers: 2,
        ..CampaignSpec::new(ComponentKind::L2c, 8)
    }
}

fn main() {
    let profile = by_name("radi").unwrap();

    // Sanity first: the two paths must agree byte-for-byte before
    // their relative cost means anything.
    let reference = run_campaign_with(profile, &spec(), None);
    let clustered = run_campaign_cluster(profile, &spec(), None, &ClusterConfig::threads(2));
    assert_eq!(reference.records, clustered.records);
    assert_eq!(reference.counts, clustered.counts);

    let mut suite = Suite::new("campaign_cluster");
    suite.bench("campaign_cluster/cell", "in_process", || {
        black_box(run_campaign_with(by_name("radi").unwrap(), &spec(), None));
    });
    suite.bench("campaign_cluster/cell", "cluster_threads2", || {
        black_box(run_campaign_cluster(
            by_name("radi").unwrap(),
            &spec(),
            None,
            &ClusterConfig::threads(2),
        ));
    });
    suite.finish();
}
