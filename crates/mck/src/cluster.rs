//! The campaign round alone on the one scenario: the workers and no
//! tenants, as a cluster-only deployment serves it, with a stray peer
//! that must be closed without disturbing the round.

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use nestsim_cluster::proto::{Message, PROTOCOL_VERSION};
    use nestsim_core::campaign::CampaignSpec;
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;
    use nestsim_telemetry::TelemetryConfig;

    use crate::exec::CampaignExec;
    use crate::explore::{explore_dfs, explore_random, ScheduleChooser};
    use crate::service::ServerScenario;
    use crate::world::{run_sim, world, FaultBudget, SimConfig};

    fn cell() -> &'static CampaignExec {
        static CELL: OnceLock<CampaignExec> = OnceLock::new();
        CELL.get_or_init(|| {
            let profile = by_name("flui").expect("flui profile exists");
            let spec = CampaignSpec {
                seed: 7,
                workers: 1,
                ..CampaignSpec::quick(ComponentKind::L2c, 6)
            };
            CampaignExec::new(profile, &spec, Some(&TelemetryConfig::default()))
        })
    }

    fn cfg(faults: u32) -> SimConfig {
        SimConfig {
            faults: FaultBudget(faults),
            mutate: None,
        }
    }

    /// A peer opening with `frame` beside the workers alone may get
    /// nothing but `Error`, must be closed before the world falls
    /// quiet, and counts for nothing: the round keeps its timeline and
    /// every other invariant still holds.
    fn intruder_is_closed_and_the_rest_holds(frame: Vec<u8>) {
        let scenario = ServerScenario::round_only(cell()).with_intruder(frame);
        let benign = |scenario: &ServerScenario<'_>| {
            let mut chooser = ScheduleChooser::new(Vec::new());
            run_sim(scenario, &cfg(0), &mut chooser).expect("benign schedule passes")
        };
        let (with, without) = (
            benign(&scenario),
            benign(&ServerScenario::round_only(cell())),
        );
        assert_eq!(with.virtual_ms, without.virtual_ms);
        assert!(with.steps > without.steps, "the intruder's frame arrived");
        let cfg = cfg(2);
        let dfs = explore_dfs(120, world(&scenario, &cfg));
        assert!(dfs.failure.is_none(), "DFS failure: {:?}", dfs.failure);
        let random = explore_random(0x1A7E, 48, world(&scenario, &cfg));
        assert!(random.failure.is_none(), "random: {:?}", random.failure);
    }

    #[test]
    fn undecodable_first_frame_is_closed() {
        assert!(Message::decode(&[0xff; 8]).is_err());
        intruder_is_closed_and_the_rest_holds(vec![0xff; 8]);
    }

    #[test]
    fn wrong_protocol_version_is_closed() {
        let hello = Message::Hello {
            version: PROTOCOL_VERSION + 1,
            tenant: String::new(),
        };
        intruder_is_closed_and_the_rest_holds(hello.encode().expect("hello encodes"));
    }
}
