//! The Eq. 14 speed term's participation shift on a 10-client fleet, the
//! scale of `examples/utility_selection.rs`. The same claim on the 64-client
//! fleet is `tests/virtual_time_claims.rs`'s
//! `utility_selection_shifts_participation_toward_fast_tiers`.

use fedlps::core::FedLps;
use fedlps::device::CapabilityTier;
use fedlps::prelude::*;

fn run_once(selection: SelectionKind) -> (RunResult, Vec<f64>) {
    let scenario = ScenarioConfig::tiny(DatasetKind::MnistLike).with_clients(10);
    let fl_config = FlConfig {
        rounds: 5,
        clients_per_round: 3,
        local_iterations: 2,
        batch_size: 8,
        eval_every: 2,
        ..FlConfig::default()
    }
    .with_selection(selection);
    let env = FlEnv::from_scenario(&scenario, HeterogeneityLevel::High, fl_config);
    let capabilities = env.capabilities();
    let sim = Simulator::new(env);
    let mut algo = FedLps::for_env(sim.env());
    (sim.run(&mut algo), capabilities)
}

#[test]
fn utility_selection_shifts_share_toward_fast_tiers() {
    let fast_share = |result: &RunResult, capabilities: &[f64]| {
        result
            .participation_shares()
            .iter()
            .zip(capabilities)
            .filter(|(_, &z)| {
                matches!(
                    CapabilityTier::from_fraction(z),
                    CapabilityTier::Full | CapabilityTier::Half
                )
            })
            .map(|(s, _)| s)
            .sum::<f64>()
    };
    let (uniform, caps_u) = run_once(SelectionKind::Uniform);
    let (utility, caps_t) = run_once(SelectionKind::utility());
    assert!(
        fast_share(&utility, &caps_t) > fast_share(&uniform, &caps_u),
        "the Eq. 14 speed term must shift participation toward fast tiers \
         ({:.3} vs {:.3})",
        fast_share(&utility, &caps_t),
        fast_share(&uniform, &caps_u)
    );
}
