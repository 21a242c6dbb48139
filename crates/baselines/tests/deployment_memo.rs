//! The deployment memo in `Server<F>` is invisible: after every aggregation,
//! `evaluate_client` — served from the memo where a client's deployment
//! reads only its own record — is bit-equal to a fresh `Family::deployed`
//! against the current global model, for every client. Covers the six
//! memoised families (FedLPS, Ditto, LotteryFL, Hermes, FedSpa, FedP3) and
//! FedPer, whose deployment reads the global body and must never be served
//! from the memo, in the synchronous and the asynchronous round modes (in the
//! latter, updates are absorbed between evaluations, mid-round).

use fedlps_baselines::personalized::{PersonalizedFl, PersonalizedVariant};
use fedlps_baselines::sparse_personalized::{SparsePersonalized, SparsePersonalizedVariant};
use fedlps_core::server::{Family, Server};
use fedlps_core::FedLps;
use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
use fedlps_device::HeterogeneityLevel;
use fedlps_nn::model::EvalStats;
use fedlps_sim::algorithm::{ClientOutcome, ClientReport, ClientUpdate, FlAlgorithm};
use fedlps_sim::config::{FlConfig, RoundMode};
use fedlps_sim::env::FlEnv;
use fedlps_sim::runner::Simulator;
use rand::rngs::StdRng;

/// `Server<F>` with every client's deployment checked after each
/// aggregation.
struct Checked<F: Family> {
    inner: Server<F>,
    /// Aggregations checked.
    checks: usize,
    /// Client checks at which the deployment read only the client's record,
    /// i.e. could have been served from the memo.
    own_record: usize,
}

fn bits(stats: EvalStats) -> (u64, u64, usize) {
    (
        stats.loss.to_bits(),
        stats.accuracy.to_bits(),
        stats.samples,
    )
}

impl<F: Family> FlAlgorithm for Checked<F> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn setup(&mut self, env: &FlEnv) {
        self.inner.setup(env)
    }
    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        self.inner.select_clients(env, round, rng)
    }
    fn begin_round(&mut self, env: &FlEnv, round: usize, selected: &[usize], rng: &mut StdRng) {
        self.inner.begin_round(env, round, selected, rng)
    }
    fn client_step(
        &self,
        env: &FlEnv,
        round: usize,
        client: usize,
        rng: &mut StdRng,
    ) -> ClientOutcome {
        self.inner.client_step(env, round, client, rng)
    }
    fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
        self.inner.absorb_update(env, round, update)
    }
    fn absorb_update_stale(
        &mut self,
        env: &FlEnv,
        round: usize,
        update: ClientUpdate,
        staleness: u32,
        weight: f64,
    ) {
        self.inner
            .absorb_update_stale(env, round, update, staleness, weight)
    }
    fn aggregate(&mut self, env: &FlEnv, round: usize, reports: &[ClientReport]) {
        self.inner.aggregate(env, round, reports);
        let (family, global) = (self.inner.family(), self.inner.global_params());
        for k in 0..env.num_clients() {
            let served = self.inner.evaluate_client(env, k);
            let fresh = family.deployed(env, global, k);
            assert_eq!(
                bits(served),
                bits(fresh),
                "{} client {k} after aggregation {round}",
                self.inner.name()
            );
            self.own_record += family.deploys_own_record(k) as usize;
        }
        self.checks += 1;
    }
    fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
        self.inner.evaluate_client(env, client)
    }
}

/// A tiny federation in `mode` that evaluates after every round.
fn env(mode: RoundMode) -> FlEnv {
    FlEnv::from_scenario(
        &ScenarioConfig::tiny(DatasetKind::MnistLike),
        HeterogeneityLevel::High,
        FlConfig {
            eval_every: 1,
            ..FlConfig::tiny().with_rounds(8).with_round_mode(mode)
        },
    )
}

/// Runs `family` under the check in `mode` and asserts whether any of its
/// deployments was memoisable.
fn check<F: Family>(family: Server<F>, mode: RoundMode, memoised: bool) {
    let mut algo = Checked {
        inner: family,
        checks: 0,
        own_record: 0,
    };
    Simulator::new(env(mode)).run(&mut algo);
    let name = algo.name();
    assert!(algo.checks >= 8, "{name}: {} aggregations", algo.checks);
    assert_eq!(algo.own_record > 0, memoised, "{name}");
}

fn check_all(mode: RoundMode) {
    check(FedLps::for_env(&env(mode)), mode, true);
    let ditto = PersonalizedFl::new(PersonalizedVariant::Ditto);
    check(Server::from(ditto), mode, true);
    for variant in [
        SparsePersonalizedVariant::LotteryFl,
        SparsePersonalizedVariant::Hermes,
        SparsePersonalizedVariant::FedSpa,
        SparsePersonalizedVariant::FedP3,
    ] {
        check(Server::from(SparsePersonalized::new(variant)), mode, true);
    }
    let fedper = PersonalizedFl::new(PersonalizedVariant::FedPer);
    check(Server::from(fedper), mode, false);
}

#[test]
fn memoised_deployments_equal_fresh_ones_in_synchronous_rounds() {
    check_all(RoundMode::Synchronous);
}

#[test]
fn memoised_deployments_equal_fresh_ones_in_asynchronous_rounds() {
    check_all(RoundMode::asynchronous(3, 0.5));
}
