//! The one round skeleton every baseline runs on.
//!
//! [`Baseline`] owns the shared global snapshot and the staged contributions
//! and carries the crate's only [`FlAlgorithm`] impl: the payload downcast,
//! the async staleness discount, staging, [`coverage_aggregate`] and the
//! snapshot republish exist here once. A [`Family`] states only what differs
//! between methods — how a client trains, what rides along to the serial
//! absorb, and what a client deploys.

use std::sync::Arc;

use fedlps_device::DeviceProfile;
use fedlps_nn::model::EvalStats;
use fedlps_sim::algorithm::{ClientOutcome, ClientReport, ClientUpdate, FlAlgorithm};
use fedlps_sim::env::FlEnv;
use fedlps_sim::train::{
    account_round, compile_packed, local_sgd, local_sgd_packed, LocalTrainOptions,
    LocalTrainSummary,
};
use fedlps_sparse::mask::UnitMask;
use rand::rngs::StdRng;

use crate::common::{coverage_aggregate, ContribParams, Contribution};

/// What distinguishes one baseline family from another. Every hook but
/// [`train`](Family::train) and [`absorbed`](Family::absorbed) defaults to
/// "nothing special".
pub trait Family: Send + Sync {
    /// What a client step hands to the serial absorb next to its staged
    /// contribution: personal state, bandit feedback, an Oort utility.
    type Side: Send + 'static;

    /// The method's Table-I name.
    fn label(&self) -> &'static str;

    /// One-time initialisation against the freshly drawn global model.
    fn setup(&mut self, env: &FlEnv, global: &[f32]) {
        let _ = (env, global);
    }

    /// The method's own selection rule, when selection *is* the method
    /// (see [`FlAlgorithm::select_clients`]).
    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        let _ = (env, round, rng);
        None
    }

    /// Round-level shared state refreshed before the client steps fan out.
    fn begin_round(&mut self, env: &FlEnv, global: &[f32], round: usize, rng: &mut StdRng) {
        let _ = (env, global, round, rng);
    }

    /// One client's local work: pure in `self`, so steps may run on any
    /// thread in any order.
    fn train(&self, step: &Step<'_>, rng: &mut StdRng)
        -> (ClientReport, ContribParams, Self::Side);

    /// Books what rode along with `client`'s contribution (serial, in
    /// absorption order). Async staleness never discounts it: personal state
    /// and feedback report what actually happened on the client.
    fn absorbed(&mut self, client: usize, round: usize, side: Self::Side);

    /// Runs after the global model has been aggregated.
    fn aggregated(&mut self) {}

    /// Evaluates the model `client` would deploy on its local test data: the
    /// shared global model unless the method personalizes or sparsifies it.
    fn deployed(&self, env: &FlEnv, global: &[f32], client: usize) -> EvalStats {
        env.arch.evaluate(global, env.test_data(client))
    }
}

/// The federation's training hyper-parameters as unmasked, unregularised
/// local-SGD options; callers override the fields their pass needs.
pub(crate) fn train_options(env: &FlEnv) -> LocalTrainOptions<'static> {
    LocalTrainOptions {
        iterations: env.config.local_iterations,
        batch_size: env.config.batch_size,
        sgd: env.config.sgd,
        param_mask: None,
        prox: None,
        frozen: None,
    }
}

/// Everything one client step may read: the environment, who trains in
/// which round on which (currently available) device, and the immutable
/// global snapshot the round dispatched.
#[derive(Debug)]
pub struct Step<'a> {
    pub env: &'a FlEnv,
    pub round: usize,
    pub client: usize,
    pub global: &'a Arc<Vec<f32>>,
    device: DeviceProfile,
}

impl<'a> Step<'a> {
    pub(crate) fn new(
        env: &'a FlEnv,
        round: usize,
        client: usize,
        global: &'a Arc<Vec<f32>>,
    ) -> Self {
        Self {
            env,
            round,
            client,
            global,
            device: env.fleet.available_profile(client, round),
        }
    }

    /// Runs one (optionally masked / proximal / partly frozen) local training
    /// pass over `params` and assembles its [`ClientReport`], so a family only
    /// describes *what* it trains, not how the accounting works.
    ///
    /// When the mask and options qualify, the pass trains the physically
    /// packed submodel and scatters the result back into `params` —
    /// bit-identical to the masked-dense pass, minus the dense wall-clock.
    pub fn train(
        &self,
        params: &mut [f32],
        mask: Option<&UnitMask>,
        prox: Option<(f32, &[f32])>,
        frozen: Option<&[f32]>,
        sparse_ratio: f64,
        rng: &mut StdRng,
    ) -> (ClientReport, LocalTrainSummary) {
        let env = self.env;
        let pmask = mask.map(|m| m.param_mask(env.arch.unit_layout()));
        let options = LocalTrainOptions {
            param_mask: pmask.as_deref(),
            prox,
            frozen,
            ..train_options(env)
        };
        let data = env.train_data(self.client);
        let summary = match mask.and_then(|m| compile_packed(&*env.arch, m, &options)) {
            Some(packed) => local_sgd_packed(&packed, params, data, &options, rng),
            None => local_sgd(&*env.arch, params, data, &options, rng),
        };
        (self.report(mask, sparse_ratio, &summary), summary)
    }

    /// An extra unmasked local pass over `params` that the round's report
    /// does not account for (Ditto's personal model, FedRep's head fit).
    pub fn fit(
        &self,
        params: &mut [f32],
        prox: Option<(f32, &[f32])>,
        frozen: Option<&[f32]>,
        rng: &mut StdRng,
    ) {
        let options = LocalTrainOptions {
            prox,
            frozen,
            ..train_options(self.env)
        };
        let data = self.env.train_data(self.client);
        local_sgd(&*self.env.arch, params, data, &options, rng);
    }

    /// Trains the submodel `mask` extracts from the shared snapshot without
    /// cloning the full model: the packed path gathers the kept values
    /// straight out of the `Arc`, trains the compact submodel and returns
    /// them as a [`ContribParams::Packed`] upload. Falls back to one full
    /// clone and [`train`](Self::train) when the mask is not packable —
    /// either way the result aggregates bit-identically.
    pub fn train_submodel(
        &self,
        mask: UnitMask,
        sparse_ratio: f64,
        rng: &mut StdRng,
    ) -> (ClientReport, LocalTrainSummary, ContribParams) {
        let env = self.env;
        let options = train_options(env);
        if let Some(packed) = compile_packed(&*env.arch, &mask, &options) {
            // One exact-size flat allocation; it escapes into the upload, so
            // it cannot come from the scratch pool.
            let mut values = vec![0.0f32; packed.packed_len()];
            packed.gather_params_into(self.global, &mut values);
            let data = env.train_data(self.client);
            let summary = local_sgd(packed.arch(), &mut values, data, &options, rng);
            let report = self.report(Some(&mask), sparse_ratio, &summary);
            let update = ContribParams::Packed {
                base: Arc::clone(self.global),
                coords: packed.gather_arc(),
                values,
                mask,
            };
            return (report, summary, update);
        }
        let mut params = (**self.global).clone();
        let (report, summary) = self.train(&mut params, Some(&mask), None, None, sparse_ratio, rng);
        let update = ContribParams::Dense {
            params,
            param_mask: Some(mask.param_mask(env.arch.unit_layout())),
        };
        (report, summary, update)
    }

    /// Assembles the [`ClientReport`] of one (optionally masked) round.
    pub(crate) fn report(
        &self,
        mask: Option<&UnitMask>,
        sparse_ratio: f64,
        summary: &LocalTrainSummary,
    ) -> ClientReport {
        let env = self.env;
        let uploaded = match mask {
            Some(m) => m.retained_params(env.arch.unit_layout()),
            None => env.arch.param_count(),
        };
        let accounting = account_round(
            &*env.arch,
            &env.cost,
            &self.device,
            mask,
            env.config.local_iterations,
            env.config.batch_size,
            uploaded,
            env.arch.param_count(),
        );
        ClientReport {
            client_id: self.client,
            flops: accounting.flops,
            upload_bytes: accounting.upload_bytes,
            download_bytes: accounting.download_bytes,
            local_cost: accounting.local_cost,
            train_accuracy: summary.mean_accuracy,
            train_loss: summary.mean_loss,
            sparse_ratio,
            selection_utility: 0.0,
            participations: 0,
            mask_cache_hits: 0,
            mask_cache_misses: 0,
        }
    }
}

/// The payload a client step hands to the serial absorb.
struct Payload<S> {
    contribution: Contribution,
    side: S,
}

/// A baseline: one [`Family`] on the shared round skeleton.
#[derive(Debug)]
pub struct Baseline<F> {
    pub(crate) family: F,
    /// The immutable global snapshot, `Arc`-shared with every in-flight
    /// client task and packed contribution instead of being cloned per task.
    global: Arc<Vec<f32>>,
    staged: Vec<Contribution>,
}

impl<F: Family> Baseline<F> {
    /// Puts `family` on the round skeleton.
    pub fn new(family: F) -> Self {
        Self {
            family,
            global: Arc::new(Vec::new()),
            staged: Vec::new(),
        }
    }
}

impl<F: Family> FlAlgorithm for Baseline<F> {
    fn name(&self) -> String {
        self.family.label().to_string()
    }

    fn setup(&mut self, env: &FlEnv) {
        self.global = Arc::new(env.initial_params());
        self.staged.clear();
        self.family.setup(env, &self.global);
    }

    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        self.family.select_clients(env, round, rng)
    }

    fn begin_round(&mut self, env: &FlEnv, round: usize, _selected: &[usize], rng: &mut StdRng) {
        self.family.begin_round(env, &self.global, round, rng);
    }

    fn client_step(
        &self,
        env: &FlEnv,
        round: usize,
        client: usize,
        rng: &mut StdRng,
    ) -> ClientOutcome {
        let step = Step::new(env, round, client, &self.global);
        let (report, update, side) = self.family.train(&step, rng);
        let contribution = Contribution {
            client_id: client,
            weight: env.train_size(client).max(1.0),
            update,
        };
        ClientOutcome::new(report, Payload { contribution, side })
    }

    fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
        self.absorb_update_stale(env, round, update, 0, 1.0);
    }

    /// Async absorption discounts the data-size aggregation weight by the
    /// server's staleness factor before staging (`1.0` for a fresh update,
    /// which leaves the weight bit-exact).
    fn absorb_update_stale(
        &mut self,
        _env: &FlEnv,
        round: usize,
        update: ClientUpdate,
        _staleness: u32,
        weight: f64,
    ) {
        let Payload {
            mut contribution,
            side,
        } = *update
            .downcast::<Payload<F::Side>>()
            .expect("a payload of this baseline's own client_step");
        contribution.weight *= weight;
        self.family.absorbed(contribution.client_id, round, side);
        self.staged.push(contribution);
    }

    fn aggregate(&mut self, env: &FlEnv, _round: usize, _reports: &[ClientReport]) {
        // Staged packed contributions hold clones of the `Arc`, in which case
        // `make_mut` detaches a copy and republishes it as the next snapshot.
        let global: &mut Vec<f32> = Arc::make_mut(&mut self.global);
        coverage_aggregate(global, &self.staged, env.arch.unit_layout());
        self.staged.clear();
        self.family.aggregated();
    }

    fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
        self.family.deployed(env, &self.global, client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::HeterogeneityLevel;
    use fedlps_sim::config::FlConfig;

    #[test]
    fn step_train_produces_consistent_report() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::Low,
            FlConfig::tiny(),
        );
        let global = Arc::new(env.initial_params());
        let step = Step::new(&env, 0, 0, &global);
        let mut params = (*global).clone();
        let mut rng = fedlps_tensor::rng_from_seed(1);
        let (report, summary) = step.train(&mut params, None, None, None, 1.0, &mut rng);
        assert_eq!(report.client_id, 0);
        assert!(report.flops > 0.0);
        assert!(report.local_cost.total() > 0.0);
        assert_eq!(summary.iterations, env.config.local_iterations);
    }
}
