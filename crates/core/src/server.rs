//! The server side of every method in the comparison: the one round skeleton
//! [`Server`] that FedLPS and the nineteen baselines run on, and the two
//! aggregation rules its staged uploads carry — Eq. (13) residuals
//! ([`StagedUpdate`]) and per-parameter coverage ([`Contribution`]). Both
//! rules are sharded on the coordinate axis over one chunk walk.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fedlps_device::DeviceProfile;
use fedlps_nn::model::EvalStats;
use fedlps_nn::unit::UnitLayout;
use fedlps_sim::algorithm::{ClientOutcome, ClientReport, ClientUpdate, FlAlgorithm};
use fedlps_sim::backend::for_each_chunk_mut;
use fedlps_sim::env::FlEnv;
use fedlps_sim::train::{
    account_round, compile_packed, local_sgd, local_sgd_packed, LocalTrainOptions,
    LocalTrainSummary,
};
use fedlps_sparse::mask::UnitMask;
use rand::rngs::StdRng;

/// A client's uploaded residual `(ω^r − ω_{k,E}) ⊙ m_{k,E}` (Eq. 12), either
/// as a dense full-coordinate vector (the masked-dense execution path) or as
/// the packed delta plus the coordinates it lives on (the packed-submodel
/// path — what a physically sparse client actually uploads).
///
/// The two are interchangeable bit for bit: every coordinate the packed form
/// omits carries an exact `0.0` in the dense form, because masked parameters
/// are frozen at the global value and cross-connections into dropped units
/// receive no gradient. [`aggregate_residuals_tree`] exploits this by
/// scattering the packed delta back into full coordinates during the
/// absorption walk.
#[derive(Debug, Clone, PartialEq)]
pub enum Residual {
    /// Full-length residual vector; zeros outside the client's mask.
    Dense(Vec<f32>),
    /// Packed residual: `values[i]` lives at full coordinate `coords[i]`.
    /// `coords` is strictly ascending and shared (it is the compiled
    /// submodel's gather map); `len` is the full parameter count.
    Packed {
        coords: Arc<Vec<u32>>,
        values: Vec<f32>,
        len: usize,
    },
}

impl Residual {
    /// Full parameter count this residual addresses.
    pub fn len(&self) -> usize {
        match self {
            Residual::Dense(r) => r.len(),
            Residual::Packed { len, .. } => *len,
        }
    }

    /// Whether the residual addresses zero parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of coordinates actually carried (the upload payload size).
    pub fn stored_values(&self) -> usize {
        match self {
            Residual::Dense(r) => r.len(),
            Residual::Packed { values, .. } => values.len(),
        }
    }

    /// Expands to a dense full-coordinate vector.
    pub fn to_dense(&self) -> Vec<f32> {
        match self {
            Residual::Dense(r) => r.clone(),
            Residual::Packed {
                coords,
                values,
                len,
            } => {
                let mut out = vec![0.0f32; *len];
                for (&i, &v) in coords.iter().zip(values.iter()) {
                    out[i as usize] = v;
                }
                out
            }
        }
    }
}

/// One staged client contribution: its data-size weight `|D_k|` and the masked
/// residual `(ω^r − ω_{k,E}) ⊙ m_{k,E}` it uploaded.
#[derive(Debug, Clone)]
pub struct StagedUpdate {
    /// Aggregation weight `|D_k|`.
    pub weight: f64,
    /// Masked residual update (Eq. 12).
    pub residual: Residual,
}

/// The trained parameters a baseline client hands back for aggregation.
///
/// `Dense` carries the full local vector (plus, for sparse methods, the
/// parameter mask naming the coordinates the client actually trained).
/// `Packed` is what a physically packed client uploads: the trained values of
/// its kept coordinates, the `Arc`-shared immutable global snapshot it
/// started from — no per-task full-model clone — and its unit mask. The two
/// forms aggregate bit-identically: every mask-covered coordinate outside the
/// packed set is frozen at the base value during packed training.
#[derive(Debug)]
pub enum ContribParams {
    Dense {
        params: Vec<f32>,
        param_mask: Option<Vec<f32>>,
    },
    Packed {
        base: Arc<Vec<f32>>,
        mask: UnitMask,
        coords: Arc<Vec<u32>>,
        values: Vec<f32>,
    },
}

impl ContribParams {
    /// The full-length parameter vector this upload stands for: a dense
    /// upload's `params`, or a packed upload's `base ⊙ mask` with the trained
    /// values at their coordinates — bit for bit what masked-dense training
    /// leaves in a copy of `base`.
    pub fn trained_params(&self, layout: &UnitLayout) -> Vec<f32> {
        match self {
            ContribParams::Dense { params, .. } => params.clone(),
            ContribParams::Packed {
                base,
                mask,
                coords,
                values,
            } => {
                let mut params = mask.apply(layout, base);
                for (&i, &v) in coords.iter().zip(values) {
                    params[i as usize] = v;
                }
                params
            }
        }
    }
}

/// A staged baseline contribution: its aggregation weight and its trained
/// parameters (dense or packed), folded in by per-parameter coverage.
#[derive(Debug)]
pub struct Contribution {
    pub weight: f64,
    pub update: ContribParams,
}

/// A staged upload and the aggregation rule that folds a round of them into
/// the global model. The upload's type picks the rule: [`StagedUpdate`] is
/// Eq. (13), [`Contribution`] is per-parameter coverage.
pub trait Staged: Debug + Send + Sync + Sized + 'static {
    /// What a client step uploads.
    type Payload: Send + 'static;

    /// Stages `payload` at aggregation weight `weight`.
    fn new(weight: f64, payload: Self::Payload) -> Self;

    /// Folds `staged`, in absorption order, into `global` over at most
    /// `shards` disjoint coordinate chunks. Both rules treat coordinates
    /// independently, so every shard count is bit-identical to one.
    fn aggregate(global: &mut [f32], staged: &[Self], layout: &UnitLayout, shards: usize);
}

impl Staged for StagedUpdate {
    type Payload = Residual;

    fn new(weight: f64, residual: Residual) -> Self {
        Self { weight, residual }
    }

    fn aggregate(global: &mut [f32], staged: &[Self], _layout: &UnitLayout, shards: usize) {
        aggregate_residuals_tree(global, staged, shards);
    }
}

impl Staged for Contribution {
    type Payload = ContribParams;

    fn new(weight: f64, update: ContribParams) -> Self {
        Self { weight, update }
    }

    /// Coverage-aware weighted aggregation: every parameter is averaged over
    /// the clients whose mask covered it; uncovered parameters keep their
    /// previous global value. With dense contributions this reduces to
    /// FedAvg.
    ///
    /// This is the aggregation rule of HeteroFL / Fjord / FedRolex / Hermes:
    /// each submodel only updates the slice of the global model it trained.
    /// Per coordinate, each chunk accumulates the same `weight × value` terms
    /// in the same order as the serial walk into its own `f64` numerator and
    /// denominator. A packed value comes from the packed delta where the
    /// submodel trained and from the shared base snapshot on the frozen
    /// remainder of the mask, so dense and packed uploads aggregate
    /// bit-identically.
    fn aggregate(global: &mut [f32], staged: &[Self], layout: &UnitLayout, shards: usize) {
        let dim = global.len();
        // Every upload's parameter mask: borrowed from a dense upload, or
        // expanded once per packed upload before the walk shards — O(dim)
        // serial server work, the cost a dense upload paid for its mask
        // inside the parallel client task.
        let masks: Vec<Option<Cow<'_, [f32]>>> = staged
            .iter()
            .map(|c| match &c.update {
                ContribParams::Dense { params, param_mask } => {
                    assert_eq!(params.len(), dim);
                    assert!(param_mask.as_ref().map_or(true, |m| m.len() == dim));
                    param_mask.as_deref().map(Cow::Borrowed)
                }
                ContribParams::Packed { base, mask, .. } => {
                    assert_eq!(base.len(), dim);
                    Some(Cow::Owned(mask.param_mask(layout)))
                }
            })
            .collect();
        for_each_chunk_mut(global, shards, |start, chunk| {
            let range = start..start + chunk.len();
            let mut num = vec![0.0f64; chunk.len()];
            let mut den = vec![0.0f64; chunk.len()];
            for (c, mask) in staged.iter().zip(&masks) {
                let mask = mask.as_ref().map(|m| &m[range.clone()]);
                let mut cover = |i: usize, value: f32| {
                    if mask.map_or(true, |m| m[i] != 0.0) {
                        num[i] += c.weight * value as f64;
                        den[i] += c.weight;
                    }
                };
                match &c.update {
                    ContribParams::Dense { params, .. } => {
                        for (i, &p) in params[range.clone()].iter().enumerate() {
                            cover(i, p);
                        }
                    }
                    ContribParams::Packed {
                        base,
                        coords,
                        values,
                        ..
                    } => {
                        let sparse = packed_chunk(coords, values, start, chunk.len());
                        for (i, (v, &b)) in sparse.zip(&base[range.clone()]).enumerate() {
                            cover(i, v.unwrap_or(b));
                        }
                    }
                }
            }
            for ((g, n), d) in chunk.iter_mut().zip(&num).zip(&den) {
                if *d > 0.0 {
                    *g = (n / d) as f32;
                }
            }
        });
    }
}

/// The coverage rule's chunk walk: the packed upload
/// `(coords, values)` restricted to the coordinates `start..start + len`,
/// one item per coordinate — `Some(value)` where the upload carries one,
/// `None` elsewhere. A binary search positions the ascending cursor, so a
/// chunk never scans the coordinates of the chunks before it.
fn packed_chunk<'a>(
    coords: &'a [u32],
    values: &'a [f32],
    start: usize,
    len: usize,
) -> impl Iterator<Item = Option<f32>> + 'a {
    let skip = coords.partition_point(|&c| (c as usize) < start);
    let mut sparse = coords[skip..].iter().zip(&values[skip..]).peekable();
    (start..start + len).map(move |coord| match sparse.peek() {
        Some(&(&c, &v)) if c as usize == coord => {
            sparse.next();
            Some(v)
        }
        _ => None,
    })
}

/// Eq. (13), `ω^{r+1} = Σ_k |D_k| (ω^r − ω̂_k) / Σ_k |D_k|`, sharded on the
/// coordinate axis.
///
/// Because each client's residual is masked with its own personalized pattern
/// while `ω^r` is dense, the aggregate remains a relatively dense update of
/// the global parameters (the paper's observation below Eq. 13). Packed
/// residuals are scattered back into full coordinates on the fly: the merge
/// walk performs the same `coeff * (g - r)` arithmetic in the same coordinate
/// order as the dense case with `r = 0` off-pattern, so packed and dense
/// uploads aggregate bit-identically.
///
/// The next parameter vector is allocated once and split into at most
/// `shards` disjoint contiguous chunks, and each chunk replays the full
/// ascending-staged walk restricted to its own coordinates
/// (`merge_residuals_range`), writing in place. Chunks execute through the
/// simulator's backend seam ([`fedlps_sim::backend::for_each_chunk_mut`]),
/// the one place parallelism is allowed to live. Coordinates never interact
/// in Eq. (13), so *any* disjoint partition — `shards` of 0, 1, or more
/// than `global.len()` included — is **bit-identical** to the serial walk
/// at every worker count: sharding on the client axis would reassociate
/// float additions, sharding on the coordinate axis cannot. The unit tests
/// use one shard as the serial oracle.
pub fn aggregate_residuals_tree(global: &mut [f32], staged: &[StagedUpdate], shards: usize) {
    if staged.is_empty() {
        return;
    }
    for s in staged {
        assert_eq!(s.residual.len(), global.len(), "residual length mismatch");
    }
    let total_weight: f64 = staged.iter().map(|s| s.weight).sum();
    assert!(total_weight > 0.0, "aggregation weights must be positive");
    let mut next = vec![0.0f32; global.len()];
    let current = &*global;
    for_each_chunk_mut(&mut next, shards, |start, chunk| {
        merge_residuals_range(current, staged, total_weight, start, chunk)
    });
    global.copy_from_slice(&next);
}

/// The Eq. (13) absorption walk restricted to the contiguous coordinates
/// `start..start + next.len()`, accumulated into the zeroed chunk `next`.
///
/// Per coordinate `i` the walk performs exactly the serial full-vector
/// sequence — for each staged update in order, `next[i] += coeff * (g[i] -
/// r[i])` with `coeff = (weight / total_weight) as f32` — and coordinates
/// never interact, so restricting the walk to a range changes no bit of any
/// coordinate it covers. Packed residuals are walked by their coordinate
/// runs, with `r = 0` off their coordinates.
fn merge_residuals_range(
    global: &[f32],
    staged: &[StagedUpdate],
    total_weight: f64,
    start: usize,
    next: &mut [f32],
) {
    let (len, range) = (next.len(), start..start + next.len());
    for s in staged {
        let coeff = (s.weight / total_weight) as f32;
        match &s.residual {
            Residual::Dense(residual) => {
                let pairs = next.iter_mut().zip(&global[range.clone()]);
                for ((n, &g), &r) in pairs.zip(&residual[range.clone()]) {
                    *n += coeff * (g - r);
                }
            }
            // Run by run: the off-pattern coordinates between two packed
            // ones take `r = 0.0` in a tight loop, each packed coordinate its
            // value — the dense expression at every coordinate.
            Residual::Packed { coords, values, .. } => {
                let skip = coords.partition_point(|&c| (c as usize) < start);
                let mut at = 0;
                for (&c, &r) in coords[skip..].iter().zip(&values[skip..]) {
                    let c = c as usize - start;
                    if c >= len {
                        break;
                    }
                    for (n, &g) in next[at..c].iter_mut().zip(&global[start + at..start + c]) {
                        *n += coeff * (g - 0.0);
                    }
                    next[c] += coeff * (global[start + c] - r);
                    at = c + 1;
                }
                for (n, &g) in next[at..].iter_mut().zip(&global[start + at..start + len]) {
                    *n += coeff * (g - 0.0);
                }
            }
        }
    }
}

/// What distinguishes one method from another on the shared round skeleton.
/// Every hook but [`train`](Family::train) and [`absorbed`](Family::absorbed)
/// defaults to "nothing special".
pub trait Family: Send + Sync {
    /// What the skeleton stages for aggregation; its [`Staged`] impl is the
    /// method's aggregation rule.
    type Upload: Staged;

    /// What a client step hands to the serial absorb next to its upload:
    /// personal state, bandit feedback, an Oort utility.
    type Side: Send + 'static;

    /// The method's table name.
    fn label(&self) -> String;

    /// One-time initialisation against the freshly drawn global model.
    fn setup(&mut self, env: &FlEnv, global: &[f32]) {
        let _ = (env, global);
    }

    /// The method's own selection rule, when selection *is* the method
    /// (see [`FlAlgorithm::select_clients`]). It picks only the cohort a
    /// round opens with: deadline over-selection and async refills follow
    /// the run-level policy.
    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        let _ = (env, round, rng);
        None
    }

    /// Round-level shared state refreshed before the client steps fan out,
    /// from the `global` those steps read. The skeleton fires it once per
    /// round (once per server version in async mode), before any step of
    /// that round, and `round` is the `Step::round` of those steps. CS
    /// refreshes its shared mask here, PruneFL re-prunes, and FedLPS builds
    /// the round's per-unit sums of the global.
    fn begin_round(&mut self, env: &FlEnv, global: &[f32], round: usize, rng: &mut StdRng) {
        let _ = (env, global, round, rng);
    }

    /// One client's local work — its report, the payload the skeleton stages
    /// at the client's data-size weight, and what rides along to
    /// [`absorbed`](Family::absorbed): pure in `self`, so steps may run on
    /// any thread in any order.
    fn train(
        &self,
        step: &Step<'_>,
        rng: &mut StdRng,
    ) -> (ClientReport, <Self::Upload as Staged>::Payload, Self::Side);

    /// Books what rode along with `client`'s upload (serial, in absorption
    /// order). Async staleness never discounts it: personal state and
    /// feedback report what actually happened on the client.
    fn absorbed(&mut self, client: usize, round: usize, side: Self::Side);

    /// Runs after the global model has been aggregated.
    fn aggregated(&mut self) {}

    /// Evaluates the model `client` would deploy on its local test data: the
    /// shared global model unless the method personalizes or sparsifies it.
    /// Evaluation draws no ambient randomness, so the result is a pure
    /// function of the family's state, `global` and the environment; while
    /// [`deploys_own_record`](Family::deploys_own_record) holds, it depends
    /// on `client`'s record alone.
    fn deployed(&self, env: &FlEnv, global: &[f32], client: usize) -> EvalStats {
        env.arch.evaluate(global, env.test_data(client))
    }

    /// Whether `client`'s [`deployed`](Family::deployed) reads only that
    /// client's own record, never `global` nor another client's state. The
    /// record must change only in [`absorbed`](Family::absorbed) for that
    /// client and in [`setup`](Family::setup): [`Server`] then reuses the
    /// client's last deployment statistics until one of the two runs. The
    /// default, `false`, re-evaluates every time.
    fn deploys_own_record(&self, client: usize) -> bool {
        let _ = client;
        false
    }
}

/// The federation's training hyper-parameters as unmasked, unregularised
/// local-SGD options; callers override the fields their pass needs.
pub fn train_options(env: &FlEnv) -> LocalTrainOptions<'static> {
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
    pub(crate) device: DeviceProfile,
}

impl<'a> Step<'a> {
    /// The step of `client` in `round` against the snapshot `global`.
    pub fn new(env: &'a FlEnv, round: usize, client: usize, global: &'a Arc<Vec<f32>>) -> Self {
        Self {
            env,
            round,
            client,
            global,
            device: env.fleet.available_profile(client, round),
        }
    }

    /// Runs one unmasked (optionally proximal / partly frozen) local
    /// training pass over `params` and assembles its dense [`ClientReport`],
    /// so a family only describes *what* it trains, not how the accounting
    /// works. Masked training goes through
    /// [`train_submodel`](Self::train_submodel).
    pub fn train(
        &self,
        params: &mut [f32],
        prox: Option<(f32, &[f32])>,
        frozen: Option<&[f32]>,
        rng: &mut StdRng,
    ) -> (ClientReport, LocalTrainSummary) {
        let summary = self.fit(params, prox, frozen, rng);
        let report = self.report(None, 1.0, summary.mean_accuracy, summary.mean_loss);
        (report, summary)
    }

    /// An unmasked local pass over `params` without a report: the pass
    /// behind [`train`](Self::train), and the extra passes the round's
    /// report does not account for (Ditto's personal model, FedRep's head
    /// fit).
    pub fn fit(
        &self,
        params: &mut [f32],
        prox: Option<(f32, &[f32])>,
        frozen: Option<&[f32]>,
        rng: &mut StdRng,
    ) -> LocalTrainSummary {
        let options = LocalTrainOptions {
            prox,
            frozen,
            ..train_options(self.env)
        };
        let data = self.env.train_data(self.client);
        local_sgd(&*self.env.arch, params, data, &options, rng)
    }

    /// Trains the submodel `mask` extracts from `base` — the comparison
    /// layer's one masked training entry. The packed path gathers the kept
    /// values straight out of the `Arc`, trains the compact submodel and
    /// returns them as a [`ContribParams::Packed`] upload on `base`, with no
    /// full-model clone. A mask that does not pack costs one full clone and
    /// a masked-dense [`local_sgd`], uploaded as [`ContribParams::Dense`];
    /// either way the result aggregates bit-identically.
    ///
    /// Across the golden configurations of `tests/quickstart_goldens.rs` (59
    /// files; Hermes replays LotteryFL's), the masked-dense fallback runs only
    /// for DepthFL (`baseline_tiny_DepthFL_{sync,async}`, 15 and 18 calls in
    /// the serial run): a low ratio empties its last layer, so the mask does
    /// not compile.
    pub fn train_submodel(
        &self,
        base: &Arc<Vec<f32>>,
        mask: UnitMask,
        sparse_ratio: f64,
        rng: &mut StdRng,
    ) -> (ClientReport, LocalTrainSummary, ContribParams) {
        let env = self.env;
        let data = env.train_data(self.client);
        let options = train_options(env);
        let (summary, update) = match compile_packed(&*env.arch, &mask) {
            Some(packed) => {
                let (values, summary) = local_sgd_packed(&packed, base, data, &options, rng);
                let update = ContribParams::Packed {
                    base: Arc::clone(base),
                    coords: packed.gather_arc(),
                    values,
                    mask: mask.clone(),
                };
                (summary, update)
            }
            None => {
                let pmask = mask.param_mask(env.arch.unit_layout());
                let mut params = (**base).clone();
                let masked = LocalTrainOptions {
                    param_mask: Some(&pmask),
                    ..options
                };
                let summary = local_sgd(&*env.arch, &mut params, data, &masked, rng);
                let update = ContribParams::Dense {
                    params,
                    param_mask: Some(pmask),
                };
                (summary, update)
            }
        };
        let report = self.report(
            Some(&mask),
            sparse_ratio,
            summary.mean_accuracy,
            summary.mean_loss,
        );
        (report, summary, update)
    }

    /// Assembles the [`ClientReport`] of one (optionally masked) round; a
    /// masked round uploads the parameters its mask retains.
    pub fn report(
        &self,
        mask: Option<&UnitMask>,
        sparse_ratio: f64,
        train_accuracy: f64,
        train_loss: f64,
    ) -> ClientReport {
        let env = self.env;
        let uploaded = match mask {
            Some(m) => m.retained_params(env.arch.unit_layout()),
            None => env.arch.param_count(),
        };
        let accounting = account_round(
            &*env.arch,
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
            train_accuracy,
            train_loss,
            sparse_ratio,
            selection_utility: 0.0,
            participations: 0,
            mask_cache_hits: 0,
            mask_cache_misses: 0,
        }
    }
}

/// A method: one [`Family`] on the shared round skeleton, the workspace's
/// only [`FlAlgorithm`] impl. The payload downcast, the async staleness
/// discount, staging, the sharded aggregation, the snapshot republish and
/// the deployment memo exist here once.
#[derive(Debug)]
pub struct Server<F: Family> {
    family: F,
    /// The immutable global snapshot, `Arc`-shared with every in-flight
    /// client task and packed contribution instead of being cloned per task.
    global: Arc<Vec<f32>>,
    staged: Vec<F::Upload>,
    /// The last deployment statistics of every evaluated client whose
    /// deployment reads only its own record
    /// ([`Family::deploys_own_record`]), dropped when that client's update
    /// is absorbed and emptied by `setup`. The evaluation sweep fills it
    /// through `&self` on many threads, so it sits behind a lock held only
    /// for the lookup and the insert.
    deployed: Mutex<BTreeMap<usize, EvalStats>>,
}

impl<F: Family> From<F> for Server<F> {
    /// Puts `family` on the round skeleton.
    fn from(family: F) -> Self {
        Self {
            family,
            global: Arc::new(Vec::new()),
            staged: Vec::new(),
            deployed: Mutex::default(),
        }
    }
}

impl<F: Family> Server<F> {
    /// The method's own state.
    pub fn family(&self) -> &F {
        &self.family
    }

    /// Current dense global parameters (empty before `setup`).
    pub fn global_params(&self) -> &[f32] {
        &self.global
    }

    /// The deployment memo. Its critical sections cannot panic, so a
    /// poisoned lock still holds a consistent map.
    fn memo(&self) -> MutexGuard<'_, BTreeMap<usize, EvalStats>> {
        self.deployed.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<F: Family> FlAlgorithm for Server<F> {
    fn name(&self) -> String {
        self.family.label()
    }

    fn setup(&mut self, env: &FlEnv) {
        self.global = Arc::new(env.initial_params());
        self.staged.clear();
        self.memo().clear();
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
        let (report, payload, side) = self.family.train(&step, rng);
        ClientOutcome::new(report, (client, payload, side))
    }

    fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
        self.absorb_update_stale(env, round, update, 0, 1.0);
    }

    /// Stages the upload at its data-size aggregation weight `|D_k|`,
    /// discounted by the server's staleness factor (`1.0` for a fresh update,
    /// which leaves the weight bit-exact).
    fn absorb_update_stale(
        &mut self,
        env: &FlEnv,
        round: usize,
        update: ClientUpdate,
        _staleness: u32,
        weight: f64,
    ) {
        let (client, payload, side) = *update
            .downcast::<(usize, <F::Upload as Staged>::Payload, F::Side)>()
            .expect("a payload of this method's own client_step");
        let weight = env.train_size(client).max(1.0) * weight;
        self.family.absorbed(client, round, side);
        self.memo().remove(&client);
        self.staged.push(F::Upload::new(weight, payload));
    }

    fn aggregate(&mut self, env: &FlEnv, _round: usize, _reports: &[ClientReport]) {
        // Staged packed contributions hold clones of the `Arc`, in which case
        // `make_mut` detaches a copy and republishes it as the next snapshot;
        // residuals hold none, so FedLPS aggregates in place. Sharding on the
        // coordinate axis is bit-free, so it follows the configured
        // parallelism.
        let global: &mut Vec<f32> = Arc::make_mut(&mut self.global);
        F::Upload::aggregate(
            global,
            &self.staged,
            env.arch.unit_layout(),
            env.config.effective_parallelism(),
        );
        self.staged.clear();
        self.family.aggregated();
    }

    /// The client's deployment statistics, reused from the memo while its
    /// deployment reads only its own record and no update of it has been
    /// absorbed since; bit-identical to a fresh evaluation either way.
    fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
        if let Some(stats) = self.memo().get(&client).copied() {
            return stats;
        }
        let stats = self.family.deployed(env, &self.global, client);
        if self.family.deploys_own_record(client) {
            self.memo().insert(client, stats);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FedLps, Lps};
    use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
    use fedlps_device::HeterogeneityLevel;
    use fedlps_sim::config::FlConfig;
    use fedlps_sim::runner::Simulator;

    fn dense(weight: f64, residual: Vec<f32>) -> StagedUpdate {
        StagedUpdate {
            weight,
            residual: Residual::Dense(residual),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn aggregation_with_zero_residuals_is_identity() {
        let mut global = vec![1.0, -2.0, 3.0];
        let staged = vec![dense(3.0, vec![0.0; 3]), dense(1.0, vec![0.0; 3])];
        aggregate_residuals_tree(&mut global, &staged, 1);
        assert_eq!(global, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn aggregation_moves_towards_client_models() {
        // One client with residual (ω^r − ω_k) = 1 on every coordinate means
        // its local model is ω^r − 1; with equal weights the global model moves
        // halfway when the other client reports no change.
        let mut global = vec![0.0, 0.0];
        let staged = vec![dense(1.0, vec![1.0, 1.0]), dense(1.0, vec![0.0, 0.0])];
        aggregate_residuals_tree(&mut global, &staged, 1);
        assert_eq!(global, vec![-0.5, -0.5]);
    }

    #[test]
    fn weights_bias_the_average() {
        let mut global = vec![0.0];
        let staged = vec![dense(3.0, vec![4.0]), dense(1.0, vec![0.0])];
        aggregate_residuals_tree(&mut global, &staged, 1);
        assert!((global[0] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_staging_is_a_noop() {
        let mut global = vec![5.0];
        aggregate_residuals_tree(&mut global, &[], 1);
        assert_eq!(global, vec![5.0]);
    }

    #[test]
    fn sharding_edge_cases_match_the_serial_walk() {
        let packed = |weight: f64, len: usize| StagedUpdate {
            weight,
            residual: Residual::Packed {
                coords: Arc::new((0..len as u32).step_by(2).collect()),
                values: (0..len).step_by(2).map(|i| i as f32 * 0.5 - 1.0).collect(),
                len,
            },
        };
        for len in [0usize, 1, 5] {
            let base: Vec<f32> = (0..len).map(|i| 0.25 * i as f32 - 0.5).collect();
            let staged = vec![dense(2.0, vec![0.125; len]), packed(3.0, len)];
            let mut serial = base.clone();
            aggregate_residuals_tree(&mut serial, &staged, 1);
            // 0 and 1 stay on the calling thread; `len` gives one-coordinate
            // chunks; anything above `len` clamps to that.
            for shards in [0usize, 1, 2, len, len + 1, 64] {
                let mut sharded = base.clone();
                aggregate_residuals_tree(&mut sharded, &staged, shards);
                assert_eq!(bits(&sharded), bits(&serial), "len {len}, shards {shards}");
                // Nothing staged is a no-op at every shard count.
                aggregate_residuals_tree(&mut sharded, &[], shards);
                assert_eq!(bits(&sharded), bits(&serial));
            }
            assert!(len == 0 || serial != base, "the update moved the model");
        }
    }

    #[test]
    fn coverage_sharding_edge_cases_match_the_serial_walk() {
        // Dense contributions never consult the layout, so one without
        // sparsifiable layers will do (packed ones are in the proptest).
        for len in [0usize, 1, 5] {
            let layout = UnitLayout::new(Vec::new(), len);
            let base = Arc::new((0..len).map(|i| 0.25 * i as f32 - 0.5).collect::<Vec<_>>());
            let staged = || {
                vec![
                    Contribution {
                        weight: 2.0,
                        update: ContribParams::Dense {
                            params: vec![0.125; len],
                            param_mask: Some((0..len).map(|i| (i % 2) as f32).collect()),
                        },
                    },
                    Contribution {
                        weight: 3.0,
                        update: ContribParams::Dense {
                            params: vec![-1.0; len],
                            param_mask: None,
                        },
                    },
                ]
            };
            let mut serial = (*base).clone();
            Contribution::aggregate(&mut serial, &staged(), &layout, 1);
            for shards in [0usize, 1, 2, len, len + 1, 64] {
                let mut sharded = (*base).clone();
                Contribution::aggregate(&mut sharded, &staged(), &layout, shards);
                assert_eq!(bits(&sharded), bits(&serial), "len {len}, shards {shards}");
                // Nothing staged is a no-op at every shard count.
                Contribution::aggregate(&mut sharded, &[], &layout, shards);
                assert_eq!(bits(&sharded), bits(&serial));
            }
            assert!(len == 0 || serial != *base, "the update moved the model");
        }
    }

    #[test]
    #[should_panic]
    fn zero_weights_panic() {
        let mut global = vec![0.0];
        aggregate_residuals_tree(&mut global, &[dense(0.0, vec![0.0])], 1);
    }

    #[test]
    fn masked_residuals_only_affect_their_units() {
        // A residual that is zero outside a client's mask leaves the masked-out
        // coordinates at the weighted mean of ω^r itself (i.e. unchanged).
        let mut global = vec![2.0, 2.0];
        let staged = vec![dense(1.0, vec![1.0, 0.0])];
        aggregate_residuals_tree(&mut global, &staged, 1);
        assert_eq!(global, vec![1.0, 2.0]);
    }

    #[test]
    fn packed_residuals_aggregate_bit_identically_to_their_dense_expansion() {
        let coords = Arc::new(vec![1u32, 3, 4]);
        let values = vec![0.25f32, -1.5, 2.0];
        let packed = StagedUpdate {
            weight: 2.0,
            residual: Residual::Packed {
                coords,
                values,
                len: 6,
            },
        };
        let expanded = StagedUpdate {
            weight: 2.0,
            residual: Residual::Dense(packed.residual.to_dense()),
        };
        let other = dense(3.0, vec![0.5, 0.0, -0.125, 0.0, 1.0, 0.0]);

        let base: Vec<f32> = vec![0.1, -0.2, 0.3, -0.4, 0.5, -0.6];
        let mut via_packed = base.clone();
        aggregate_residuals_tree(&mut via_packed, &[packed, other.clone()], 1);
        let mut via_dense = base.clone();
        aggregate_residuals_tree(&mut via_dense, &[expanded, other], 1);
        assert_eq!(bits(&via_packed), bits(&via_dense));
        assert_ne!(via_packed, base, "the update moved the model");
    }

    #[test]
    fn residual_accessors() {
        let r = Residual::Packed {
            coords: Arc::new(vec![0, 2]),
            values: vec![1.0, 3.0],
            len: 4,
        };
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.stored_values(), 2);
        assert_eq!(r.to_dense(), vec![1.0, 0.0, 3.0, 0.0]);
        let d = Residual::Dense(vec![1.0, 2.0]);
        assert_eq!(d.stored_values(), 2);
        assert_eq!(d.to_dense(), vec![1.0, 2.0]);
    }

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
        let (report, summary) = step.train(&mut params, None, None, &mut rng);
        assert_eq!(report.client_id, 0);
        assert!(report.flops > 0.0);
        assert!(report.local_cost.total() > 0.0);
        assert_eq!(summary.iterations, env.config.local_iterations);
    }

    /// FedLPS on the skeleton, checking the deployment memo around every
    /// absorption: exactly the absorbed client's entry goes.
    struct MemoWatch {
        inner: Server<Lps>,
        invalidated: usize,
    }

    impl MemoWatch {
        fn memo_keys(&self) -> Vec<usize> {
            self.inner.memo().keys().copied().collect()
        }
    }

    impl FlAlgorithm for MemoWatch {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn setup(&mut self, env: &FlEnv) {
            self.inner.setup(env)
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
            self.absorb_update_stale(env, round, update, 0, 1.0)
        }
        fn absorb_update_stale(
            &mut self,
            env: &FlEnv,
            round: usize,
            update: ClientUpdate,
            staleness: u32,
            weight: f64,
        ) {
            let client = update
                .downcast_ref::<(usize, Residual, crate::algorithm::LpsSide)>()
                .expect("a FedLPS payload")
                .0;
            let mut expected = self.memo_keys();
            expected.retain(|&k| k != client);
            let held = self.inner.memo().contains_key(&client);
            self.inner
                .absorb_update_stale(env, round, update, staleness, weight);
            assert_eq!(self.memo_keys(), expected, "absorbing client {client}");
            self.invalidated += held as usize;
        }
        fn aggregate(&mut self, env: &FlEnv, round: usize, reports: &[ClientReport]) {
            self.inner.aggregate(env, round, reports)
        }
        fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
            self.inner.evaluate_client(env, client)
        }
    }

    #[test]
    fn deployment_memo_fills_on_evaluation_and_drops_only_absorbed_clients() {
        let env = FlEnv::from_scenario(
            &ScenarioConfig::tiny(DatasetKind::MnistLike),
            HeterogeneityLevel::High,
            FlConfig {
                eval_every: 1,
                ..FlConfig::tiny().with_rounds(8)
            },
        );
        let sim = Simulator::new(env);
        let mut algo = MemoWatch {
            inner: FedLps::for_env(sim.env()),
            invalidated: 0,
        };
        sim.run(&mut algo);
        // The last round was evaluated: every client that trained holds an
        // entry, and no never-trained client does.
        let trained: Vec<usize> = (0..sim.env().num_clients())
            .filter(|&k| algo.inner.family().deploys_own_record(k))
            .collect();
        assert!(!trained.is_empty());
        assert_eq!(algo.memo_keys(), trained);
        assert!(algo.invalidated > 0, "a re-participation dropped an entry");
        algo.setup(sim.env());
        assert!(algo.memo_keys().is_empty(), "setup empties the memo");
    }
}
