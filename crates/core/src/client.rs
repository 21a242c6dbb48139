//! Algorithm 1's `ClientUpdate`: learnable sparse training on local data.

use std::sync::Arc;

use fedlps_data::dataset::Dataset;
use fedlps_nn::model::{EvalStats, ModelArch};
use fedlps_nn::pack::PackedModel;
use fedlps_nn::sgd::SgdConfig;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::pattern::PatternStrategy;
use fedlps_sparse::plan::SubmodelPlan;
use rand::rngs::StdRng;
use rand::Rng;

use crate::importance::{GlobalUnitSums, ImportanceIndicator};
use crate::loss::ImportanceLoss;
use crate::packed_step::PackedStep;
use crate::server::Residual;
use fedlps_tensor::Arena;

/// State a FedLPS client keeps across rounds: its importance indicator
/// (`Record Q^s_k ← Q^r_{k,E}`, Algorithm 1 line 23), its personalized
/// sparse model (line 24), which is what the client deploys for inference,
/// and the mask it trained under, which its next participation reuses (with
/// the personal model's plan) while the ratio extracts the same submodel
/// shape. A record is `O(kept + units)` whenever its mask packs: the
/// personal model then holds only the kept coordinates.
#[derive(Debug, Clone, Default)]
pub struct ClientState {
    /// The persisted importance indicator scores.
    pub indicator: Option<Vec<f32>>,
    /// The personalized sparse model `ω_{k,E} ⊙ m_{k,E}` kept locally.
    pub personal: Option<PersonalModel>,
    /// The sparse pattern `personal` was trained under.
    pub last_mask: Option<UnitMask>,
    /// The sparse ratio used in the client's last participation.
    pub last_ratio: f64,
}

impl ClientState {
    /// The packed submodel the last participation executed, compiled from
    /// `last_mask` (`None` when that mask does not pack or the round ran
    /// with packing off).
    pub fn plan(&self) -> Option<&Arc<PackedModel>> {
        match &self.personal {
            Some(PersonalModel::Packed { plan, .. }) => Some(plan),
            _ => None,
        }
    }
}

/// A personalized sparse model `ω ⊙ m`, stored on the submodel it runs on.
#[derive(Debug, Clone)]
pub enum PersonalModel {
    /// `ω[P]` on the gather map `P` of `plan`, the packed submodel of `m`:
    /// bit-equal to `(ω ⊙ m)[P]` because `p · 1.0 == p`, and every
    /// coordinate outside `P` only ever meets a dropped unit's zero
    /// activation, so `plan.arch()` evaluates it exactly as the full model
    /// evaluates `ω ⊙ m`.
    Packed {
        /// The packed submodel of the mask the model was trained under.
        plan: Arc<PackedModel>,
        /// The kept coordinates, `plan.packed_len()` of them.
        params: Vec<f32>,
    },
    /// The full-length `ω ⊙ m`, for a mask that does not pack (or a round
    /// run masked-dense).
    Dense(Vec<f32>),
}

impl PersonalModel {
    /// The stored parameters: the packed coordinates, or the full vector.
    pub fn params(&self) -> &[f32] {
        match self {
            Self::Packed { params, .. } => params,
            Self::Dense(params) => params,
        }
    }

    /// Evaluates the model on `data`; `arch` is the full architecture,
    /// which a packed model does not need. Bit-identical to evaluating the
    /// full-length `ω ⊙ m` with `arch`.
    pub fn evaluate(&self, arch: &dyn ModelArch, data: &Dataset) -> EvalStats {
        match self {
            Self::Packed { plan, params } => plan.arch().evaluate(params, data),
            Self::Dense(params) => arch.evaluate(params, data),
        }
    }
}

/// Hyper-parameters of one local update pass.
#[derive(Debug, Clone, Copy)]
pub struct ClientUpdateOptions {
    /// Number of local iterations `E`.
    pub iterations: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Model optimiser.
    pub sgd: SgdConfig,
    /// Learning rate for the importance indicator (defaults to the model lr).
    pub importance_lr: f32,
    /// Proximal weight `μ`.
    pub mu: f32,
    /// Importance-regularisation weight `λ`.
    pub lambda: f32,
    /// Pattern strategy (FedLPS proper uses the learnable importance pattern).
    pub pattern: PatternStrategy,
    /// Sparse ratio `s_k^r` for this round (already capability-capped).
    pub ratio: f64,
    /// Communication round (consumed by the rolling-ordered ablation pattern).
    pub round: usize,
}

/// What the client sends back to the server after `E` local iterations.
#[derive(Debug, Clone)]
pub struct ClientUpdateOutcome {
    /// The masked residual `(ω^r − ω_{k,E}) ⊙ m_{k,E}` (Eq. 12) — packed to
    /// its nonzero coordinates when the round executed a packed submodel.
    pub residual: Residual,
    /// The final sparse pattern `m_{k,E}`.
    pub mask: UnitMask,
    /// Number of parameters actually uploaded (non-zeros of the residual's
    /// mask plus the tiny binary pattern itself).
    pub uploaded_params: usize,
    /// Mean training loss over the local iterations (task + regularisers).
    pub mean_loss: f64,
    /// Mean training accuracy over the local iterations (`a_k^r`).
    pub mean_accuracy: f64,
}

/// One client's local work for a round as a *pure task*: immutable global
/// weights and persistent state in, [`ClientTaskOutput`] out. Because the
/// task never mutates shared state, the round loop can map it over the
/// selected clients on any number of threads; the freshly produced
/// [`ClientState`] is written back in the serial absorb phase.
pub struct ClientTask<'a> {
    /// The model architecture.
    pub arch: &'a dyn ModelArch,
    /// The current dense global parameters `ω^r` (read-only snapshot).
    pub global: &'a [f32],
    /// The client's persistent state from its previous participation.
    pub state: &'a ClientState,
    /// The client's local training data.
    pub data: &'a Dataset,
    /// Hyper-parameters of the local pass (ratio already capability-capped).
    pub options: ClientUpdateOptions,
    /// The client's previous mask, if the server reuses it at this ratio
    /// (see [`ClientState`]). `None` makes the task derive a fresh pattern
    /// from the indicator (Eq. 4).
    pub cached_mask: Option<&'a UnitMask>,
    /// Run the task forward/backward on the physically packed submodel
    /// instead of the masked full model (bit-identical; see
    /// [`fedlps_nn::pack`]). The round driver always passes `true`; `false`
    /// is the masked-dense reference oracle the equivalence tests and the
    /// benchmark's packed-vs-masked probe compare against.
    pub packed_execution: bool,
    /// The compiled plan of `cached_mask`, sparing the task the per-round
    /// compilation. Ignored when `packed_execution` is off.
    pub cached_plan: Option<Arc<PackedModel>>,
}

/// The result of running a [`ClientTask`]: the upload outcome plus the new
/// persistent state (returned, not written in place, to keep the task pure).
#[derive(Debug)]
pub struct ClientTaskOutput {
    /// Residual, mask and training statistics (Algorithm 1 lines 23-27).
    pub outcome: ClientUpdateOutcome,
    /// The client's next persistent state (`Q^s_k`, the personal model on
    /// the packed submodel this round executed, and the mask).
    pub state: ClientState,
}

impl std::fmt::Debug for ClientTask<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientTask")
            .field("arch", &self.arch.name())
            .field("params", &self.global.len())
            .field("options", &self.options)
            .field("cached_mask", &self.cached_mask.is_some())
            .field("packed_execution", &self.packed_execution)
            .field("cached_plan", &self.cached_plan.is_some())
            .finish_non_exhaustive()
    }
}

impl ClientTask<'_> {
    /// Runs Algorithm 1 lines 17-27 for this client.
    ///
    /// With a packed plan every local iteration runs at packed length: the
    /// task pass on the compact model, then the proximal gradient, the
    /// indicator update and the masked SGD step on the packed coordinates
    /// and the kept units only (the crate-private `packed_step` module holds
    /// the invariant and the per-sum exactness argument). Per iteration, only
    /// the ordered proximal-loss sum still visits the dropped units'
    /// coordinates. Per task, the prologue copies `local` and `masked`
    /// (O(model) copies) but walks the mask as its merged dropped runs
    /// ([`UnitLayout::dropped_runs`](fedlps_nn::unit::UnitLayout::dropped_runs)):
    /// the round-constant gradient, the `P`/`D` walk and the upload count
    /// read the runs. The dropped units' sums and a first participation's
    /// indicator `σ(|ω|_J)` depend only on `global`: they are read from the
    /// round constants, every unit's sums over `global`, so no walk of the
    /// task covers a dropped unit. This call builds those constants itself,
    /// with one walk of the model; FedLPS's round loop builds them once per
    /// round and hands them to every task of the round (the crate-private
    /// `run_with`). The epilogue writes the personal model and the residual
    /// on the packed coordinates only. Without a plan (packing off or a
    /// non-executable mask) the task expands the full parameter mask and
    /// every iteration walks the full model: that masked-dense branch is the
    /// oracle the packed one matches bit for bit, and with packing off it
    /// derives a first participation's indicator by its own walk
    /// ([`ImportanceIndicator::from_params`]).
    pub fn run(&self, rng: &mut StdRng) -> ClientTaskOutput {
        let round_sums = GlobalUnitSums::new(self.arch.unit_layout(), self.global, self.options.mu);
        self.run_with(rng, &round_sums)
    }

    /// [`run`](Self::run) over round constants built by the caller:
    /// `round_sums` must be [`GlobalUnitSums::new`] of `global` at
    /// `options.mu` (FedLPS builds it once per round, in `begin_round`).
    /// With packing off it is ignored.
    pub(crate) fn run_with(
        &self,
        rng: &mut StdRng,
        round_sums: &GlobalUnitSums,
    ) -> ClientTaskOutput {
        let arch = self.arch;
        let options = &self.options;
        let global_params = self.global;
        let layout = arch.unit_layout();
        assert_eq!(global_params.len(), arch.param_count());

        // Line 17: ω_{k,0} ← ω^r and Q_{k,0} ← Q^s_k (initialised from the
        // global parameters on the client's first participation).
        let mut local = global_params.to_vec();
        let mut indicator = match &self.state.indicator {
            Some(scores) => ImportanceIndicator::from_scores(scores.clone()),
            None if self.packed_execution => ImportanceIndicator::from_global_sums(round_sums),
            None => ImportanceIndicator::from_params(layout, global_params),
        };
        let objective = ImportanceLoss::new(options.mu, options.lambda);

        let mut loss_sum = 0.0;
        let mut acc_sum = 0.0;
        let mut executed = 0usize;

        // The paper re-derives the mask in every local iteration; with the
        // reproduction's small local-iteration budgets that churn prevents any
        // unit subset from accumulating training, so the round's mask is frozen
        // from the indicator the client starts the round with, while Q itself
        // keeps learning and shapes the mask of the *next* participation. A
        // reused mask extends the same freeze across participations at an
        // unchanged submodel shape. The personalized model and the uploaded
        // residual use this trained mask.
        let mask = match self.cached_mask {
            Some(cached) => cached.clone(),
            None => build_mask(arch, &local, &indicator, options, rng),
        };
        // The coordinates the mask zeroes, as merged index runs.
        let dropped = layout.dropped_runs(mask.keep_flags());

        // Compile (or reuse) the physically packed submodel of this round's
        // mask. The packed task pass is bit-identical to the masked-dense one,
        // so falling back (plan not executable, packing off) changes nothing
        // but wall-clock. Only that fallback expands the parameter mask.
        let plan = if self.packed_execution {
            self.cached_plan.clone().or_else(|| {
                SubmodelPlan::from_mask(layout, &mask)
                    .compile(arch)
                    .map(Arc::new)
            })
        } else {
            None
        };
        let execution = match plan {
            Some(plan) => Execution::Packed(plan),
            None => Execution::MaskedDense(mask.param_mask(layout)),
        };
        let data = self.data;
        if !data.is_empty() {
            let batch = options.batch_size.max(1).min(data.len());
            let mut draw = |indices: &mut Vec<usize>| {
                indices.clear();
                indices.extend((0..batch).map(|_| rng.gen_range(0..data.len())));
            };
            // One flat arena per client step: the masked snapshot, the
            // full-length gradient and the packed model's parameter/gradient
            // views all live in a single pooled backing vector instead of
            // per-buffer (and previously per-iteration) `Vec` allocations.
            let n = arch.param_count();
            let p = match &execution {
                Execution::Packed(plan) => plan.packed_len(),
                Execution::MaskedDense(_) => 0,
            };
            let mut arena = Arena::from_pool(2 * n + 2 * p);
            let views = arena.views([n, n, p, p]);
            let mut indices = Vec::with_capacity(batch);
            match &execution {
                // Lines 18-21 at packed length: see `packed_step` for the
                // invariant and the per-sum exactness argument.
                Execution::Packed(packed) => {
                    let mut step = PackedStep::new(
                        layout,
                        packed,
                        &mask,
                        &dropped,
                        global_params,
                        &local,
                        round_sums,
                        objective,
                        options.sgd,
                        views,
                    );
                    for _ in 0..options.iterations {
                        draw(&mut indices);
                        let (breakdown, q_grad) =
                            step.iterate(&mut local, &indicator, data, &indices);
                        indicator.step(q_grad, options.importance_lr);
                        loss_sum += breakdown.total;
                        acc_sum += breakdown.accuracy;
                        executed += 1;
                    }
                }
                // The masked-dense oracle: every pass over the full model.
                Execution::MaskedDense(pmask) => {
                    let [masked, grad, _, _] = views;
                    for _ in 0..options.iterations {
                        for ((slot, &pv), &m) in
                            masked.iter_mut().zip(local.iter()).zip(pmask.iter())
                        {
                            *slot = pv * m;
                        }
                        draw(&mut indices);
                        grad.fill(0.0);
                        let breakdown = objective.evaluate(
                            arch,
                            masked,
                            global_params,
                            &indicator,
                            data,
                            &indices,
                            grad,
                        );

                        // Line 21: importance-indicator update (uses the same
                        // gradient buffer).
                        let q_grad = indicator.gradient(layout, &local, grad, options.lambda);
                        // Line 20: masked SGD step on the retained parameters only.
                        options.sgd.step_masked(&mut local, grad, pmask);
                        indicator.step(&q_grad, options.importance_lr);

                        loss_sum += breakdown.total;
                        acc_sum += breakdown.accuracy;
                        executed += 1;
                    }
                }
            }
            arena.release();
        }

        // Lines 23-25: persist Q, store the personalized sparse model and
        // compute the masked residual to upload (masked with the pattern that
        // was trained). A packed round writes both on the packed coordinates
        // `P` only: the personal model is `local[P]` (`p · 1.0 == p`), and
        // every other masked-in coordinate is frozen at the global value, so
        // its residual entry is an exact zero.
        let (personal, residual) = match execution {
            Execution::Packed(plan) => {
                let gather = plan.gather_map();
                let params = gather.iter().map(|&i| local[i as usize]).collect();
                let residual = Residual::Packed {
                    values: gather
                        .iter()
                        .map(|&i| global_params[i as usize] - local[i as usize])
                        .collect(),
                    coords: plan.gather_arc(),
                    len: arch.param_count(),
                };
                (PersonalModel::Packed { plan, params }, residual)
            }
            Execution::MaskedDense(pmask) => {
                let personal = local.iter().zip(&pmask).map(|(p, m)| p * m).collect();
                let residual = global_params
                    .iter()
                    .zip(&local)
                    .zip(&pmask)
                    .map(|((g, l), m)| (g - l) * m)
                    .collect();
                (PersonalModel::Dense(personal), Residual::Dense(residual))
            }
        };
        let uploaded_params =
            arch.param_count() - dropped.iter().map(ExactSizeIterator::len).sum::<usize>();

        let state = ClientState {
            indicator: Some(indicator.into_scores()),
            personal: Some(personal),
            last_mask: Some(mask.clone()),
            last_ratio: options.ratio,
        };

        ClientTaskOutput {
            outcome: ClientUpdateOutcome {
                residual,
                mask,
                uploaded_params,
                mean_loss: if executed > 0 {
                    loss_sum / executed as f64
                } else {
                    0.0
                },
                mean_accuracy: if executed > 0 {
                    acc_sum / executed as f64
                } else {
                    0.0
                },
            },
            state,
        }
    }
}

/// What a task's local iterations run on.
enum Execution {
    /// The compiled packed submodel of the round's mask.
    Packed(Arc<PackedModel>),
    /// The masked-dense oracle: the full model under this parameter mask.
    MaskedDense(Vec<f32>),
}

fn build_mask(
    arch: &dyn ModelArch,
    local: &[f32],
    indicator: &ImportanceIndicator,
    options: &ClientUpdateOptions,
    rng: &mut StdRng,
) -> UnitMask {
    options.pattern.build_mask(
        arch.unit_layout(),
        local,
        Some(indicator.scores()),
        options.ratio,
        options.round,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_data::dataset::InputKind;
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_tensor::{rng_from_seed, Matrix};

    fn setup() -> (Mlp, Dataset, Vec<f32>) {
        let mlp = Mlp::new(MlpConfig {
            input_dim: 6,
            hidden: vec![10, 8],
            num_classes: 3,
        });
        let mut rng = rng_from_seed(3);
        let features = Matrix::random_normal(40, 6, 1.0, &mut rng);
        let labels: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let data = Dataset::new(features, labels, 3, InputKind::Vector { dim: 6 });
        let params = mlp.init_params(&mut rng);
        (mlp, data, params)
    }

    fn options(ratio: f64) -> ClientUpdateOptions {
        ClientUpdateOptions {
            iterations: 8,
            batch_size: 10,
            sgd: SgdConfig::vision(),
            importance_lr: 0.1,
            mu: 1.0,
            lambda: 1.0,
            pattern: PatternStrategy::Importance,
            ratio,
            round: 0,
        }
    }

    /// One masked-dense participation with a freshly built mask, its new
    /// state written back in place as the round loop's absorb phase does.
    fn participate(
        mlp: &Mlp,
        global: &[f32],
        state: &mut ClientState,
        data: &Dataset,
        options: &ClientUpdateOptions,
        rng: &mut StdRng,
    ) -> ClientUpdateOutcome {
        let output = ClientTask {
            arch: mlp,
            global,
            state,
            data,
            options: *options,
            cached_mask: None,
            packed_execution: false,
            cached_plan: None,
        }
        .run(rng);
        *state = output.state;
        output.outcome
    }

    #[test]
    fn residual_respects_the_mask_and_ratio() {
        let (mlp, data, global) = setup();
        let mut state = ClientState::default();
        let mut rng = rng_from_seed(5);
        let outcome = participate(&mlp, &global, &mut state, &data, &options(0.5), &mut rng);

        assert_eq!(outcome.residual.len(), mlp.param_count());
        let layout = mlp.unit_layout();
        assert_eq!(outcome.mask.retained_per_layer(layout), vec![5, 4]);
        // Residual entries of dropped units must be exactly zero.
        let pmask = outcome.mask.param_mask(layout);
        for (r, m) in outcome.residual.to_dense().iter().zip(pmask.iter()) {
            if *m == 0.0 {
                assert_eq!(*r, 0.0);
            }
        }
        assert_eq!(
            outcome.uploaded_params,
            outcome.mask.retained_params(layout)
        );
        assert!(outcome.uploaded_params < mlp.param_count());
    }

    #[test]
    fn state_persists_indicator_and_personal_model() {
        let (mlp, data, global) = setup();
        let mut state = ClientState::default();
        let mut rng = rng_from_seed(6);
        participate(&mlp, &global, &mut state, &data, &options(0.5), &mut rng);
        let q1 = state.indicator.clone().unwrap();
        assert!(state.personal.is_some());
        assert_eq!(state.last_ratio, 0.5);
        // Second round re-uses (and further updates) the stored indicator.
        participate(&mlp, &global, &mut state, &data, &options(0.5), &mut rng);
        let q2 = state.indicator.clone().unwrap();
        assert_eq!(q1.len(), q2.len());
        assert_ne!(q1, q2, "the indicator keeps learning across rounds");
    }

    #[test]
    fn personal_model_improves_over_initial_global() {
        let (mlp, data, global) = setup();
        let mut state = ClientState::default();
        let mut rng = rng_from_seed(7);
        let mut opts = options(0.7);
        opts.iterations = 60;
        opts.mu = 0.1;
        participate(&mlp, &global, &mut state, &data, &opts, &mut rng);
        let personal = state.personal.as_ref().unwrap();
        let before = mlp.evaluate(&global, &data);
        let after = personal.evaluate(&mlp, &data);
        assert!(
            after.loss < before.loss,
            "personal sparse model should fit local data better ({} vs {})",
            after.loss,
            before.loss
        );
    }

    #[test]
    fn training_accuracy_is_reported() {
        let (mlp, data, global) = setup();
        let mut state = ClientState::default();
        let mut rng = rng_from_seed(8);
        let outcome = participate(&mlp, &global, &mut state, &data, &options(1.0), &mut rng);
        assert!(outcome.mean_accuracy >= 0.0 && outcome.mean_accuracy <= 1.0);
        assert!(outcome.mean_loss.is_finite());
    }

    #[test]
    fn empty_dataset_returns_zero_work() {
        let (mlp, _, global) = setup();
        let empty = Dataset::empty(3, InputKind::Vector { dim: 6 });
        let mut state = ClientState::default();
        let mut rng = rng_from_seed(9);
        let outcome = participate(&mlp, &global, &mut state, &empty, &options(0.5), &mut rng);
        assert_eq!(outcome.mean_accuracy, 0.0);
        // The residual is all zeros because no training happened.
        assert!(outcome.residual.to_dense().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn random_pattern_masks_are_resampled_every_participation() {
        let (mlp, data, global) = setup();
        let mut opts = options(0.5);
        opts.pattern = PatternStrategy::Random;
        let mut state = ClientState::default();
        let mut rng = rng_from_seed(21);
        let first = participate(&mlp, &global, &mut state, &data, &opts, &mut rng);
        let second = participate(&mlp, &global, &mut state, &data, &opts, &mut rng);
        assert_ne!(
            first.mask, second.mask,
            "random dropout must resample its units each round"
        );
    }

    #[test]
    fn client_task_is_pure_and_reuses_cached_masks() {
        let (mlp, data, global) = setup();
        let state = ClientState::default();
        let task = ClientTask {
            arch: &mlp,
            global: &global,
            state: &state,
            data: &data,
            options: options(0.5),
            cached_mask: None,
            packed_execution: false,
            cached_plan: None,
        };
        let mut rng1 = rng_from_seed(11);
        let fresh = task.run(&mut rng1);
        assert!(
            state.indicator.is_none(),
            "the task must not mutate its input state"
        );
        assert!(fresh.state.indicator.is_some());

        // Serving the fresh mask back as "cached" reproduces the round
        // bit-for-bit (importance masks consume no RNG, so streams align).
        let cached_task = ClientTask {
            cached_mask: Some(&fresh.outcome.mask),
            ..task
        };
        let mut rng2 = rng_from_seed(11);
        let cached = cached_task.run(&mut rng2);
        assert_eq!(cached.outcome.mask, fresh.outcome.mask);
        assert_eq!(cached.outcome.residual, fresh.outcome.residual);
        assert_eq!(cached.state.indicator, fresh.state.indicator);
    }

    #[test]
    fn packed_client_task_matches_masked_dense_bitwise() {
        // The tentpole contract at the client level: with identical RNG
        // streams, packed-submodel execution reproduces masked-dense
        // execution bit for bit — residual, personal model, indicator, mask
        // and training statistics.
        let (mlp, data, global) = setup();
        let state = ClientState::default();
        for ratio in [0.25, 0.5, 0.8] {
            let dense_task = ClientTask {
                arch: &mlp,
                global: &global,
                state: &state,
                data: &data,
                options: options(ratio),
                cached_mask: None,
                packed_execution: false,
                cached_plan: None,
            };
            let mut rng_d = rng_from_seed(45);
            let dense = dense_task.run(&mut rng_d);
            let packed_task = ClientTask {
                packed_execution: true,
                ..dense_task
            };
            let mut rng_p = rng_from_seed(45);
            let packed = packed_task.run(&mut rng_p);

            let plan = packed.state.plan().expect("ratio {ratio} should compile");
            assert!(dense.state.plan().is_none());
            assert_eq!(dense.outcome.mask, packed.outcome.mask);
            let dr = dense.outcome.residual.to_dense();
            let pr = packed.outcome.residual.to_dense();
            for (i, (d, p)) in dr.iter().zip(pr.iter()).enumerate() {
                assert_eq!(d.to_bits(), p.to_bits(), "residual diverges at {i}");
            }
            assert!(
                packed.outcome.residual.stored_values() < mlp.param_count(),
                "the packed upload is physically smaller"
            );
            assert_eq!(
                dense.outcome.mean_loss.to_bits(),
                packed.outcome.mean_loss.to_bits()
            );
            assert_eq!(dense.outcome.mean_accuracy, packed.outcome.mean_accuracy);
            assert_eq!(dense.state.indicator, packed.state.indicator);
            // The packed record holds the oracle's `ω ⊙ m` gathered through
            // the plan, and nothing else.
            let mut oracle = Vec::new();
            plan.gather_params(dense.state.personal.as_ref().unwrap().params(), &mut oracle);
            let stored = packed.state.personal.as_ref().unwrap().params();
            assert_eq!(stored.len(), plan.packed_len());
            assert!(stored.len() < mlp.param_count());
            for (i, (d, p)) in oracle.iter().zip(stored).enumerate() {
                assert_eq!(d.to_bits(), p.to_bits(), "personal model diverges at {i}");
            }
        }
    }

    #[test]
    fn a_mask_that_does_not_pack_keeps_the_full_length_model() {
        // Emptying the second hidden layer leaves no executable submodel, so
        // the packed task falls back to masked-dense and the record keeps
        // the full-length `ω ⊙ m`, exactly as the masked-dense task does.
        let (mlp, data, global) = setup();
        let layout = mlp.unit_layout();
        let mut keep = vec![true; layout.total_units()];
        for k in &mut keep[10..] {
            *k = false;
        }
        let mask = UnitMask::from_keep(keep);
        let state = ClientState::default();
        let run = |packed_execution: bool| {
            ClientTask {
                arch: &mlp,
                global: &global,
                state: &state,
                data: &data,
                options: options(0.5),
                cached_mask: Some(&mask),
                packed_execution,
                cached_plan: None,
            }
            .run(&mut rng_from_seed(61))
        };
        let (packed, dense) = (run(true), run(false));
        assert!(packed.state.plan().is_none());
        let model = |output: &ClientTaskOutput| match output.state.personal.clone() {
            Some(PersonalModel::Dense(model)) => model,
            other => panic!("expected a full-length model, got {other:?}"),
        };
        let (stored, oracle) = (model(&packed), model(&dense));
        assert_eq!(stored.len(), mlp.param_count());
        for (i, (d, p)) in oracle.iter().zip(&stored).enumerate() {
            assert_eq!(d.to_bits(), p.to_bits(), "personal model diverges at {i}");
        }
        assert_eq!(packed.outcome.residual, dense.outcome.residual);
    }

    #[test]
    fn cached_plans_reproduce_fresh_compilation() {
        let (mlp, data, global) = setup();
        let state = ClientState::default();
        let task = ClientTask {
            arch: &mlp,
            global: &global,
            state: &state,
            data: &data,
            options: options(0.5),
            cached_mask: None,
            packed_execution: true,
            cached_plan: None,
        };
        let mut rng1 = rng_from_seed(52);
        let fresh = task.run(&mut rng1);
        let plan = fresh.state.plan().cloned().expect("compiled");
        // Re-run with the mask and plan reused from the fresh record.
        let cached_task = ClientTask {
            cached_mask: Some(&fresh.outcome.mask),
            cached_plan: Some(plan),
            ..task
        };
        let mut rng2 = rng_from_seed(52);
        let cached = cached_task.run(&mut rng2);
        assert!(Arc::ptr_eq(
            cached.state.plan().expect("reused"),
            fresh.state.plan().expect("compiled")
        ));
        assert_eq!(cached.outcome.residual, fresh.outcome.residual);
        assert_eq!(cached.state.indicator, fresh.state.indicator);
    }

    #[test]
    fn lower_ratio_uploads_fewer_parameters() {
        let (mlp, data, global) = setup();
        let mut rng = rng_from_seed(10);
        let mut s1 = ClientState::default();
        let mut s2 = ClientState::default();
        let big = participate(&mlp, &global, &mut s1, &data, &options(0.9), &mut rng);
        let small = participate(&mlp, &global, &mut s2, &data, &options(0.2), &mut rng);
        assert!(small.uploaded_params < big.uploaded_params);
    }
}
