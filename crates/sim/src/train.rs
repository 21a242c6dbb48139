//! Shared local-training and sparse-deployment helpers.
//!
//! Every FL algorithm in the workspace performs some variant of "run `E`
//! minibatch SGD iterations on the client's data", optionally restricted to a
//! parameter mask (sparse training) and/or regularised towards the global
//! model (proximal term). Centralising that loop here keeps the nineteen
//! baseline implementations small and guarantees they all account FLOPs,
//! bytes and costs identically.
//!
//! A sparse model runs on its physically packed submodel wherever its mask
//! compiles to one: training through [`compile_packed`] and
//! [`local_sgd_packed`], deployment through [`evaluate_masked`]. Both are
//! bit-identical to the masked-dense reference, which stays as the fallback
//! for a mask that does not pack and as the oracle the equivalence tests
//! compare against. Masked training takes no proximal term and no frozen
//! set, so nothing else ever forces the masked-dense path.

use fedlps_data::dataset::Dataset;
use fedlps_device::cost::local_cost;
use fedlps_device::{DeviceProfile, LocalCost};
use fedlps_nn::flops::params_to_bytes;
use fedlps_nn::model::{EvalStats, ModelArch};
use fedlps_nn::pack::PackedModel;
use fedlps_nn::sgd::SgdConfig;
use fedlps_sparse::mask::UnitMask;
use fedlps_sparse::plan::SubmodelPlan;
use fedlps_tensor::Arena;
use rand::rngs::StdRng;
use rand::Rng;

/// Options for [`local_sgd`].
#[derive(Debug, Clone, Copy)]
pub struct LocalTrainOptions<'a> {
    /// Number of local iterations `E`.
    pub iterations: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimiser settings.
    pub sgd: SgdConfig,
    /// Optional parameter-level multiplicative mask (sparse training).
    pub param_mask: Option<&'a [f32]>,
    /// Optional proximal regularisation `(μ, global_params)`: adds
    /// `μ · (ω − ω_global)` to the gradient (FedProx / Ditto / Eq. 7).
    pub prox: Option<(f32, &'a [f32])>,
    /// Optional subset of parameter indices frozen during training (used by
    /// FedPer/FedRep-style personal heads held out of the shared update).
    pub frozen: Option<&'a [f32]>,
}

/// Summary of a local training pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTrainSummary {
    /// Mean training loss over the executed iterations.
    pub mean_loss: f64,
    /// Mean training accuracy over the executed iterations.
    pub mean_accuracy: f64,
    /// Number of iterations actually executed.
    pub iterations: usize,
    /// Number of samples processed.
    pub samples: usize,
}

/// Runs `E` iterations of (optionally masked / proximal) minibatch SGD on
/// `params` in place and returns the training summary.
pub fn local_sgd(
    arch: &dyn ModelArch,
    params: &mut [f32],
    data: &Dataset,
    options: &LocalTrainOptions<'_>,
    rng: &mut StdRng,
) -> LocalTrainSummary {
    if data.is_empty() || options.iterations == 0 {
        return LocalTrainSummary {
            mean_loss: 0.0,
            mean_accuracy: 0.0,
            iterations: 0,
            samples: 0,
        };
    }
    if let Some(mask) = options.param_mask {
        // Sparse training starts from the masked model (ω ⊙ m).
        for (p, m) in params.iter_mut().zip(mask.iter()) {
            *p *= m;
        }
    }
    let batch = options.batch_size.max(1).min(data.len());
    let mut arena = Arena::from_pool(params.len());
    let [grad] = arena.views([params.len()]);
    let mut indices = Vec::with_capacity(batch);
    let mut loss_sum = 0.0;
    let mut acc_sum = 0.0;
    for _ in 0..options.iterations {
        indices.clear();
        indices.extend((0..batch).map(|_| rng.gen_range(0..data.len())));
        grad.fill(0.0);
        let stats = arch.loss_and_grad(params, data, &indices, grad);
        if let Some((mu, global)) = options.prox {
            for ((g, p), gp) in grad.iter_mut().zip(params.iter()).zip(global.iter()) {
                *g += mu * (p - gp);
            }
        }
        if let Some(frozen) = options.frozen {
            for (g, f) in grad.iter_mut().zip(frozen.iter()) {
                if *f != 0.0 {
                    *g = 0.0;
                }
            }
        }
        match options.param_mask {
            Some(mask) => options.sgd.step_masked(params, grad, mask),
            None => options.sgd.step(params, grad),
        }
        loss_sum += stats.loss;
        acc_sum += stats.accuracy;
    }
    arena.release();
    LocalTrainSummary {
        mean_loss: loss_sum / options.iterations as f64,
        mean_accuracy: acc_sum / options.iterations as f64,
        iterations: options.iterations,
        samples: options.iterations * batch,
    }
}

/// Compiles a unit mask into its physically packed submodel; `None` when the
/// mask does not extract a connected submodel (an emptied layer, or an
/// architecture without packing).
pub fn compile_packed(arch: &dyn ModelArch, mask: &UnitMask) -> Option<PackedModel> {
    SubmodelPlan::from_mask(arch.unit_layout(), mask).compile(arch)
}

/// Evaluates the sparse model `params ⊙ mask` on `data`, on the physically
/// packed submodel when the mask compiles to one.
///
/// This is the deployment half of packed execution. The packed network reads
/// only the packed coordinates `P ⊆ K` (`K` the mask-kept set) and
/// accumulates its terms in the same ascending order as the dense network;
/// every other term of the masked-dense forward pass is an exact-zero
/// product — a masked weight, or a dropped unit's zero activation. So the
/// result is **bit-identical** to
/// `arch.evaluate(&mask.apply(layout, params), data)`, which stays as the
/// fallback for a mask that does not pack (an emptied layer, or an
/// architecture without packing).
pub fn evaluate_masked(
    arch: &dyn ModelArch,
    mask: &UnitMask,
    params: &[f32],
    data: &Dataset,
) -> EvalStats {
    let Some(packed) = compile_packed(arch, mask) else {
        return arch.evaluate(&mask.apply(arch.unit_layout(), params), data);
    };
    // `p · 1.0 == p` bit for bit, so gathering the kept coordinates of the
    // unmasked vector is gathering those of `params ⊙ mask`.
    let mut arena = Arena::from_pool(packed.packed_len());
    let [pp] = arena.views([packed.packed_len()]);
    packed.gather_params_into(params, pp);
    let stats = packed.arch().evaluate(pp, data);
    arena.release();
    stats
}

/// Runs [`local_sgd`] on the physically packed submodel: gathers the kept
/// parameters out of the full-length `base`, trains the compact model and
/// returns its trained values (in gather-map order) with the summary.
///
/// Scattering the values into `mask.apply(layout, base)` gives, bit for bit,
/// what masked-dense [`local_sgd`] leaves in a copy of `base` (dropped
/// coordinates zeroed, frozen cross-connections untouched, kept coordinates
/// trained): the packed forward/backward accumulates exactly the same
/// nonzero terms in the same order and the gradient outside the packed set
/// is exactly zero — see the per-architecture equivalence tests in
/// `fedlps-nn` and the property tests in this crate. `options` must carry no
/// full-length mask, proximal term or frozen set: the packed model has none
/// of those coordinates.
pub fn local_sgd_packed(
    packed: &PackedModel,
    base: &[f32],
    data: &Dataset,
    options: &LocalTrainOptions<'_>,
    rng: &mut StdRng,
) -> (Vec<f32>, LocalTrainSummary) {
    debug_assert!(
        options.param_mask.is_none() && options.prox.is_none() && options.frozen.is_none(),
        "full-length options do not apply to a packed model"
    );
    // One exact-size flat allocation; it escapes to the caller, so it cannot
    // come from the scratch pool. The gradient outside the packed set is
    // exactly zero, so clipping the packed gradient computes the same norm
    // the dense path clips, and a plain step equals the masked step on the
    // kept coordinates.
    let mut values = vec![0.0f32; packed.packed_len()];
    packed.gather_params_into(base, &mut values);
    let summary = local_sgd(packed.arch(), &mut values, data, options, rng);
    (values, summary)
}

/// Resource accounting for one client round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundAccounting {
    /// Training FLOPs spent this round.
    pub flops: f64,
    /// Bytes uploaded.
    pub upload_bytes: f64,
    /// Bytes downloaded.
    pub download_bytes: f64,
    /// Eq. (14) local cost.
    pub local_cost: LocalCost,
}

/// Computes a client's round accounting from the structural facts of its local
/// work: which units it retained, how many parameters it uploaded/downloaded
/// and how many samples it touched.
pub fn account_round(
    arch: &dyn ModelArch,
    device: &DeviceProfile,
    mask: Option<&UnitMask>,
    iterations: usize,
    batch_size: usize,
    uploaded_params: usize,
    downloaded_params: usize,
) -> RoundAccounting {
    let retained = match mask {
        Some(m) => m.retained_per_layer(arch.unit_layout()),
        None => arch.unit_layout().units_per_layer(),
    };
    let samples = (iterations * batch_size) as f64;
    let flops = arch.train_flops_per_sample(&retained) * samples;
    let upload_bytes = params_to_bytes(uploaded_params);
    let download_bytes = params_to_bytes(downloaded_params);
    let local_cost = local_cost(flops, upload_bytes, device);
    RoundAccounting {
        flops,
        upload_bytes,
        download_bytes,
        local_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedlps_data::dataset::InputKind;
    use fedlps_device::CapabilityTier;
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_tensor::{rng_from_seed, Matrix};

    fn toy() -> (Mlp, Dataset) {
        let mlp = Mlp::new(MlpConfig {
            input_dim: 6,
            hidden: vec![8],
            num_classes: 3,
        });
        let mut rng = rng_from_seed(3);
        let features = Matrix::random_normal(30, 6, 1.0, &mut rng);
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let data = Dataset::new(features, labels, 3, InputKind::Vector { dim: 6 });
        (mlp, data)
    }

    #[test]
    fn local_sgd_improves_loss() {
        let (mlp, data) = toy();
        let mut rng = rng_from_seed(1);
        let mut params = mlp.init_params(&mut rng);
        let before = mlp.evaluate(&params, &data).loss;
        let options = LocalTrainOptions {
            iterations: 30,
            batch_size: 16,
            sgd: SgdConfig::vision(),
            param_mask: None,
            prox: None,
            frozen: None,
        };
        let summary = local_sgd(&mlp, &mut params, &data, &options, &mut rng);
        let after = mlp.evaluate(&params, &data).loss;
        assert!(after < before);
        assert_eq!(summary.iterations, 30);
        assert!(summary.mean_loss.is_finite());
    }

    #[test]
    fn masked_training_keeps_masked_params_zero() {
        let (mlp, data) = toy();
        let mut rng = rng_from_seed(2);
        let mut params = mlp.init_params(&mut rng);
        let mut keep = vec![true; mlp.unit_layout().total_units()];
        keep[0] = false;
        keep[3] = false;
        let mask = UnitMask::from_keep(keep);
        let pmask = mask.param_mask(mlp.unit_layout());
        let options = LocalTrainOptions {
            iterations: 10,
            batch_size: 8,
            sgd: SgdConfig::vision(),
            param_mask: Some(&pmask),
            prox: None,
            frozen: None,
        };
        local_sgd(&mlp, &mut params, &data, &options, &mut rng);
        for (p, m) in params.iter().zip(pmask.iter()) {
            if *m == 0.0 {
                assert_eq!(*p, 0.0);
            }
        }
    }

    #[test]
    fn prox_term_keeps_params_closer_to_global() {
        let (mlp, data) = toy();
        let mut rng = rng_from_seed(4);
        let global = mlp.init_params(&mut rng);

        let run = |mu: f32, rng: &mut StdRng| {
            let mut params = global.clone();
            let options = LocalTrainOptions {
                iterations: 20,
                batch_size: 16,
                sgd: SgdConfig::vision(),
                param_mask: None,
                prox: if mu > 0.0 {
                    Some((mu, global.as_slice()))
                } else {
                    None
                },
                frozen: None,
            };
            local_sgd(&mlp, &mut params, &data, &options, rng);
            fedlps_tensor::ops::dist_sq(&params, &global)
        };
        let mut rng1 = rng_from_seed(5);
        let mut rng2 = rng_from_seed(5);
        let free_drift = run(0.0, &mut rng1);
        let prox_drift = run(5.0, &mut rng2);
        assert!(prox_drift < free_drift);
    }

    #[test]
    fn frozen_params_do_not_move() {
        let (mlp, data) = toy();
        let mut rng = rng_from_seed(6);
        let mut params = mlp.init_params(&mut rng);
        // Freeze the classifier (everything past the hidden layer's units).
        let mut frozen = vec![0.0f32; params.len()];
        let hidden_params = 6 * 8 + 8;
        for f in frozen.iter_mut().skip(hidden_params) {
            *f = 1.0;
        }
        let before_tail = params[hidden_params..].to_vec();
        let options = LocalTrainOptions {
            iterations: 10,
            batch_size: 8,
            sgd: SgdConfig::vision(),
            param_mask: None,
            prox: None,
            frozen: Some(&frozen),
        };
        local_sgd(&mlp, &mut params, &data, &options, &mut rng);
        assert_eq!(&params[hidden_params..], before_tail.as_slice());
    }

    #[test]
    fn empty_data_is_a_noop() {
        let (mlp, _) = toy();
        let empty = Dataset::empty(3, InputKind::Vector { dim: 6 });
        let mut rng = rng_from_seed(7);
        let mut params = mlp.init_params(&mut rng);
        let copy = params.clone();
        let options = LocalTrainOptions {
            iterations: 5,
            batch_size: 8,
            sgd: SgdConfig::vision(),
            param_mask: None,
            prox: None,
            frozen: None,
        };
        let summary = local_sgd(&mlp, &mut params, &empty, &options, &mut rng);
        assert_eq!(summary.iterations, 0);
        assert_eq!(params, copy);
    }

    #[test]
    fn packed_local_sgd_is_bit_identical_to_masked_dense() {
        use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
        use fedlps_nn::model::ModelKind;
        use fedlps_sparse::pattern::PatternStrategy;

        for (kind, sgd) in [
            (DatasetKind::MnistLike, SgdConfig::vision()),
            (DatasetKind::Cifar10Like, SgdConfig::vision()),
            (DatasetKind::RedditLike, SgdConfig::text()),
        ] {
            let data = ScenarioConfig::tiny(kind).build();
            let arch = ModelKind::for_dataset(kind).build(data.input, data.num_classes);
            let client_data = &data.clients[0].train;
            let mut rng = rng_from_seed(31);
            let init = arch.init_params(&mut rng);
            let mask = PatternStrategy::Ordered.build_mask(
                arch.unit_layout(),
                &init,
                None,
                0.5,
                0,
                &mut rng,
            );
            let pmask = mask.param_mask(arch.unit_layout());
            let options = LocalTrainOptions {
                iterations: 4,
                batch_size: 6,
                sgd,
                param_mask: Some(&pmask),
                prox: None,
                frozen: None,
            };
            let packed = compile_packed(&*arch, &mask).expect("tiny masks are packable");

            let mut dense_params = init.clone();
            let mut rng_dense = rng_from_seed(77);
            let dense = local_sgd(
                &*arch,
                &mut dense_params,
                client_data,
                &options,
                &mut rng_dense,
            );

            let mut rng_packed = rng_from_seed(77);
            let (values, summary) = local_sgd_packed(
                &packed,
                &init,
                client_data,
                &LocalTrainOptions {
                    param_mask: None,
                    ..options
                },
                &mut rng_packed,
            );
            let mut packed_params = mask.apply(arch.unit_layout(), &init);
            packed.scatter_params(&values, &mut packed_params);

            assert_eq!(dense.mean_loss.to_bits(), summary.mean_loss.to_bits());
            assert_eq!(dense.mean_accuracy, summary.mean_accuracy);
            for (i, (d, p)) in dense_params.iter().zip(packed_params.iter()).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    p.to_bits(),
                    "{kind:?}: trained parameter {i} diverges"
                );
            }
        }
    }

    #[test]
    fn accounting_reflects_sparsity() {
        let (mlp, _) = toy();
        let device = DeviceProfile::from_tier(CapabilityTier::Quarter);
        let dense = account_round(
            &mlp,
            &device,
            None,
            5,
            20,
            mlp.param_count(),
            mlp.param_count(),
        );
        let mask = UnitMask::from_keep((0..8).map(|i| i < 2).collect());
        let kept = mask.retained_params(mlp.unit_layout());
        let sparse = account_round(&mlp, &device, Some(&mask), 5, 20, kept, mlp.param_count());
        assert!(sparse.flops < dense.flops);
        assert!(sparse.upload_bytes < dense.upload_bytes);
        assert!(sparse.local_cost.total() < dense.local_cost.total());
        assert_eq!(sparse.download_bytes, dense.download_bytes);
    }
}
