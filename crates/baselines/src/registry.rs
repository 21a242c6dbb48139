//! Name-based registry of every baseline, using the labels of the paper's
//! Table I so the benchmark harness can sweep the full comparison by name.

use fedlps_core::server::{Family, Server};
use fedlps_sim::algorithm::FlAlgorithm;

use crate::dense::{DenseFl, DenseVariant};
use crate::global_sparse::GlobalSparse;
use crate::personalized::{PersonalizedFl, PersonalizedVariant};
use crate::sparse_personalized::SparsePersonalized;
use crate::width::{WidthScaling, WidthVariant};

/// The baseline names in the order of the paper's Table I.
pub fn baseline_names() -> Vec<&'static str> {
    vec![
        "FedAvg",
        "FedProx",
        "Oort",
        "REFL",
        "PruneFL",
        "CS",
        "Fjord",
        "HeteroFL",
        "FedRolex",
        "FedMP",
        "DepthFL",
        "Ditto",
        "FedPer",
        "FedRep",
        "Per-FedAvg",
        "LotteryFL",
        "Hermes",
        "FedSpa",
        "FedP3",
    ]
}

/// Builds a baseline by its Table-I name. Returns `None` for unknown names.
pub fn baseline_by_name(name: &str) -> Option<Box<dyn FlAlgorithm>> {
    fn on<F: Family + 'static>(family: F) -> Option<Box<dyn FlAlgorithm>> {
        Some(Box::new(Server::from(family)))
    }
    match name {
        "FedAvg" => on(DenseFl::new(DenseVariant::FedAvg)),
        "FedProx" => on(DenseFl::new(DenseVariant::FedProx { mu: 0.1 })),
        "Oort" => on(DenseFl::new(DenseVariant::Oort)),
        "REFL" => on(DenseFl::new(DenseVariant::Refl)),
        "PruneFL" => on(GlobalSparse::prunefl()),
        "CS" => on(GlobalSparse::cs()),
        "Fjord" => on(WidthScaling::new(WidthVariant::Fjord)),
        "HeteroFL" => on(WidthScaling::new(WidthVariant::HeteroFl)),
        "FedRolex" => on(WidthScaling::new(WidthVariant::FedRolex)),
        "FedMP" => on(WidthScaling::new(WidthVariant::FedMp)),
        "DepthFL" => on(WidthScaling::new(WidthVariant::DepthFl)),
        "Ditto" => on(PersonalizedFl::ditto()),
        "FedPer" => on(PersonalizedFl::new(PersonalizedVariant::FedPer)),
        "FedRep" => on(PersonalizedFl::new(PersonalizedVariant::FedRep)),
        "Per-FedAvg" => on(PersonalizedFl::per_fedavg()),
        "LotteryFL" => on(SparsePersonalized::lotteryfl()),
        "Hermes" => on(SparsePersonalized::hermes()),
        "FedSpa" => on(SparsePersonalized::fedspa()),
        "FedP3" => on(SparsePersonalized::fedp3()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        for name in baseline_names() {
            let algo = baseline_by_name(name).unwrap_or_else(|| panic!("missing baseline {name}"));
            assert_eq!(algo.name(), name);
        }
    }

    #[test]
    fn unknown_names_return_none() {
        assert!(baseline_by_name("NotAMethod").is_none());
    }

    #[test]
    fn nineteen_baselines_are_registered() {
        assert_eq!(baseline_names().len(), 19);
    }
}
