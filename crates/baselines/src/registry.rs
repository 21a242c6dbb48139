//! Name-based registry of every baseline, using the labels of the paper's
//! Table I so the benchmark harness can sweep the full comparison by name.

use fedlps_core::server::{Family, Server};
use fedlps_sim::algorithm::FlAlgorithm;

use crate::dense::{DenseFl, DenseVariant};
use crate::global_sparse::{GlobalSparse, GlobalSparseVariant};
use crate::personalized::{PersonalizedFl, PersonalizedVariant};
use crate::sparse_personalized::{SparsePersonalized, SparsePersonalizedVariant};
use crate::width::{WidthScaling, WidthVariant};

/// Builds one baseline.
type Constructor = fn() -> Box<dyn FlAlgorithm>;

fn on<F: Family + 'static>(family: F) -> Box<dyn FlAlgorithm> {
    Box::new(Server::from(family))
}

/// Every baseline by its Table-I name, in the order of the paper's Table I.
const BASELINES: [(&str, Constructor); 19] = [
    ("FedAvg", || on(DenseFl::new(DenseVariant::FedAvg))),
    ("FedProx", || on(DenseFl::new(DenseVariant::FedProx))),
    ("Oort", || on(DenseFl::new(DenseVariant::Oort))),
    ("REFL", || on(DenseFl::new(DenseVariant::Refl))),
    ("PruneFL", || {
        on(GlobalSparse::new(GlobalSparseVariant::PruneFl))
    }),
    ("CS", || on(GlobalSparse::new(GlobalSparseVariant::Cs))),
    ("Fjord", || on(WidthScaling::new(WidthVariant::Fjord))),
    ("HeteroFL", || on(WidthScaling::new(WidthVariant::HeteroFl))),
    ("FedRolex", || on(WidthScaling::new(WidthVariant::FedRolex))),
    ("FedMP", || on(WidthScaling::new(WidthVariant::FedMp))),
    ("DepthFL", || on(WidthScaling::new(WidthVariant::DepthFl))),
    ("Ditto", || {
        on(PersonalizedFl::new(PersonalizedVariant::Ditto))
    }),
    ("FedPer", || {
        on(PersonalizedFl::new(PersonalizedVariant::FedPer))
    }),
    ("FedRep", || {
        on(PersonalizedFl::new(PersonalizedVariant::FedRep))
    }),
    ("Per-FedAvg", || {
        on(PersonalizedFl::new(PersonalizedVariant::PerFedAvg))
    }),
    ("LotteryFL", || {
        on(SparsePersonalized::new(
            SparsePersonalizedVariant::LotteryFl,
        ))
    }),
    ("Hermes", || {
        on(SparsePersonalized::new(SparsePersonalizedVariant::Hermes))
    }),
    ("FedSpa", || {
        on(SparsePersonalized::new(SparsePersonalizedVariant::FedSpa))
    }),
    ("FedP3", || {
        on(SparsePersonalized::new(SparsePersonalizedVariant::FedP3))
    }),
];

/// The baseline names in the order of the paper's Table I.
pub fn baseline_names() -> Vec<&'static str> {
    BASELINES.iter().map(|&(name, _)| name).collect()
}

/// Builds a baseline by its Table-I name. Returns `None` for unknown names.
pub fn baseline_by_name(name: &str) -> Option<Box<dyn FlAlgorithm>> {
    BASELINES
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, build)| build())
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
