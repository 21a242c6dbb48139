//! Experiment scales: how much compute an artefact spends.

use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
use fedlps_sim::config::FlConfig;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// [`FlConfig::tiny`] on [`ScenarioConfig::tiny`] — the size the tier-1
    /// claims test (`tests/paper_claims.rs`) can afford in the debug profile.
    Tiny,
    /// A few rounds on a small federation — seconds per method, for
    /// smoke-testing the harness.
    Quick,
    /// The default for regenerating the qualitative results — tens of
    /// seconds per method.
    Small,
    /// The closest configuration to the paper's (still CPU-friendly).
    Full,
}

impl Scale {
    /// The names [`Scale::parse`] accepts.
    pub const NAMES: [&'static str; 4] = ["tiny", "quick", "small", "full"];

    /// Parses a scale from a command-line argument.
    pub fn parse(value: &str) -> Option<Scale> {
        match value.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "quick" => Some(Scale::Quick),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Federation hyper-parameters at this scale.
    pub fn fl_config(&self) -> FlConfig {
        match self {
            Scale::Tiny => FlConfig::tiny(),
            Scale::Quick => FlConfig {
                rounds: 12,
                clients_per_round: 5,
                local_iterations: 4,
                batch_size: 16,
                eval_every: 3,
                ..FlConfig::default()
            },
            Scale::Small => FlConfig {
                rounds: 20,
                clients_per_round: 5,
                local_iterations: 5,
                batch_size: 20,
                eval_every: 2,
                ..FlConfig::default()
            },
            Scale::Full => FlConfig {
                rounds: 60,
                clients_per_round: 8,
                local_iterations: 5,
                batch_size: 20,
                eval_every: 5,
                ..FlConfig::default()
            },
        }
    }

    /// Dataset scenario for a given benchmark at this scale.
    pub fn scenario(&self, kind: DatasetKind) -> ScenarioConfig {
        match self {
            Scale::Tiny => ScenarioConfig::tiny(kind),
            Scale::Quick => ScenarioConfig {
                num_clients: 10,
                samples_per_client: 60,
                test_per_client: 24,
                ..ScenarioConfig::small(kind)
            },
            Scale::Small => ScenarioConfig {
                num_clients: 16,
                samples_per_client: 100,
                test_per_client: 40,
                ..ScenarioConfig::small(kind)
            },
            Scale::Full => ScenarioConfig::small(kind).with_clients(kind.default_num_clients()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scales() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
        assert!(Scale::NAMES.iter().all(|n| Scale::parse(n).is_some()));
    }

    #[test]
    fn configs_grow_with_scale() {
        assert!(Scale::Tiny.fl_config().rounds < Scale::Quick.fl_config().rounds);
        assert!(Scale::Quick.fl_config().rounds < Scale::Small.fl_config().rounds);
        assert!(Scale::Small.fl_config().rounds < Scale::Full.fl_config().rounds);
        assert!(
            Scale::Quick.scenario(DatasetKind::MnistLike).num_clients
                <= Scale::Full.scenario(DatasetKind::MnistLike).num_clients
        );
    }
}
