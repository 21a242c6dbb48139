//! Experiment scales: how much compute each harness binary spends.

use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
use fedlps_sim::config::FlConfig;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
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
    /// Parses a scale from a command-line argument.
    pub fn parse(value: &str) -> Option<Scale> {
        match value.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Reads the scale from the process arguments (`--scale <value>`),
    /// defaulting to [`Scale::Quick`].
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for (i, a) in args.iter().enumerate() {
            if a == "--scale" {
                if let Some(v) = args.get(i + 1).and_then(|v| Scale::parse(v)) {
                    return v;
                }
            }
            if let Some(v) = a.strip_prefix("--scale=").and_then(Scale::parse) {
                return v;
            }
        }
        Scale::Quick
    }

    /// Federation hyper-parameters at this scale.
    pub fn fl_config(&self) -> FlConfig {
        match self {
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
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn configs_grow_with_scale() {
        assert!(Scale::Quick.fl_config().rounds < Scale::Small.fl_config().rounds);
        assert!(Scale::Small.fl_config().rounds < Scale::Full.fl_config().rounds);
        assert!(
            Scale::Quick.scenario(DatasetKind::MnistLike).num_clients
                <= Scale::Full.scenario(DatasetKind::MnistLike).num_clients
        );
    }
}
