//! Federation hyper-parameters.

use fedlps_nn::sgd::SgdConfig;
use serde::{Deserialize, Serialize};

pub use fedlps_faults::{AvailabilityModel, FaultConfig};
pub use fedlps_runtime::RoundMode;
pub use fedlps_select::SelectionKind;
pub use fedlps_topo::Topology;

/// One actionable rejection from [`FlConfig::validate`]: which knob is bad
/// and what it must satisfy. [`Simulator`](crate::runner::Simulator) runs
/// the validation pass once at construction, so a bad robustness knob
/// (quorum > 1, a retry cap whose backoff overflows, diurnal period ≤ 0, …)
/// fails up front
/// with one readable message instead of a panic mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending knob, as a `FlConfig` field path.
    pub knob: &'static str,
    /// What the knob must satisfy (and what it was).
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid `FlConfig.{}`: {}", self.knob, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a federated-learning run.
///
/// Defaults follow the paper's setup scaled down for CPU execution: the paper
/// uses `R = 100` rounds, 10 clients per round, `E` local iterations with batch
/// size 20 and SGD with learning rate 0.1 (8 + clipping for the LSTM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// Number of communication rounds `R`.
    pub rounds: usize,
    /// Number of clients selected per round (`C = max(⌊ϵK⌋, 1)`).
    pub clients_per_round: usize,
    /// Local iterations `E` per selected client per round.
    pub local_iterations: usize,
    /// Minibatch size for local SGD.
    pub batch_size: usize,
    /// Local optimiser settings.
    pub sgd: SgdConfig,
    /// Evaluate every client's model every `eval_every` rounds (1 = every
    /// round, matching the paper's accuracy-vs-round curves; 0 = never —
    /// whole-federation evaluation is an `O(population)` sweep, so
    /// population-scale runs disable it). Rounds count from 0, and the
    /// driver evaluates on every round with `round % eval_every == 0` plus
    /// the last round, so `eval_every == rounds` evaluates twice: after
    /// round 0 and after the last.
    pub eval_every: usize,
    /// Base RNG seed for client selection / minibatch sampling.
    pub seed: u64,
    /// Threads for the two parallel passes that follow this knob (0 = one
    /// per available core, see [`effective_parallelism`](Self::effective_parallelism)):
    /// each dispatch batch's client steps run on at most that many threads
    /// (1, the default, keeps them on the driver thread), and the server's
    /// Eq. (13) / coverage aggregation splits the parameter vector into that
    /// many chunks, run over every available core. The evaluation sweep
    /// ignores this knob and always uses every core. Results are
    /// bit-identical at every setting — client steps are pure and updates
    /// are absorbed in client-id order — so this is purely a wall-clock knob.
    pub parallelism: usize,
    /// How rounds execute on the virtual clock: the paper's synchronous
    /// barrier (the default), deadline rounds with over-selection, or
    /// staleness-aware asynchronous absorption. See
    /// [`RoundMode`] for the exact semantics; results stay bit-identical
    /// across `parallelism` settings in every mode.
    pub round_mode: RoundMode,
    /// Which selection policy forms cohorts, over-selects under a deadline
    /// and refills freed async slots (consulted whenever the algorithm does
    /// not override
    /// [`FlAlgorithm::select_clients`](crate::algorithm::FlAlgorithm::select_clients)).
    /// The default uniform policy reproduces the paper's sampling bit for
    /// bit.
    pub selection: SelectionKind,
    /// The physical aggregation topology: `Flat` (clients upload straight to
    /// the server — the default, byte-identical to the historical traces) or
    /// `TwoTier` (clients → zone aggregators → server, with zone-level
    /// deadlines and uplink pricing). The topology overlays *timing, traffic
    /// and drops*; the absorbed arithmetic is the canonical ascending walk
    /// either way, so every topology stays bit-identical across parallelism
    /// settings.
    pub topology: Topology,
    /// When (and how correlatedly) clients are unavailable. The default
    /// [`AvailabilityModel::AlwaysOn`] keeps every client online (the
    /// paper's assumption); the `Diurnal` and `Burst` models make
    /// dispatched clients *wait out* their seeded offline windows before
    /// computing — in every round mode, including synchronous, so a barrier
    /// genuinely stalls on a night wave.
    pub availability: AvailabilityModel,
    /// Transient upload faults with retry + exponential backoff (see
    /// [`FaultConfig`]); the default injects nothing. Failed attempts are
    /// replayed as `UploadRetry` events through the event queue, so retry
    /// schedules stay bit-identical at every parallelism/topology setting.
    pub faults: FaultConfig,
    /// Barrier quorum in `(0, 1]`: a sync/deadline round closes as soon as
    /// this fraction of the dispatched cohort has been buffered, instead of
    /// stalling on a correlated outage. `1.0` (the default) waits for the
    /// full cohort — the historical behaviour. Later arrivals of a
    /// quorum-closed round drop as stragglers; the degraded close is
    /// surfaced as `quorum_closes` in the round metrics. Async rounds
    /// ignore the knob (their buffer target plays the same role).
    pub quorum: f64,
}

impl Default for FlConfig {
    fn default() -> Self {
        Self {
            rounds: 30,
            clients_per_round: 5,
            local_iterations: 5,
            batch_size: 20,
            sgd: SgdConfig::vision(),
            eval_every: 1,
            seed: 7,
            parallelism: 1,
            round_mode: RoundMode::Synchronous,
            selection: SelectionKind::Uniform,
            topology: Topology::Flat,
            availability: AvailabilityModel::AlwaysOn,
            faults: FaultConfig::none(),
            quorum: 1.0,
        }
    }
}

impl FlConfig {
    /// A very small configuration for unit and integration tests.
    pub fn tiny() -> Self {
        Self {
            rounds: 6,
            clients_per_round: 3,
            local_iterations: 3,
            batch_size: 10,
            eval_every: 2,
            ..Self::default()
        }
    }

    /// Builder-style override of the number of rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the round-loop parallelism (0 = all cores).
    pub fn with_parallelism(mut self, shards: usize) -> Self {
        self.parallelism = shards;
        self
    }

    /// Builder-style override of the round execution mode.
    pub fn with_round_mode(mut self, mode: RoundMode) -> Self {
        self.round_mode = mode;
        self
    }

    /// Builder-style override of the client-selection policy.
    pub fn with_selection(mut self, selection: SelectionKind) -> Self {
        self.selection = selection;
        self
    }

    /// Builder-style override of the aggregation topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builder-style override of the availability model.
    pub fn with_availability(mut self, availability: AvailabilityModel) -> Self {
        self.availability = availability;
        self
    }

    /// Builder-style override of the transient upload-fault knobs.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style override of the barrier quorum fraction.
    pub fn with_quorum(mut self, quorum: f64) -> Self {
        self.quorum = quorum;
        self
    }

    /// Checks every knob once, returning the first violation as one
    /// actionable [`ConfigError`]. [`Simulator`](crate::runner::Simulator)
    /// runs this at construction; call it directly to pre-flight a config
    /// without building an environment.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |knob: &'static str, message: String| Err(ConfigError { knob, message });
        if self.rounds == 0 {
            return err("rounds", "must be at least 1".to_string());
        }
        if self.clients_per_round == 0 {
            return err("clients_per_round", "must be at least 1".to_string());
        }
        if self.local_iterations == 0 {
            return err("local_iterations", "must be at least 1".to_string());
        }
        if self.batch_size == 0 {
            return err("batch_size", "must be at least 1".to_string());
        }
        if !(self.sgd.lr.is_finite() && self.sgd.lr > 0.0) {
            return err(
                "sgd",
                format!("lr must be finite and > 0, got {}", self.sgd.lr),
            );
        }
        if let Some(clip) = self.sgd.clip_norm {
            if !(clip.is_finite() && clip > 0.0) {
                return err(
                    "sgd",
                    format!(
                        "clip_norm must be finite and > 0 when set — a negative \
                         clip factor turns the step into gradient ascent — got {clip}"
                    ),
                );
            }
        }
        // Mirror the RoundMode constructor contracts for directly
        // constructed variants.
        match self.round_mode {
            RoundMode::Synchronous => {}
            RoundMode::Deadline { budget, .. } => {
                if !(budget.is_finite() && budget > 0.0) {
                    return err(
                        "round_mode",
                        format!("deadline budget must be finite and > 0, got {budget}"),
                    );
                }
            }
            RoundMode::Async { alpha, .. } => {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return err(
                        "round_mode",
                        format!("async staleness discount must be in (0, 1], got {alpha}"),
                    );
                }
            }
        }
        if !(self.quorum > 0.0 && self.quorum <= 1.0) {
            return err(
                "quorum",
                format!(
                    "must be in (0, 1] — a zero quorum closes rounds before \
                     anyone reports — got {}",
                    self.quorum
                ),
            );
        }
        if let Err(message) = self.selection.validate() {
            return err("selection", message);
        }
        if let Err(message) = self.topology.validate() {
            return err("topology", message);
        }
        if let Err(message) = self.availability.validate() {
            return err("availability", message);
        }
        if let Err(message) = self.faults.validate() {
            return err("faults", message);
        }
        Ok(())
    }

    /// The number of worker shards the round loop should actually use:
    /// resolves the `0 = auto` convention against the machine's core count.
    pub fn effective_parallelism(&self) -> usize {
        if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.parallelism
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = FlConfig::default();
        assert!(cfg.rounds > 0 && cfg.clients_per_round > 0 && cfg.local_iterations > 0);
        assert!(cfg.eval_every >= 1);
    }

    #[test]
    fn builders_apply() {
        let cfg = FlConfig::tiny()
            .with_rounds(3)
            .with_seed(99)
            .with_parallelism(4);
        assert_eq!(cfg.rounds, 3);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.parallelism, 4);
    }

    #[test]
    fn parallelism_resolves_auto_and_explicit() {
        assert_eq!(FlConfig::default().parallelism, 1, "serial by default");
        assert_eq!(FlConfig::default().effective_parallelism(), 1);
        let auto = FlConfig::default().with_parallelism(0);
        assert!(auto.effective_parallelism() >= 1);
        assert_eq!(
            FlConfig::default()
                .with_parallelism(3)
                .effective_parallelism(),
            3
        );
    }

    #[test]
    fn serde_roundtrip() {
        for cfg in [
            FlConfig::default(),
            FlConfig::default().with_round_mode(RoundMode::deadline(2.0, 3)),
            FlConfig::default().with_round_mode(RoundMode::asynchronous(4, 0.5)),
            FlConfig::default().with_selection(SelectionKind::utility()),
            FlConfig::default().with_selection(SelectionKind::PowerOfChoice),
            FlConfig::default().with_topology(Topology::two_tier().with_zone_deadline(0.25)),
            FlConfig::default()
                .with_availability(AvailabilityModel::from_name("diurnal").unwrap())
                .with_quorum(0.75),
            FlConfig::default()
                .with_availability(AvailabilityModel::from_name("burst").unwrap())
                .with_faults(FaultConfig {
                    upload_failure_prob: 0.2,
                    ..FaultConfig::default()
                }),
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: FlConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg, back);
        }
    }

    #[test]
    fn round_mode_defaults_to_synchronous() {
        assert_eq!(FlConfig::default().round_mode, RoundMode::Synchronous);
        let cfg = FlConfig::tiny().with_round_mode(RoundMode::asynchronous(2, 0.8));
        assert_eq!(cfg.round_mode.name(), "async");
    }

    #[test]
    fn topology_defaults_to_flat() {
        assert_eq!(FlConfig::default().topology, Topology::Flat);
        let cfg = FlConfig::tiny().with_topology(Topology::two_tier());
        assert_eq!(cfg.topology.name(), "two-tier");
        assert_eq!(cfg.topology.zones(), 4);
    }

    #[test]
    fn fault_knobs_default_to_the_legacy_behaviour() {
        let cfg = FlConfig::default();
        assert_eq!(cfg.availability, AvailabilityModel::AlwaysOn);
        assert!(!cfg.faults.enabled());
        assert_eq!(cfg.quorum, 1.0);
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_bad_robustness_knob() {
        let two_tier = |zones, zone_deadline, zone_uplink| {
            FlConfig::tiny().with_topology(Topology::TwoTier {
                zones,
                zone_deadline,
                zone_uplink,
            })
        };
        let utility = |exploration| {
            FlConfig::tiny().with_selection(SelectionKind::UtilityBased { exploration })
        };
        let sgd = |lr, clip_norm| FlConfig {
            sgd: SgdConfig { lr, clip_norm },
            ..FlConfig::tiny()
        };
        let cases: Vec<(FlConfig, &str)> = vec![
            (FlConfig::tiny().with_quorum(1.5), "quorum"),
            (FlConfig::tiny().with_quorum(0.0), "quorum"),
            (
                FlConfig::tiny().with_faults(FaultConfig {
                    upload_failure_prob: 0.999,
                    max_retries: 1100,
                    ..FaultConfig::none()
                }),
                "faults",
            ),
            (
                FlConfig::tiny().with_availability(AvailabilityModel::Diurnal {
                    period: 0.0,
                    phase_spread: 1.0,
                    night_offline: 0.3,
                }),
                "availability",
            ),
            (
                FlConfig::tiny().with_availability(AvailabilityModel::Burst {
                    zones: 4,
                    every: 1.0,
                    outage: 2.0,
                }),
                "availability",
            ),
            (FlConfig::tiny().with_rounds(0), "rounds"),
            (two_tier(0, None, 4.0), "topology"),
            (two_tier(4, Some(-1.0), 4.0), "topology"),
            (two_tier(4, None, 0.0), "topology"),
            (two_tier(4, None, -1.0), "topology"),
            (two_tier(4, None, f64::NAN), "topology"),
            (utility(7.0), "selection"),
            (utility(-0.1), "selection"),
            (utility(f64::NAN), "selection"),
            (sgd(0.0, None), "sgd"),
            (sgd(-0.1, None), "sgd"),
            (sgd(f32::NAN, None), "sgd"),
            (sgd(f32::INFINITY, None), "sgd"),
            (sgd(0.1, Some(-1.0)), "sgd"),
            (sgd(0.1, Some(0.0)), "sgd"),
            (sgd(0.1, Some(f32::NAN)), "sgd"),
            (sgd(0.1, Some(f32::INFINITY)), "sgd"),
            (
                FlConfig {
                    round_mode: RoundMode::Deadline {
                        budget: f64::INFINITY,
                        over_select: 1,
                    },
                    ..FlConfig::tiny()
                },
                "round_mode",
            ),
            (
                FlConfig {
                    round_mode: RoundMode::Async {
                        max_staleness: 2,
                        alpha: 0.0,
                    },
                    ..FlConfig::tiny()
                },
                "round_mode",
            ),
        ];
        for (cfg, knob) in cases {
            let e = cfg.validate().unwrap_err();
            assert_eq!(e.knob, knob, "wrong knob blamed: {e}");
            // The Display form is the one actionable message the Simulator
            // panics with — it must name the field path.
            assert!(e.to_string().contains(&format!("FlConfig.{knob}")));
        }
    }

    #[test]
    fn selection_defaults_to_the_legacy_behaviour() {
        let cfg = FlConfig::default();
        assert_eq!(cfg.selection, SelectionKind::Uniform);
        let cfg = cfg.with_selection(SelectionKind::utility());
        assert_eq!(cfg.selection.name(), "utility");
    }
}
