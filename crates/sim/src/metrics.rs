//! Run metrics: per-round traces and end-of-run summaries.
//!
//! The paper reports (i) final mean personalized accuracy and total FLOPs
//! (Table I), (ii) accuracy-versus-FLOPs and accuracy-versus-time curves
//! (Figures 3-4), (iii) time-to-accuracy (Figure 5) and (iv) per-level
//! accuracy/time summaries (Figures 6-8). All of those are derived from the
//! [`RunResult`] collected by the simulator.

use serde::{Deserialize, Serialize};

/// Metrics recorded at the end of one communication round.
///
/// The two `zone_*` fields and the six fault-injection fields
/// (`retry_attempts` through `unavailable_wait_seconds`) are emitted only
/// when nonzero, so flat-topology, fault-free traces serialize to exactly
/// the bytes the pre-topology/pre-fault goldens pinned, while two-tier or
/// fault-injected traces carry their extra columns. Deserialization
/// tolerates their absence (defaulting to zero) for the same reason.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// Round index `r` (in async mode: the server aggregation/version index).
    pub round: usize,
    /// Mean deployed-model accuracy across all clients (None on rounds where
    /// evaluation was skipped).
    pub mean_accuracy: Option<f64>,
    /// Mean training accuracy over the round's absorbed clients.
    pub train_accuracy: f64,
    /// Mean training loss over the round's absorbed clients.
    pub train_loss: f64,
    /// Virtual-clock duration of this round: the slowest selected client in
    /// synchronous mode (Eq. 18), at most the budget in deadline mode, the
    /// gap between aggregations in async mode.
    pub round_time: f64,
    /// Virtual time at which the round started.
    pub round_start_time: f64,
    /// Cumulative simulated time up to and including this round — i.e. the
    /// virtual clock when the round's aggregation happened.
    pub cumulative_time: f64,
    /// FLOPs spent by the selected clients this round.
    pub round_flops: f64,
    /// Cumulative FLOPs across the federation so far.
    pub cumulative_flops: f64,
    /// Bytes uploaded this round.
    pub round_upload_bytes: f64,
    /// Cumulative uploaded bytes.
    pub cumulative_upload_bytes: f64,
    /// Mean sparse ratio used by the selected clients.
    pub mean_sparse_ratio: f64,
    /// Mask-cache lookups served from the cache this round (0 for algorithms
    /// without mask caching).
    pub mask_cache_hits: u64,
    /// Mask-cache lookups that required a rebuild this round.
    pub mask_cache_misses: u64,
    /// Deadline-mode stragglers: dispatched clients whose updates landed
    /// after the round deadline fired. Always 0 in synchronous mode.
    pub straggler_drops: u64,
    /// Async-mode updates discarded for exceeding the staleness bound.
    pub stale_discards: u64,
    /// Async-mode histogram of absorbed-update staleness: entry `s` counts
    /// updates absorbed `s` aggregations after their model was dispatched.
    /// Empty outside async mode.
    pub staleness_hist: Vec<u64>,
    /// Mean selection utility (last loss × Eq. (14) speed term) of the
    /// round's absorbed clients — the quantity utility-based selection ranks
    /// by. 0.0 while the selection layer has no observations yet.
    pub mean_selection_utility: f64,
    /// Absorbed clients participating for the very first time this round —
    /// how fast the selection policy is still exploring the federation.
    pub first_time_participants: u64,
    /// Two-tier topology: uploads dropped at their zone aggregator because
    /// the zone's deadline had fired before they landed. Always 0 under the
    /// flat topology (and omitted from the serialized form when 0).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub zone_straggler_drops: u64,
    /// Two-tier topology: bytes the zone tier forwarded to the server this
    /// round — one combined pre-merged upload per active zone in the cohort
    /// modes (priced by the zone uplink in Eq. 14), individual
    /// store-and-forward uploads in async mode. Compare against
    /// `round_upload_bytes` (the client → zone tier) for the uplink saving.
    /// Always 0 under flat (and omitted from the serialized form when 0).
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub zone_upload_bytes: f64,
    /// Upload retransmissions scheduled this round by the fault injector
    /// (each failed attempt that still had retry budget). Always 0 without
    /// fault injection (and omitted from the serialized form when 0).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub retry_attempts: u64,
    /// Updates dropped permanently after exhausting the upload retry cap.
    /// Counted separately from `straggler_drops` (omitted when 0).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub upload_failure_drops: u64,
    /// Cohort rounds closed by the quorum knob before the full cohort
    /// reported — the graceful-degradation path (omitted when 0).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub quorum_closes: u64,
    /// Dispatches that found their client inside an availability window
    /// (diurnal night / burst outage) and had to wait it out (omitted
    /// when 0).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub unavailable_dispatches: u64,
    /// Total seconds those dispatches waited for availability before
    /// computing — the availability occupancy of the round (omitted
    /// when 0).
    #[serde(default, skip_serializing_if = "is_zero_f64")]
    pub unavailable_wait_seconds: f64,
}

/// `skip_serializing_if` predicates of the omit-when-zero columns.
fn is_zero_u64(v: &u64) -> bool {
    *v == 0
}

fn is_zero_f64(v: &f64) -> bool {
    *v == 0.0
}

/// The full trace of one federated run plus its summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Algorithm name (e.g. `"FedLPS"`).
    pub algorithm: String,
    /// Dataset scenario name.
    pub dataset: String,
    /// Per-round metrics.
    pub rounds: Vec<RoundMetrics>,
    /// Mean personalized accuracy after the final round.
    pub final_accuracy: f64,
    /// Best mean personalized accuracy observed at any evaluation point.
    pub best_accuracy: f64,
    /// Total FLOPs across the whole run.
    pub total_flops: f64,
    /// Total simulated time (seconds) across the whole run.
    pub total_time: f64,
    /// Total uploaded bytes across the whole run.
    pub total_upload_bytes: f64,
    /// Per-client dispatch counts over the whole run (selection-layer
    /// participation census; empty for results built without one).
    pub client_participations: Vec<u64>,
}

impl RunResult {
    /// Builds the summary fields from a trace.
    pub fn from_rounds(algorithm: String, dataset: String, rounds: Vec<RoundMetrics>) -> Self {
        let final_accuracy = rounds
            .iter()
            .rev()
            .find_map(|r| r.mean_accuracy)
            .unwrap_or(0.0);
        let best_accuracy = rounds
            .iter()
            .filter_map(|r| r.mean_accuracy)
            .fold(0.0, f64::max);
        let last = rounds.last();
        Self {
            algorithm,
            dataset,
            final_accuracy,
            best_accuracy,
            total_flops: last.map_or(0.0, |r| r.cumulative_flops),
            total_time: last.map_or(0.0, |r| r.cumulative_time),
            total_upload_bytes: last.map_or(0.0, |r| r.cumulative_upload_bytes),
            rounds,
            client_participations: Vec::new(),
        }
    }

    /// Attaches the selection layer's per-client participation census.
    pub fn with_client_participations(mut self, participations: Vec<u64>) -> Self {
        self.client_participations = participations;
        self
    }

    /// Share of dispatches that went to each client (empty when no census
    /// was recorded). Sums to 1 whenever anyone participated.
    pub fn participation_shares(&self) -> Vec<f64> {
        let total: u64 = self.client_participations.iter().sum();
        if total == 0 {
            return vec![0.0; self.client_participations.len()];
        }
        self.client_participations
            .iter()
            .map(|&n| n as f64 / total as f64)
            .collect()
    }

    /// Mean selection utility across all rounds (0 when never observed).
    pub fn mean_selection_utility(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds
            .iter()
            .map(|r| r.mean_selection_utility)
            .sum::<f64>()
            / self.rounds.len() as f64
    }

    /// Total first-time participants across the run: how many distinct
    /// clients the selection policy ever absorbed an update from.
    pub fn total_first_time_participants(&self) -> u64 {
        self.rounds.iter().map(|r| r.first_time_participants).sum()
    }

    /// Time-To-Accuracy (Figure 5): the simulated time at which the mean
    /// accuracy first reached `target`, or `None` if it never did.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.mean_accuracy.is_some_and(|a| a >= target))
            .map(|r| r.cumulative_time)
    }

    /// `(cumulative FLOPs, accuracy)` series for the Figure 3 curves.
    pub fn accuracy_vs_flops(&self) -> Vec<(f64, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| r.mean_accuracy.map(|a| (r.cumulative_flops, a)))
            .collect()
    }

    /// `(cumulative time, accuracy)` series for the Figure 4 curves.
    pub fn accuracy_vs_time(&self) -> Vec<(f64, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| r.mean_accuracy.map(|a| (r.cumulative_time, a)))
            .collect()
    }

    /// Mean sparse ratio actually used across the run.
    pub fn mean_sparse_ratio(&self) -> f64 {
        if self.rounds.is_empty() {
            return 1.0;
        }
        self.rounds.iter().map(|r| r.mean_sparse_ratio).sum::<f64>() / self.rounds.len() as f64
    }

    /// Mask-cache hit rate over the whole run (0 when the algorithm never
    /// consulted a cache).
    pub fn mask_cache_hit_rate(&self) -> f64 {
        self.mask_cache_hit_rate_from(0)
    }

    /// Total deadline stragglers over the whole run.
    pub fn total_straggler_drops(&self) -> u64 {
        self.rounds.iter().map(|r| r.straggler_drops).sum()
    }

    /// Total async updates discarded for exceeding the staleness bound.
    pub fn total_stale_discards(&self) -> u64 {
        self.rounds.iter().map(|r| r.stale_discards).sum()
    }

    /// Total upload retransmissions scheduled over the whole run (0 without
    /// fault injection).
    pub fn total_retry_attempts(&self) -> u64 {
        self.rounds.iter().map(|r| r.retry_attempts).sum()
    }

    /// Total updates dropped after exhausting the upload retry cap.
    pub fn total_upload_failure_drops(&self) -> u64 {
        self.rounds.iter().map(|r| r.upload_failure_drops).sum()
    }

    /// Total cohort rounds the quorum knob closed before the full cohort
    /// reported.
    pub fn total_quorum_closes(&self) -> u64 {
        self.rounds.iter().map(|r| r.quorum_closes).sum()
    }

    /// Total dispatches that had to wait out an availability window.
    pub fn total_unavailable_dispatches(&self) -> u64 {
        self.rounds.iter().map(|r| r.unavailable_dispatches).sum()
    }

    /// Total seconds dispatched clients spent waiting for availability.
    pub fn total_unavailable_wait_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.unavailable_wait_seconds).sum()
    }

    /// The per-cause drop histogram of the whole run, as
    /// `(cause, count)` pairs in a fixed order: `deadline-straggler`
    /// (barrier drops), `zone-deadline`, `stale` (async staleness discards) and
    /// `upload-failure` (retry cap exhausted). Causes are disjoint; zero
    /// counts are kept so rows line up across configurations.
    pub fn drop_causes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("deadline-straggler", self.total_straggler_drops()),
            ("zone-deadline", self.total_zone_straggler_drops()),
            ("stale", self.total_stale_discards()),
            ("upload-failure", self.total_upload_failure_drops()),
        ]
    }

    /// Total uploads dropped at a zone aggregator's deadline over the whole
    /// run (0 under the flat topology).
    pub fn total_zone_straggler_drops(&self) -> u64 {
        self.rounds.iter().map(|r| r.zone_straggler_drops).sum()
    }

    /// Total zone → server bytes over the whole run (0 under the flat
    /// topology). Compare with `total_upload_bytes` — the client → zone
    /// tier — for the uplink saving of zone pre-merging.
    pub fn total_zone_upload_bytes(&self) -> f64 {
        self.rounds.iter().map(|r| r.zone_upload_bytes).sum()
    }

    /// Elementwise sum of the per-round staleness histograms (empty for runs
    /// that never executed asynchronously).
    pub fn staleness_histogram(&self) -> Vec<u64> {
        let len = self
            .rounds
            .iter()
            .map(|r| r.staleness_hist.len())
            .max()
            .unwrap_or(0);
        let mut hist = vec![0u64; len];
        for r in &self.rounds {
            for (h, v) in hist.iter_mut().zip(r.staleness_hist.iter()) {
                *h += v;
            }
        }
        hist
    }

    /// Mean staleness of absorbed async updates (0 for non-async runs).
    pub fn mean_staleness(&self) -> f64 {
        let hist = self.staleness_histogram();
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        hist.iter()
            .enumerate()
            .map(|(s, &n)| s as f64 * n as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Mask-cache hit rate counting only rounds `>= from_round` — the warm
    /// regime the ROADMAP's perf trajectory tracks (early rounds are all
    /// compulsory misses while the cache fills).
    pub fn mask_cache_hit_rate_from(&self, from_round: usize) -> f64 {
        let (hits, misses) = self
            .rounds
            .iter()
            .filter(|r| r.round >= from_round)
            .fold((0u64, 0u64), |(h, m), r| {
                (h + r.mask_cache_hits, m + r.mask_cache_misses)
            });
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(i: usize, acc: Option<f64>, flops: f64, time: f64) -> RoundMetrics {
        RoundMetrics {
            round: i,
            mean_accuracy: acc,
            train_accuracy: 0.5,
            train_loss: 1.0,
            round_time: time,
            round_start_time: time * i as f64,
            cumulative_time: time * (i + 1) as f64,
            round_flops: flops,
            cumulative_flops: flops * (i + 1) as f64,
            round_upload_bytes: 10.0,
            cumulative_upload_bytes: 10.0 * (i + 1) as f64,
            mean_sparse_ratio: 0.5,
            mask_cache_hits: i as u64,
            mask_cache_misses: 1,
            straggler_drops: (i % 2) as u64,
            stale_discards: 0,
            staleness_hist: vec![1, i as u64],
            mean_selection_utility: 0.5,
            first_time_participants: (i == 0) as u64,
            zone_straggler_drops: 0,
            zone_upload_bytes: 0.0,
            retry_attempts: 0,
            upload_failure_drops: 0,
            quorum_closes: 0,
            unavailable_dispatches: 0,
            unavailable_wait_seconds: 0.0,
        }
    }

    fn result() -> RunResult {
        RunResult::from_rounds(
            "algo".into(),
            "data".into(),
            vec![
                round(0, Some(0.2), 100.0, 2.0),
                round(1, None, 100.0, 2.0),
                round(2, Some(0.5), 100.0, 2.0),
                round(3, Some(0.4), 100.0, 2.0),
            ],
        )
    }

    #[test]
    fn summary_fields() {
        let r = result();
        assert_eq!(r.final_accuracy, 0.4);
        assert_eq!(r.best_accuracy, 0.5);
        assert_eq!(r.total_flops, 400.0);
        assert_eq!(r.total_time, 8.0);
        assert_eq!(r.total_upload_bytes, 40.0);
    }

    #[test]
    fn time_to_accuracy_is_the_first_crossing() {
        let r = result();
        assert_eq!(r.time_to_accuracy(0.45), Some(6.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn curves_skip_unevaluated_rounds() {
        let r = result();
        assert_eq!(r.accuracy_vs_flops().len(), 3);
        assert_eq!(r.accuracy_vs_time().len(), 3);
    }

    #[test]
    fn empty_run_is_safe() {
        let r = RunResult::from_rounds("a".into(), "d".into(), vec![]);
        assert_eq!(r.final_accuracy, 0.0);
        assert_eq!(r.time_to_accuracy(0.1), None);
        assert_eq!(r.mean_sparse_ratio(), 1.0);
        assert_eq!(r.mask_cache_hit_rate(), 0.0);
    }

    #[test]
    fn mask_cache_hit_rates() {
        // Rounds carry hits 0,1,2,3 and one miss each.
        let r = result();
        assert!((r.mask_cache_hit_rate() - 6.0 / 10.0).abs() < 1e-12);
        // From round 2 on: hits 2+3 = 5, misses 2.
        assert!((r.mask_cache_hit_rate_from(2) - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.mask_cache_hit_rate_from(99), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let r = result().with_client_participations(vec![3, 1]);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn zone_fields_roundtrip_and_stay_out_of_flat_traces() {
        // Flat rounds (zone fields zero) serialize without any zone keys —
        // that invariant is what keeps the pre-topology goldens byte-exact.
        let flat = round(0, Some(0.2), 100.0, 2.0);
        let json = serde_json::to_string(&flat).unwrap();
        assert!(
            !json.contains("zone_"),
            "flat trace leaked zone keys: {json}"
        );
        for key in [
            "retry_attempts",
            "upload_failure_drops",
            "quorum_closes",
            "unavailable",
        ] {
            assert!(
                !json.contains(key),
                "fault-free trace leaked `{key}`: {json}"
            );
        }
        let back: RoundMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(flat, back);

        // Two-tier rounds carry and roundtrip both zone fields.
        let mut tiered = round(1, None, 100.0, 2.0);
        tiered.zone_straggler_drops = 3;
        tiered.zone_upload_bytes = 4096.0;
        let json = serde_json::to_string(&tiered).unwrap();
        assert!(json.contains("\"zone_straggler_drops\":3"));
        assert!(json.contains("zone_upload_bytes"));
        let back: RoundMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(tiered, back);
    }

    #[test]
    fn fault_fields_roundtrip_and_feed_the_drop_histogram() {
        let mut faulty = round(0, Some(0.2), 100.0, 2.0);
        faulty.retry_attempts = 5;
        faulty.upload_failure_drops = 2;
        faulty.straggler_drops = 3;
        faulty.quorum_closes = 1;
        faulty.unavailable_dispatches = 4;
        faulty.unavailable_wait_seconds = 0.75;
        let json = serde_json::to_string(&faulty).unwrap();
        for key in [
            "retry_attempts",
            "upload_failure_drops",
            "quorum_closes",
            "unavailable_dispatches",
            "unavailable_wait_seconds",
        ] {
            assert!(json.contains(key), "missing `{key}` in {json}");
        }
        let back: RoundMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(faulty, back);

        let r = RunResult::from_rounds("a".into(), "d".into(), vec![faulty]);
        assert_eq!(r.total_retry_attempts(), 5);
        assert_eq!(r.total_upload_failure_drops(), 2);
        assert_eq!(r.total_quorum_closes(), 1);
        assert_eq!(r.total_unavailable_dispatches(), 4);
        assert!((r.total_unavailable_wait_seconds() - 0.75).abs() < 1e-12);
        assert_eq!(
            r.drop_causes(),
            vec![
                ("deadline-straggler", 3),
                ("zone-deadline", 0),
                ("stale", 0),
                ("upload-failure", 2),
            ]
        );
    }

    #[test]
    fn zone_summaries() {
        let mut rounds = vec![round(0, Some(0.2), 100.0, 2.0), round(1, None, 100.0, 2.0)];
        rounds[0].zone_straggler_drops = 2;
        rounds[0].zone_upload_bytes = 100.0;
        rounds[1].zone_straggler_drops = 1;
        rounds[1].zone_upload_bytes = 50.0;
        let r = RunResult::from_rounds("a".into(), "d".into(), rounds);
        assert_eq!(r.total_zone_straggler_drops(), 3);
        assert!((r.total_zone_upload_bytes() - 150.0).abs() < 1e-12);
        assert_eq!(result().total_zone_straggler_drops(), 0);
        assert_eq!(result().total_zone_upload_bytes(), 0.0);
    }

    #[test]
    fn participation_and_utility_summaries() {
        let r = result().with_client_participations(vec![3, 1, 0]);
        let shares = r.participation_shares();
        assert_eq!(shares.len(), 3);
        assert!((shares[0] - 0.75).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(r.total_first_time_participants(), 1);
        assert!((r.mean_selection_utility() - 0.5).abs() < 1e-12);

        let empty = RunResult::from_rounds("a".into(), "d".into(), vec![]);
        assert!(empty.participation_shares().is_empty());
        assert_eq!(empty.mean_selection_utility(), 0.0);
        assert_eq!(
            empty
                .clone()
                .with_client_participations(vec![0, 0])
                .participation_shares(),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn drop_and_staleness_summaries() {
        let r = result();
        // Rounds 0..4 carry drops 0,1,0,1 and histograms [1, i].
        assert_eq!(r.total_straggler_drops(), 2);
        assert_eq!(r.total_stale_discards(), 0);
        assert_eq!(r.staleness_histogram(), vec![4, 6]);
        // Mean staleness: 6 of 10 absorbed updates at staleness 1.
        assert!((r.mean_staleness() - 0.6).abs() < 1e-12);

        let empty = RunResult::from_rounds("a".into(), "d".into(), vec![]);
        assert_eq!(empty.staleness_histogram(), Vec::<u64>::new());
        assert_eq!(empty.mean_staleness(), 0.0);
    }
}
