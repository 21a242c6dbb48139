//! Per-client participation and utility statistics backing the selection
//! policies.

use std::collections::BTreeMap;

/// What the selection layer knows about one client.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClientSelectionStats {
    /// Times the client was dispatched (selected into a cohort, over-selected
    /// or refilled), whether or not its update survived.
    pub participations: u64,
    /// Mean training loss from the client's most recent *absorbed* report.
    pub last_loss: Option<f64>,
    /// Observed Eq. (14) latency (seconds) of the most recent absorbed round.
    pub last_latency: Option<f64>,
    /// Round/version at which the client was last dispatched.
    pub last_round: Option<usize>,
}

/// The statistics of a client that was never dispatched nor reported —
/// what [`SelectionTracker::stats`] returns for ids with no sparse entry.
const BLANK_STATS: ClientSelectionStats = ClientSelectionStats {
    participations: 0,
    last_loss: None,
    last_latency: None,
    last_round: None,
};

/// The statistics store the driver feeds and the policies read.
///
/// Observed statistics are recorded only at event-ordered absorption points,
/// which keeps every policy bit-identical across thread counts. There is one
/// store: a `BTreeMap` keyed by client id (`clippy.toml` rule D1) in which a
/// client occupies memory only once it is dispatched, next to a per-id
/// latency prior, so the tracker stays `O(participants)` even when it fronts
/// a million-client registry. Reading an absent client yields blank default
/// statistics. The two constructors differ only in the prior they are handed
/// and in the speed reference: [`new`](Self::new) takes the fastest given
/// latency, [`lazy`](Self::lazy) an explicit floor.
pub struct SelectionTracker {
    num_clients: usize,
    stats: BTreeMap<usize, ClientSelectionStats>,
    /// The Eq. (14) cost of training and uploading the full dense model on a
    /// client's static device tier, computed per id on demand — a pure
    /// function of the environment, so utilities are well-defined before a
    /// client has ever participated, and nothing per-client is stored.
    prior: Box<dyn Fn(usize) -> f64 + Send + Sync>,
    /// The fastest expected latency: reference for the speed term.
    latency_ref: f64,
}

impl std::fmt::Debug for SelectionTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionTracker")
            .field("num_clients", &self.num_clients)
            .field("stats", &self.stats)
            .field("latency_ref", &self.latency_ref)
            .finish_non_exhaustive()
    }
}

impl SelectionTracker {
    /// Creates a tracker for `expected_latency.len()` clients whose prior
    /// reads the given latencies, with the fastest of them as the speed
    /// reference.
    pub fn new(expected_latency: Vec<f64>) -> Self {
        assert!(
            expected_latency.iter().all(|l| l.is_finite() && *l > 0.0),
            "expected latencies must be positive and finite"
        );
        let latency_ref = expected_latency.iter().copied().reduce(f64::min);
        Self::lazy(
            expected_latency.len(),
            Box::new(move |k| expected_latency[k]),
            latency_ref.unwrap_or(1.0),
        )
    }

    /// Creates a tracker whose latency prior is computed per client id on
    /// demand — nothing `O(population)` is allocated. `latency_ref` is the
    /// latency of the fastest device tier the federation can contain
    /// (the prior must never undercut it, or [`speed`](Self::speed) would
    /// exceed 1; values are clamped rather than trusted).
    pub fn lazy(
        num_clients: usize,
        prior: Box<dyn Fn(usize) -> f64 + Send + Sync>,
        latency_ref: f64,
    ) -> Self {
        assert!(
            latency_ref.is_finite() && latency_ref > 0.0,
            "latency reference must be positive and finite"
        );
        Self {
            num_clients,
            stats: BTreeMap::new(),
            prior,
            latency_ref,
        }
    }

    /// Number of clients tracked.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of clients holding materialized statistics (dispatched at least
    /// once). The population-scale bench asserts on this to pin the
    /// `O(active participants)` memory contract.
    pub fn materialized_clients(&self) -> usize {
        self.stats.len()
    }

    /// The statistics of one client (blank defaults if never dispatched).
    pub fn stats(&self, client: usize) -> &ClientSelectionStats {
        self.stats.get(&client).unwrap_or(&BLANK_STATS)
    }

    /// All per-client participation counts (dispatch counts). Allocates
    /// `O(num_clients)` — callers fronting a lazy population should use
    /// [`explored_ids`](Self::explored_ids) instead.
    pub fn participations(&self) -> Vec<u64> {
        let mut counts = vec![0; self.num_clients];
        for (&k, s) in &self.stats {
            counts[k] = s.participations;
        }
        counts
    }

    /// Ids of every client dispatched at least once, ascending. Sized by the
    /// participants, not the population.
    pub fn explored_ids(&self) -> Vec<usize> {
        self.stats
            .iter()
            .filter(|(_, s)| s.participations > 0)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Records that `client` was handed the model at `round`.
    pub fn on_dispatch(&mut self, client: usize, round: usize) {
        let s = self.stats.entry(client).or_default();
        s.participations += 1;
        s.last_round = Some(round);
    }

    /// Records the statistics of an absorbed report.
    pub fn on_report(&mut self, client: usize, train_loss: f64, latency: f64) {
        let s = self.stats.entry(client).or_default();
        s.last_loss = Some(train_loss);
        s.last_latency = Some(latency);
    }

    /// The Eq. (14) full-model latency prior of a client.
    pub fn expected_latency(&self, client: usize) -> f64 {
        (self.prior)(client)
    }

    /// The pessimistic latency of a client: the Eq. (14) full-model prior,
    /// unless the last *observed* round was worse. Observed latencies carry
    /// everything the prior cannot know — availability waits (a dispatch
    /// into a diurnal/burst outage window), retry backoff and retransmission
    /// time on faulty uplinks — so a client just seen waiting out the night
    /// reads as slow until a clean round clears it. Observations *below* the
    /// prior are ignored: submodel rounds are legitimately cheaper than the
    /// full-model prior, and trusting them would double-count the sparse
    /// ratio the utility policies already budget for.
    pub fn pessimistic_latency(&self, client: usize) -> f64 {
        let prior = self.expected_latency(client);
        match self.stats(client).last_latency {
            Some(observed) if observed > prior => observed,
            _ => prior,
        }
    }

    /// The system-speed term in `(0, 1]`: the fastest client scores 1, a
    /// client expected to take `x` times longer scores `1/x`. Uses the
    /// [`pessimistic_latency`](Self::pessimistic_latency), so waits and
    /// retries observed on the last round depress a client's score until it
    /// completes a clean round.
    pub fn speed(&self, client: usize) -> f64 {
        (self.latency_ref / self.pessimistic_latency(client)).min(1.0)
    }

    /// The finite, reportable utility of a client: its last observed training
    /// loss (statistical utility — high-loss clients have the most to teach
    /// the global model) times the system-speed term. Clients that never
    /// reported score 0 here; policies rank them with explicit optimism
    /// instead of a sentinel value, so this number stays JSON-safe.
    pub fn utility(&self, client: usize) -> f64 {
        self.stats(client).last_loss.unwrap_or(0.0).max(0.0) * self.speed(client)
    }

    /// Whether a client has ever been dispatched.
    pub fn explored(&self, client: usize) -> bool {
        self.stats(client).participations > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_records_dispatches_and_reports() {
        let mut t = SelectionTracker::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(t.num_clients(), 3);
        assert!(t.explored_ids().is_empty());
        t.on_dispatch(1, 0);
        t.on_dispatch(1, 3);
        t.on_report(1, 0.5, 2.2);
        assert_eq!(t.stats(1).participations, 2);
        assert_eq!(t.stats(1).last_round, Some(3));
        assert_eq!(t.stats(1).last_loss, Some(0.5));
        assert_eq!(t.stats(1).last_latency, Some(2.2));
        assert!(t.explored(1) && !t.explored(0));
        assert_eq!(t.explored_ids(), vec![1]);
        assert_eq!(t.participations(), vec![0, 2, 0]);
    }

    #[test]
    fn speed_is_one_for_the_fastest_and_decays_with_latency() {
        let t = SelectionTracker::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(t.speed(0), 1.0);
        assert_eq!(t.speed(1), 0.5);
        assert_eq!(t.speed(2), 0.25);
        assert_eq!(t.expected_latency(2), 4.0);
    }

    #[test]
    fn observed_waits_depress_speed_until_a_clean_round_clears_them() {
        let mut t = SelectionTracker::new(vec![1.0, 2.0]);
        // A cheap submodel round below the prior is not trusted: the prior
        // already budgets for full-model cost.
        t.on_report(1, 0.5, 0.5);
        assert_eq!(t.pessimistic_latency(1), 2.0);
        assert_eq!(t.speed(1), 0.5);
        // A round inflated by an availability wait (or retry backoff) is:
        // the client reads slow until it completes a clean round.
        t.on_report(1, 0.5, 8.0);
        assert_eq!(t.pessimistic_latency(1), 8.0);
        assert_eq!(t.speed(1), 0.125);
        t.on_report(1, 0.5, 2.0);
        assert_eq!(t.speed(1), 0.5);
    }

    #[test]
    fn utility_is_loss_times_speed_and_json_safe() {
        let mut t = SelectionTracker::new(vec![1.0, 2.0]);
        assert_eq!(t.utility(0), 0.0, "unexplored clients report 0, not inf");
        t.on_report(1, 0.8, 2.0);
        assert!((t.utility(1) - 0.4).abs() < 1e-12);
        assert!(t.utility(1).is_finite());
    }

    #[test]
    fn lazy_tracker_stores_only_touched_clients() {
        let mut t = SelectionTracker::lazy(1_000_000, Box::new(|k| 1.0 + k as f64), 1.0);
        assert_eq!(t.num_clients(), 1_000_000);
        assert_eq!(t.materialized_clients(), 0);
        t.on_dispatch(999_999, 0);
        t.on_report(999_999, 0.5, 3.0);
        t.on_dispatch(7, 1);
        assert_eq!(t.materialized_clients(), 2);
        assert_eq!(t.explored_ids(), vec![7, 999_999]);
        assert_eq!(t.stats(500_000).participations, 0, "absent reads are blank");
        assert_eq!(t.expected_latency(3), 4.0);
        assert_eq!(t.speed(0), 1.0);
    }

    #[test]
    fn sparse_reads_match_the_dense_defaults() {
        // A report without a dispatch must behave exactly as it did with the
        // dense Vec-of-defaults store.
        let mut t = SelectionTracker::new(vec![1.0, 1.0]);
        t.on_report(0, 0.9, 1.5);
        assert_eq!(t.stats(0).participations, 0);
        assert!(
            !t.explored(0),
            "reported-but-never-dispatched stays unexplored"
        );
        assert!(t.explored_ids().is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_latency_priors() {
        SelectionTracker::new(vec![1.0, 0.0]);
    }
}
