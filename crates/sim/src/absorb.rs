//! The absorption layer: how absorbed client work turns into algorithm state
//! and per-round metrics.
//!
//! Whatever the round mode, a round's life is the same: outcomes accumulate
//! (their FLOPs always count, their uploads only when they land), surviving
//! reports are absorbed, and a [`RoundMetrics`] entry summarizes the round
//! when it closes. This module owns that accounting — the
//! [`RoundAccumulator`], whose one [`RoundMetrics`] record every per-round
//! counter accumulates into, plus the [`ModeState`] machine deciding *when*
//! a round closes and *who* drops — so the driver's event handlers stay pure
//! orchestration. Deadline straggler drops, post-deadline arrivals and async
//! staleness discards are just different calls on the same state machine,
//! not separate per-mode loops.
//!
//! It is also the one module that hands updates to the algorithm (rule D5,
//! pinned by `tests/absorb_seam.rs`): the cohort barrier walk and the async
//! staleness-discounted absorb are both accumulator methods.
//!
//! The layer is private; its behaviour is observable through the metric
//! trace. Under a deadline, rounds close at the budget instead of waiting
//! for the slowest client, and the work of stragglers is dropped — visible
//! as a shorter simulated time at the same round count:
//!
//! ```
//! use fedlps_data::scenario::{DatasetKind, ScenarioConfig};
//! use fedlps_device::HeterogeneityLevel;
//! use fedlps_nn::model::EvalStats;
//! use fedlps_sim::algorithm::{ClientOutcome, ClientReport, ClientUpdate, FlAlgorithm};
//! use fedlps_sim::config::{FlConfig, RoundMode};
//! use fedlps_sim::env::FlEnv;
//! use fedlps_sim::runner::Simulator;
//!
//! /// The smallest possible algorithm: bills per-client latency (slower
//! /// devices take longer), stages no update.
//! struct Null;
//! impl FlAlgorithm for Null {
//!     fn name(&self) -> String { "null".into() }
//!     fn setup(&mut self, _env: &FlEnv) {}
//!     fn client_step(&self, env: &FlEnv, _round: usize, client: usize,
//!                    _rng: &mut rand::rngs::StdRng) -> ClientOutcome {
//!         let mut report = ClientReport::idle(client);
//!         report.local_cost.compute_seconds = env.expected_latency(client);
//!         ClientOutcome::new(report, ())
//!     }
//!     fn absorb_update(&mut self, _env: &FlEnv, _round: usize, _update: ClientUpdate) {}
//!     fn aggregate(&mut self, _env: &FlEnv, _round: usize, _reports: &[ClientReport]) {}
//!     fn evaluate_client(&self, _env: &FlEnv, _client: usize) -> EvalStats {
//!         EvalStats { loss: 0.0, accuracy: 0.0, samples: 1 }
//!     }
//! }
//!
//! let run = |mode: RoundMode| {
//!     let env = FlEnv::from_scenario(
//!         &ScenarioConfig::tiny(DatasetKind::MnistLike),
//!         HeterogeneityLevel::High,
//!         FlConfig::tiny().with_rounds(3).with_round_mode(mode),
//!     );
//!     Simulator::new(env).run(&mut Null)
//! };
//!
//! let sync = run(RoundMode::Synchronous);
//! // Budget half the longest synchronous round, over-selecting 2 spares.
//! let budget = sync.rounds.iter().map(|r| r.round_time).fold(0.0, f64::max) * 0.5;
//! let deadline = run(RoundMode::deadline(budget, 2));
//! assert_eq!(deadline.rounds.len(), sync.rounds.len());
//! assert!(deadline.total_time < sync.total_time);
//! assert!(deadline.rounds.iter().all(|r| r.round_time <= budget + 1e-12));
//! ```

use std::collections::BTreeMap;

use fedlps_runtime::RoundMode;
use fedlps_select::SelectionTracker;

use crate::algorithm::{ClientReport, ClientUpdate, FlAlgorithm};
use crate::env::FlEnv;
use crate::metrics::RoundMetrics;

/// A dispatched client whose update is still travelling (or, in the cohort
/// modes, buffered until the barrier): the model version it was computed
/// against plus the outcome that lands at its arrival time.
pub(crate) struct InFlight {
    pub dispatched_version: usize,
    pub report: ClientReport,
    pub update: ClientUpdate,
}

/// The absorption layer's mode-specific round state.
pub(crate) enum ModeState {
    /// Synchronous / deadline rounds: one barrier per round on a
    /// round-relative timeline.
    Cohort {
        /// Round budget (None = synchronous: wait for everyone).
        deadline: Option<f64>,
        /// Extra clients selected beyond `clients_per_round`.
        over_select: usize,
        /// Clients dispatched this round.
        dispatched: usize,
        /// Arrived updates buffered until the barrier, keyed by client id
        /// (the absorb order).
        arrived: BTreeMap<usize, InFlight>,
        /// Round duration so far (last arrival, or the budget once it binds).
        duration: f64,
        /// Whether the deadline fired (later events are straggler drops).
        deadline_fired: bool,
        /// Configured quorum fraction in `(0, 1]` (1.0 = full barrier).
        quorum: f64,
        /// Buffered arrivals that close the round early (`usize::MAX` when
        /// the quorum knob is off — recomputed per round by
        /// [`set_dispatched`](ModeState::set_dispatched)).
        quorum_target: usize,
        /// The quorum closed this round: the deadline, if it fires later,
        /// must not stretch the duration back to the budget.
        quorum_fired: bool,
    },
    /// The staleness-aware continuous pipeline.
    Async {
        max_staleness: u32,
        alpha: f64,
        /// Absorbed updates per aggregation (= metrics round).
        buffer_target: usize,
        /// Virtual time at which the current metrics round opened.
        round_start: f64,
    },
}

impl ModeState {
    /// Builds the state machine for a round mode. `quorum` is the cohort
    /// quorum fraction in `(0, 1]` (validated by `FlConfig::validate`, not
    /// here); the async pipeline ignores it — its buffer target plays the
    /// same role.
    pub(crate) fn for_round_mode(
        mode: RoundMode,
        num_clients: usize,
        clients_per_round: usize,
        quorum: f64,
    ) -> Self {
        let (deadline, over_select) = match mode {
            RoundMode::Synchronous => (None, 0),
            RoundMode::Deadline {
                budget,
                over_select,
            } => (Some(budget), over_select),
            RoundMode::Async {
                max_staleness,
                alpha,
            } => {
                return ModeState::Async {
                    max_staleness,
                    alpha,
                    buffer_target: clients_per_round.min(num_clients).max(1),
                    round_start: 0.0,
                }
            }
        };
        ModeState::Cohort {
            deadline,
            over_select,
            dispatched: 0,
            arrived: BTreeMap::new(),
            duration: 0.0,
            deadline_fired: false,
            quorum,
            quorum_target: usize::MAX,
            quorum_fired: false,
        }
    }

    /// Staleness-histogram buckets this mode needs (0 outside async).
    pub(crate) fn hist_len(&self) -> usize {
        match self {
            ModeState::Async { max_staleness, .. } => *max_staleness as usize + 1,
            ModeState::Cohort { .. } => 0,
        }
    }

    /// Whether this is the continuous async pipeline.
    pub(crate) fn is_async(&self) -> bool {
        matches!(self, ModeState::Async { .. })
    }

    /// Cohort view for the dispatch handler: `None` = async, `Some(budget)` =
    /// cohort (inner `None` = synchronous).
    pub(crate) fn cohort_deadline(&self) -> Option<Option<f64>> {
        match self {
            ModeState::Cohort { deadline, .. } => Some(*deadline),
            ModeState::Async { .. } => None,
        }
    }

    /// Async parameters `(max_staleness, alpha, buffer_target)`, if async.
    pub(crate) fn async_params(&self) -> Option<(u32, f64, usize)> {
        match self {
            ModeState::Async {
                max_staleness,
                alpha,
                buffer_target,
                ..
            } => Some((*max_staleness, *alpha, *buffer_target)),
            ModeState::Cohort { .. } => None,
        }
    }

    /// Deadline over-selection width (0 for sync and async).
    pub(crate) fn over_select(&self) -> usize {
        match self {
            ModeState::Cohort { over_select, .. } => *over_select,
            ModeState::Async { .. } => 0,
        }
    }

    /// Records how many clients the opened cohort round dispatched, and
    /// derives the round's quorum target from it: with `quorum < 1`, the
    /// barrier closes as soon as `ceil(quorum × dispatched)` (at least one)
    /// updates are buffered. At the default `quorum = 1.0` the target is
    /// unreachable-before-the-barrier (`usize::MAX`-guarded by the full
    /// house), keeping the historical close semantics bit for bit.
    pub(crate) fn set_dispatched(&mut self, count: usize) {
        if let ModeState::Cohort {
            dispatched,
            quorum,
            quorum_target,
            ..
        } = self
        {
            *dispatched = count;
            *quorum_target = if *quorum < 1.0 {
                ((*quorum * count as f64).ceil() as usize).max(1)
            } else {
                usize::MAX
            };
        }
    }

    /// Cohort arrival: buffer the update for the barrier, or count a
    /// post-deadline straggler (the server moved on). Returns whether the
    /// update was buffered — the topology layer books zone state only for
    /// updates the barrier will actually absorb.
    ///
    /// With `quorum < 1`, the arrival that fills the quorum target also
    /// closes the round: later events this round are straggler drops, just
    /// as if the deadline had fired, and the round ends at this arrival's
    /// time (events pop in time order, so `duration` is already final).
    pub(crate) fn buffer_arrival(
        &mut self,
        acc: &mut RoundAccumulator,
        client: usize,
        fl: InFlight,
        time: f64,
    ) -> bool {
        let ModeState::Cohort {
            arrived,
            duration,
            deadline_fired,
            quorum_target,
            quorum_fired,
            ..
        } = self
        else {
            unreachable!("cohort arrival outside a cohort round");
        };
        if *deadline_fired {
            acc.metrics.straggler_drops += 1;
            false
        } else {
            *duration = duration.max(time);
            arrived.insert(client, fl);
            if arrived.len() >= *quorum_target {
                *deadline_fired = true;
                *quorum_fired = true;
                acc.metrics.quorum_closes += 1;
            }
            true
        }
    }

    /// The round budget fired: later events are straggler drops, and the
    /// round lasts the full budget iff anyone is outstanding or was lost
    /// (the server cannot distinguish a straggler from a dead device).
    pub(crate) fn deadline_fired(&mut self, acc: &RoundAccumulator, time: f64) {
        // Zone-deadline and upload-failure drops count against the arrival
        // reckoning too: a client dropped at its zone (or whose retries ran
        // out) will never reach the server barrier.
        let m = &acc.metrics;
        let drops = m.straggler_drops + m.zone_straggler_drops + m.upload_failure_drops;
        let ModeState::Cohort {
            dispatched,
            arrived,
            duration,
            deadline_fired,
            quorum_fired,
            ..
        } = self
        else {
            unreachable!("the async pipeline never schedules a round deadline");
        };
        if *quorum_fired {
            // The quorum already closed the round at its final arrival; the
            // budget firing afterwards must not stretch the duration back.
            return;
        }
        *deadline_fired = true;
        if (arrived.len() as u64) + drops < *dispatched as u64 || drops > 0 {
            *duration = time;
        }
    }

    /// Barrier close: hands back the buffered arrivals (in ascending
    /// client-id order) and the round duration, resetting the per-round
    /// state for the next round.
    pub(crate) fn close_barrier(&mut self) -> (BTreeMap<usize, InFlight>, f64) {
        let ModeState::Cohort {
            arrived,
            duration,
            deadline_fired,
            dispatched,
            quorum_fired,
            ..
        } = self
        else {
            unreachable!("only cohort rounds have a barrier");
        };
        let taken = std::mem::take(arrived);
        let d = *duration;
        *duration = 0.0;
        *deadline_fired = false;
        *dispatched = 0;
        *quorum_fired = false;
        (taken, d)
    }

    /// Async round boundary: returns the closing round's start time and
    /// opens the next round at `now`.
    pub(crate) fn bump_round_start(&mut self, now: f64) -> f64 {
        let ModeState::Async { round_start, .. } = self else {
            unreachable!("cohort rounds close at the barrier");
        };
        let start = *round_start;
        *round_start = now;
        start
    }
}

/// The currently open round: the reports absorbed so far plus the
/// [`RoundMetrics`] record its counters and totals accumulate into.
#[derive(Debug, Clone)]
pub(crate) struct RoundAccumulator {
    /// Reports of the updates absorbed this round, in absorption order.
    pub reports: Vec<ClientReport>,
    /// The round's record, filled as the round runs: FLOPs of every
    /// dispatched client (dropped work still costs), bytes of every upload
    /// attempt, drops by cause, staleness, availability waits. The
    /// per-report means and clock facts are stamped by
    /// [`close`](Self::close).
    pub metrics: RoundMetrics,
}

impl RoundAccumulator {
    /// An accumulator whose staleness histogram has `hist_len` buckets
    /// (0 for the cohort modes, `max_staleness + 1` for async).
    pub(crate) fn new(hist_len: usize) -> Self {
        Self {
            reports: Vec::new(),
            metrics: RoundMetrics {
                staleness_hist: vec![0; hist_len],
                ..RoundMetrics::default()
            },
        }
    }

    /// Barrier absorption: hands the buffered survivors to the algorithm in
    /// ascending client-id order (fixed by the `BTreeMap` iteration order,
    /// never the thread schedule) and books their reports.
    pub(crate) fn absorb_arrivals(
        &mut self,
        algorithm: &mut dyn FlAlgorithm,
        env: &FlEnv,
        round: usize,
        arrived: BTreeMap<usize, InFlight>,
        tracker: &mut SelectionTracker,
    ) {
        for (client, fl) in arrived {
            self.metrics.round_upload_bytes += fl.report.upload_bytes;
            tracker.on_report(client, fl.report.train_loss, fl.report.local_cost.total());
            self.reports.push(fl.report);
            algorithm.absorb_update(env, round, fl.update);
        }
    }

    /// Async arrival at server `version`: absorbs the update at once with
    /// weight `alpha^staleness`, or discards it when it is staler than
    /// `max_staleness`.
    pub(crate) fn absorb_async(
        &mut self,
        algorithm: &mut dyn FlAlgorithm,
        env: &FlEnv,
        version: usize,
        fl: InFlight,
        tracker: &mut SelectionTracker,
        (max_staleness, alpha): (u32, f64),
    ) {
        let staleness = (version - fl.dispatched_version) as u32;
        if staleness > max_staleness {
            self.metrics.stale_discards += 1;
            return;
        }
        // Selection stats track *absorbed* reports only — an update the
        // server discards must not steer future cohorts.
        let r = &fl.report;
        tracker.on_report(r.client_id, r.train_loss, r.local_cost.total());
        self.metrics.staleness_hist[staleness as usize] += 1;
        let weight = alpha.powi(staleness as i32);
        algorithm.absorb_update_stale(env, version, fl.update, staleness, weight);
        self.reports.push(fl.report);
    }

    /// Closes the round and leaves a fresh record with the same histogram
    /// shape. The caller supplies the clock facts because round boundaries
    /// are mode-specific; the cumulative totals carry on from `previous`.
    /// Every mean is computed over `reports` in absorption order, which the
    /// event schedule fixes independently of the thread schedule.
    pub(crate) fn close(
        &mut self,
        round: usize,
        mean_accuracy: Option<f64>,
        round_time: f64,
        round_start_time: f64,
        cumulative_time: f64,
        previous: Option<&RoundMetrics>,
    ) -> RoundMetrics {
        let fresh = Self::new(self.metrics.staleness_hist.len());
        let Self { reports, metrics } = std::mem::replace(self, fresh);
        let absorbed = reports.len().max(1) as f64;
        let mean = |of: fn(&ClientReport) -> f64| reports.iter().map(of).sum::<f64>() / absorbed;
        let carried = |of: fn(&RoundMetrics) -> f64| previous.map_or(0.0, of);
        RoundMetrics {
            round,
            mean_accuracy,
            train_accuracy: mean(|r| r.train_accuracy),
            train_loss: mean(|r| r.train_loss),
            round_time,
            round_start_time,
            cumulative_time,
            cumulative_flops: carried(|p| p.cumulative_flops) + metrics.round_flops,
            cumulative_upload_bytes: carried(|p| p.cumulative_upload_bytes)
                + metrics.round_upload_bytes,
            mean_sparse_ratio: mean(|r| r.sparse_ratio),
            mask_cache_hits: reports.iter().map(|r| r.mask_cache_hits as u64).sum(),
            mask_cache_misses: reports.iter().map(|r| r.mask_cache_misses as u64).sum(),
            mean_selection_utility: mean(|r| r.selection_utility),
            first_time_participants: reports.iter().filter(|r| r.participations == 1).count()
                as u64,
            ..metrics
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(client: usize, loss: f64, participations: u64) -> ClientReport {
        ClientReport {
            train_loss: loss,
            train_accuracy: 0.5,
            flops: 10.0,
            upload_bytes: 4.0,
            selection_utility: loss,
            participations,
            ..ClientReport::idle(client)
        }
    }

    #[test]
    fn finish_averages_over_absorbed_reports() {
        let mut acc = RoundAccumulator::new(0);
        acc.reports.push(report(0, 1.0, 1));
        acc.reports.push(report(1, 3.0, 2));
        acc.metrics.round_flops = 20.0;
        acc.metrics.round_upload_bytes = 8.0;
        let previous = RoundMetrics {
            cumulative_flops: 80.0,
            cumulative_upload_bytes: 32.0,
            ..RoundMetrics::default()
        };
        let m = acc.close(4, Some(0.7), 1.5, 3.0, 4.5, Some(&previous));
        assert_eq!(m.round, 4);
        assert_eq!(m.train_loss, 2.0);
        assert_eq!(m.mean_selection_utility, 2.0);
        assert_eq!(m.first_time_participants, 1);
        assert_eq!(m.round_flops, 20.0);
        assert_eq!(
            (m.cumulative_flops, m.cumulative_upload_bytes),
            (100.0, 40.0)
        );
        assert_eq!(m.cumulative_time, 4.5);
        assert!(m.staleness_hist.is_empty());
    }

    #[test]
    fn empty_round_divides_by_one_not_zero() {
        let mut acc = RoundAccumulator::new(0);
        let m = acc.close(0, None, 1.0, 0.0, 1.0, None);
        assert_eq!(m.train_loss, 0.0);
        assert_eq!(m.mean_selection_utility, 0.0);
        assert_eq!(m.first_time_participants, 0);
        assert_eq!(m.cumulative_flops, 0.0);
    }

    /// `close` hands back the filled record and leaves a fresh one behind.
    #[test]
    fn reset_keeps_the_histogram_shape() {
        let mut acc = RoundAccumulator::new(3);
        acc.metrics.staleness_hist[1] = 5;
        acc.metrics.stale_discards = 2;
        acc.reports.push(report(0, 1.0, 1));
        let m = acc.close(0, None, 1.0, 0.0, 1.0, None);
        assert_eq!((m.staleness_hist, m.stale_discards), (vec![0, 5, 0], 2));
        assert_eq!(acc.metrics.staleness_hist, vec![0, 0, 0]);
        assert_eq!(acc.metrics.stale_discards, 0);
        assert!(acc.reports.is_empty());
    }

    #[test]
    fn cohort_state_machine_buffers_then_drops_after_the_deadline() {
        let mut mode = ModeState::for_round_mode(RoundMode::deadline(2.0, 1), 8, 3, 1.0);
        assert_eq!(mode.hist_len(), 0);
        assert!(!mode.is_async());
        assert_eq!(mode.over_select(), 1);
        assert_eq!(mode.cohort_deadline(), Some(Some(2.0)));
        assert!(mode.async_params().is_none());
        mode.set_dispatched(2);

        let mut acc = RoundAccumulator::new(mode.hist_len());
        let fl = |c: usize| InFlight {
            dispatched_version: 0,
            report: ClientReport::idle(c),
            update: Box::new(()),
        };
        mode.buffer_arrival(&mut acc, 1, fl(1), 1.5);
        // One client outstanding at the budget: the round lasts the budget
        // and the late arrival is a straggler drop.
        mode.deadline_fired(&acc, 2.0);
        mode.buffer_arrival(&mut acc, 0, fl(0), 2.5);
        assert_eq!(acc.metrics.straggler_drops, 1);
        let (arrived, duration) = mode.close_barrier();
        assert_eq!(arrived.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(duration, 2.0);
        // The barrier reset the per-round state.
        let (arrived, duration) = mode.close_barrier();
        assert!(arrived.is_empty());
        assert_eq!(duration, 0.0);
    }

    /// One dispatched client of a flat cohort round: its Eq. 14 latency
    /// and, if its update is lost to an exhausted upload retry, when (both
    /// relative to the round start).
    #[derive(Debug, Clone, Copy)]
    struct Flight {
        client: usize,
        total: f64,
        lost_at: Option<f64>,
    }

    /// The cohort round semantics in closed form — `(survivors ascending,
    /// drops, duration)`. A client survives iff its update is never lost and
    /// lands within the budget (an arrival exactly at the budget survives:
    /// `UploadFinish` ranks before `RoundDeadline`); everyone else is a drop.
    /// The round lasts the full budget as soon as anyone dropped, else until
    /// its last arrival. `budget = None` with no losses is the synchronous
    /// barrier: nothing drops.
    fn cohort_oracle(flights: &[Flight], budget: Option<f64>) -> (Vec<usize>, usize, f64) {
        let survives = |f: &&Flight| f.lost_at.is_none() && budget.map_or(true, |b| f.total <= b);
        let mut survivors: Vec<usize> = flights.iter().filter(survives).map(|f| f.client).collect();
        survivors.sort_unstable();
        let drops = flights.len() - survivors.len();
        let last_arrival = flights
            .iter()
            .filter(survives)
            .fold(0.0f64, |t, f| t.max(f.total));
        let duration = match budget {
            Some(budget) if drops > 0 => budget,
            _ => last_arrival,
        };
        (survivors, drops, duration)
    }

    /// Drives `ModeState` with the events the driver would pop for `flights`
    /// and returns what it decided, in the oracle's shape.
    fn drive_cohort(round_mode: RoundMode, flights: &[Flight]) -> (Vec<usize>, usize, f64) {
        use fedlps_runtime::{Event, EventKind, EventQueue};

        let n = flights.len();
        let mut mode = ModeState::for_round_mode(round_mode, n, n, 1.0);
        mode.set_dispatched(n);
        let mut acc = RoundAccumulator::new(0);
        let mut queue = EventQueue::new();
        for f in flights {
            match f.lost_at {
                Some(at) => queue.push(at, f.client, EventKind::UploadRetry),
                None => queue.push(f.total, f.client, EventKind::UploadFinish),
            };
        }
        if let Some(Some(budget)) = mode.cohort_deadline() {
            queue.push(budget, Event::ROUND_SCOPE, EventKind::RoundDeadline);
        }
        while let Some(event) = queue.pop() {
            match event.kind {
                EventKind::UploadFinish => {
                    let fl = InFlight {
                        dispatched_version: 0,
                        report: ClientReport::idle(event.client),
                        update: Box::new(()),
                    };
                    mode.buffer_arrival(&mut acc, event.client, fl, event.time);
                }
                // The retry budget ran out: the update is permanently lost.
                EventKind::UploadRetry => acc.metrics.upload_failure_drops += 1,
                EventKind::RoundDeadline => mode.deadline_fired(&acc, event.time),
                _ => unreachable!(),
            }
        }
        let (arrived, duration) = mode.close_barrier();
        (
            arrived.keys().copied().collect(),
            (acc.metrics.straggler_drops + acc.metrics.upload_failure_drops) as usize,
            duration,
        )
    }

    /// Randomized latencies on a 0.1 s grid, so arrivals exactly at the
    /// budget occur; `loss` is the per-client probability that the update is
    /// lost part-way through its own latency.
    fn random_flights(rng: &mut rand::rngs::StdRng, loss: f64) -> Vec<Flight> {
        use rand::Rng;
        (0..rng.gen_range(1..6usize))
            .map(|client| {
                let total = rng.gen_range(0..30) as f64 * 0.1 + rng.gen_range(0..10) as f64 * 0.1;
                let lost_at = rng
                    .gen_bool(loss)
                    .then(|| rng.gen_range(0..10) as f64 * 0.099 * total);
                Flight {
                    client,
                    total,
                    lost_at,
                }
            })
            .collect()
    }

    /// `ModeState` is the only implementation of the deadline semantics; this
    /// replays randomized latency scenarios through it and compares
    /// survivors, drop counts and round duration with [`cohort_oracle`].
    #[test]
    fn cohort_state_machine_matches_round_plan_semantics() {
        use rand::Rng;
        let mut rng = fedlps_tensor::rng_from_seed(0xD3AD);
        for case in 0..200 {
            let budget = rng.gen_range(1..40) as f64 * 0.1;
            let flights = random_flights(&mut rng, 0.3);
            assert_eq!(
                drive_cohort(RoundMode::deadline(budget, 0), &flights),
                cohort_oracle(&flights, Some(budget)),
                "case {case}: {flights:?}, budget {budget}"
            );
        }
    }

    /// The synchronous barrier through the same oracle: everyone survives and
    /// the round lasts as long as its slowest client (Eq. 18).
    #[test]
    fn synchronous_cohort_waits_for_its_slowest_client() {
        let mut rng = fedlps_tensor::rng_from_seed(0x5CED);
        for case in 0..200 {
            let flights = random_flights(&mut rng, 0.0);
            let outcome = drive_cohort(RoundMode::Synchronous, &flights);
            assert_eq!(
                outcome,
                cohort_oracle(&flights, None),
                "case {case}: {flights:?}"
            );
            let slowest = flights.iter().map(|f| f.total).fold(0.0, f64::max);
            assert_eq!(outcome, ((0..flights.len()).collect(), 0, slowest));
        }
    }

    #[test]
    fn quorum_closes_the_round_at_the_filling_arrival() {
        let fl = |c: usize| InFlight {
            dispatched_version: 0,
            report: ClientReport::idle(c),
            update: Box::new(()),
        };
        // 4 dispatched at quorum 0.6 → target ceil(2.4) = 3.
        let mut mode = ModeState::for_round_mode(RoundMode::deadline(10.0, 0), 8, 4, 0.6);
        mode.set_dispatched(4);
        let mut acc = RoundAccumulator::new(0);
        assert!(mode.buffer_arrival(&mut acc, 0, fl(0), 1.0));
        assert!(mode.buffer_arrival(&mut acc, 1, fl(1), 2.0));
        assert_eq!(acc.metrics.quorum_closes, 0);
        assert!(mode.buffer_arrival(&mut acc, 2, fl(2), 3.0));
        assert_eq!(acc.metrics.quorum_closes, 1);
        // The fourth client is now a straggler, and the budget firing later
        // must not stretch the round back out to 10.0.
        assert!(!mode.buffer_arrival(&mut acc, 3, fl(3), 4.0));
        assert_eq!(acc.metrics.straggler_drops, 1);
        mode.deadline_fired(&acc, 10.0);
        let (arrived, duration) = mode.close_barrier();
        assert_eq!(arrived.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(duration, 3.0);
    }

    #[test]
    fn quorum_of_one_keeps_the_full_barrier() {
        let fl = |c: usize| InFlight {
            dispatched_version: 0,
            report: ClientReport::idle(c),
            update: Box::new(()),
        };
        let mut mode = ModeState::for_round_mode(RoundMode::Synchronous, 8, 2, 1.0);
        mode.set_dispatched(2);
        let mut acc = RoundAccumulator::new(0);
        assert!(mode.buffer_arrival(&mut acc, 0, fl(0), 1.0));
        assert!(mode.buffer_arrival(&mut acc, 1, fl(1), 5.0));
        assert_eq!(acc.metrics.quorum_closes, 0);
        let (arrived, duration) = mode.close_barrier();
        assert_eq!(arrived.len(), 2);
        assert_eq!(duration, 5.0);
    }

    #[test]
    fn quorum_target_is_at_least_one_and_resets_per_round() {
        let mut mode = ModeState::for_round_mode(RoundMode::deadline(5.0, 0), 8, 1, 0.1);
        mode.set_dispatched(1);
        let mut acc = RoundAccumulator::new(0);
        let fl = InFlight {
            dispatched_version: 0,
            report: ClientReport::idle(0),
            update: Box::new(()),
        };
        assert!(mode.buffer_arrival(&mut acc, 0, fl, 0.5));
        assert_eq!(acc.metrics.quorum_closes, 1);
        let (_, duration) = mode.close_barrier();
        assert_eq!(duration, 0.5);
        // The next round starts with a fresh quorum state.
        mode.set_dispatched(1);
        let fl = InFlight {
            dispatched_version: 0,
            report: ClientReport::idle(3),
            update: Box::new(()),
        };
        assert!(mode.buffer_arrival(&mut acc, 3, fl, 0.25));
        assert_eq!(acc.metrics.quorum_closes, 2);
    }

    #[test]
    fn async_state_machine_tracks_round_starts() {
        let mut mode = ModeState::for_round_mode(RoundMode::asynchronous(2, 0.5), 8, 3, 1.0);
        assert!(mode.is_async());
        assert_eq!(mode.hist_len(), 3);
        assert_eq!(mode.async_params(), Some((2, 0.5, 3)));
        assert!(mode.cohort_deadline().is_none());
        assert_eq!(mode.bump_round_start(1.25), 0.0);
        assert_eq!(mode.bump_round_start(2.5), 1.25);
    }
}
