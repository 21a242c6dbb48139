//! The mode-agnostic, event-driven round driver.
//!
//! One loop drives all three [`RoundMode`]s. Each iteration pops the next
//! scheduler event and hands it to the layer that owns it:
//!
//! * **selection** ([`fedlps_select`]) decides who enters the pipeline — the
//!   base cohort at a round boundary, extra clients under deadline
//!   over-selection, one replacement per freed async slot;
//! * **execution** ([`crate::backend`]) runs the pure client steps of every
//!   dispatch batch, inline or on `effective_parallelism()` scoped threads,
//!   in event order;
//! * **absorption** ([`crate::absorb`]) books the outcomes into one
//!   per-round record and is the only layer that hands updates to the
//!   algorithm: cohort modes buffer arrivals and absorb them at the barrier
//!   in ascending client-id order, async mode absorbs immediately with an
//!   `alpha^staleness` discount; deadline drops and staleness discards are
//!   event-handler cases of the shared [`ModeState`] machine, not separate
//!   loops;
//! * **topology** ([`crate::topology`]) overlays the physical aggregation
//!   path: flat is a pass-through, the two-tier zone tier adds zone-deadline
//!   drops (more event-handler cases), combined zone → server forwards and
//!   the async store-and-forward hop — timing, traffic and drops only, never
//!   the absorbed arithmetic.
//!
//! Cohort rounds run on a round-relative timeline — the queue drains
//! completely before the next round opens, and a round lasts its budget if
//! anyone was dropped or is still missing, else until its last arrival
//! (pinned against a closed form in [`crate::absorb`]'s tests) — while the
//! async pipeline runs on the continuous virtual clock. Because every
//! event time is derived from the same arithmetic in the same order, and
//! every RNG stream is keyed by configuration rather than thread schedule,
//! all {mode × policy × parallelism} combinations yield bit-identical
//! traces.

use std::collections::{BTreeMap, BTreeSet};

use fedlps_faults::FaultInjector;
use fedlps_runtime::{Event, EventKind, EventQueue, VirtualClock};
use fedlps_select::{ClientPool, SelectionPolicy, SelectionTracker};
use fedlps_tensor::{rng_from_seed, split_seed};
use rand::rngs::StdRng;

use crate::absorb::{InFlight, ModeState, RoundAccumulator};
use crate::algorithm::FlAlgorithm;
use crate::backend::{par_map, parallel_mean_accuracy};
use crate::env::FlEnv;
use crate::metrics::{RoundMetrics, RunResult};
use crate::topology::TopologyState;

/// RNG stream of the selection layer (cohorts, over-selection, refills).
const STREAM_SELECTION: u64 = 0x5E1E;
/// RNG stream family of `begin_round` (xor'd with the shifted round index).
const STREAM_ROUND: u64 = 0xB172;
/// Stream family of cohort client steps (keyed by round and client).
const STREAM_COHORT_STEP: u64 = 0xC11E;
/// Stream family of async client steps (keyed by dispatch sequence).
const STREAM_ASYNC_STEP: u64 = 0xA57C;

/// An in-flight client whose last upload attempt failed on the wire: what the
/// retry handler needs to replay the transmission.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// The scheduling tick the dispatch was keyed by (round index in the
    /// cohort modes, dispatch sequence in async) — retry fates draw from the
    /// same `(client, tick, attempt)` stream family as the initial attempt.
    tick: u64,
    /// Failed attempts so far (≥ 1 while a retry is pending).
    failures: u32,
    /// Wire cost of one retransmission: the upload leg plus the async
    /// store-and-forward hop, *excluding* compute and availability waits.
    resend_seconds: f64,
}

/// Drives one full federated run; built fresh per
/// [`Simulator::run`](crate::runner::Simulator::run) call.
pub(crate) struct Driver<'a> {
    env: &'a FlEnv,
    /// Threads each dispatch batch's client steps spread over
    /// (`effective_parallelism()`; 1 = inline on the driver thread).
    threads: usize,
    policy: Box<dyn SelectionPolicy>,
    tracker: SelectionTracker,
    selection_rng: StdRng,
    queue: EventQueue,
    clock: VirtualClock,
    in_flight: BTreeMap<usize, InFlight>,
    pending: BTreeSet<usize>,
    acc: RoundAccumulator,
    rounds: Vec<RoundMetrics>,
    /// Current round (cohort) / server version (async).
    version: usize,
    cumulative_time: f64,
    dispatch_seq: u64,
    mode: ModeState,
    topo: TopologyState,
    injector: FaultInjector,
    /// Clients with a pending `UploadRetry` event, keyed by client id.
    retry: BTreeMap<usize, RetryState>,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(env: &'a FlEnv) -> Self {
        let mode = ModeState::for_round_mode(
            env.config.round_mode,
            env.num_clients(),
            env.config.clients_per_round,
            env.config.quorum,
        );
        // A lazy fleet means a population-scale registry: per-client state
        // must stay O(participants), so the tracker computes its latency
        // prior per id instead of pre-building an O(population) vector.
        let tracker = if env.fleet.is_lazy() {
            SelectionTracker::lazy(env.num_clients(), env.latency_prior(), env.latency_floor())
        } else {
            SelectionTracker::new(env.expected_latencies())
        };
        Self {
            threads: env.config.effective_parallelism(),
            policy: env.config.selection.build(),
            tracker,
            selection_rng: rng_from_seed(split_seed(env.config.seed, STREAM_SELECTION)),
            queue: EventQueue::new(),
            clock: VirtualClock::new(),
            in_flight: BTreeMap::new(),
            pending: BTreeSet::new(),
            acc: RoundAccumulator::new(mode.hist_len()),
            rounds: Vec::with_capacity(env.config.rounds),
            version: 0,
            cumulative_time: 0.0,
            dispatch_seq: 0,
            mode,
            topo: TopologyState::new(env),
            injector: FaultInjector::new(env.config.seed, env.config.faults),
            retry: BTreeMap::new(),
            env,
        }
    }

    /// Runs the federation to completion.
    pub(crate) fn run(mut self, algorithm: &mut dyn FlAlgorithm) -> RunResult {
        algorithm.setup(self.env);
        let total = self.env.config.rounds;
        self.open_round(algorithm);

        // The one driver loop: every mode advances exclusively through here.
        while self.version < total {
            match self.queue.pop() {
                Some(event) => self.handle_event(algorithm, event),
                // The scheduler ran dry: a cohort round is fully resolved
                // (close the barrier, open the next round), or the async
                // pipeline starved (an empty federation) — return what we
                // have rather than spinning forever.
                None if !self.mode.is_async() => {
                    self.close_cohort_round(algorithm);
                    if self.version < total {
                        self.open_round(algorithm);
                    }
                }
                None => break,
            }
        }

        // The dense per-client census is an O(population) vector; a
        // population-scale run reports no census rather than materializing
        // one entry per registered client.
        let participations = if self.env.fleet.is_lazy() {
            Vec::new()
        } else {
            self.tracker.participations()
        };
        RunResult::from_rounds(algorithm.name(), self.env.data.name.clone(), self.rounds)
            .with_client_participations(participations)
    }

    fn handle_event(&mut self, algorithm: &mut dyn FlAlgorithm, event: Event) {
        if self.mode.is_async() {
            self.clock.advance_to(event.time);
        }
        match event.kind {
            EventKind::Dispatch => self.on_dispatch(algorithm, event),
            EventKind::UploadFinish => self.on_upload(algorithm, event),
            EventKind::UploadRetry => self.on_upload_retry(event),
            EventKind::Offline => self.on_offline(event),
            // A zone aggregator's budget expired: the event carries the zone
            // id, and later arrivals of that zone drop at the zone tier.
            EventKind::ZoneDeadline => self.topo.zone_deadline_fired(event.client),
            EventKind::RoundDeadline => self.mode.deadline_fired(&self.acc, event.time),
        }
    }

    /// Selection layer: forms the round's cohort (plus deadline
    /// over-selection) and schedules its dispatches. Round 0 of the async
    /// pipeline uses the same path — its initial in-flight set *is* a cohort.
    fn open_round(&mut self, algorithm: &mut dyn FlAlgorithm) {
        let env = self.env;
        let round = self.version;
        let mut selected = match algorithm.select_clients(env, round, &mut self.selection_rng) {
            Some(cohort) => cohort,
            None => self.policy.select_cohort(
                &self.tracker,
                round,
                env.config.clients_per_round,
                &mut self.selection_rng,
            ),
        };
        assert!(
            !selected.is_empty(),
            "a round must select at least one client"
        );
        let extra = self.policy.select_extra(
            &self.tracker,
            round,
            &selected,
            self.mode.over_select(),
            &mut self.selection_rng,
        );
        selected.extend(extra);

        // Round-level mutable preparation (shared-mask refreshes etc.); its
        // RNG stream depends only on (seed, round).
        let mut round_rng = rng_from_seed(split_seed(
            env.config.seed,
            STREAM_ROUND ^ (round as u64) << 1,
        ));
        algorithm.begin_round(env, round, &selected, &mut round_rng);

        // Count the cohort *after* dedup, so a custom `select_clients`
        // returning a repeated id cannot convince the deadline rule that a
        // phantom client is still outstanding.
        let mut dispatched = Vec::new();
        for client in selected {
            if self.pending.insert(client) {
                self.queue.push(0.0, client, EventKind::Dispatch);
                dispatched.push(client);
            }
        }
        self.mode.set_dispatched(dispatched.len());
        if let Some(Some(budget)) = self.mode.cohort_deadline() {
            self.queue
                .push(budget, Event::ROUND_SCOPE, EventKind::RoundDeadline);
        }
        // The zone tier opens its round over the same cohort. Cohort modes
        // only: the async pipeline has no round-relative timeline to anchor
        // zone deadlines to (its zone tier is a store-and-forward hop).
        if !self.mode.is_async() {
            for (zone, deadline) in self.topo.open_cohort_round(&dispatched) {
                self.queue.push(deadline, zone, EventKind::ZoneDeadline);
            }
        }
    }

    /// Execution layer: coalesces every dispatch scheduled for this exact
    /// instant into one batch (they all see the same server state, so
    /// batching is semantics-free), steps it on `self.threads` threads and
    /// schedules each outcome's arrival — or its mid-round disconnect.
    fn on_dispatch(&mut self, algorithm: &mut dyn FlAlgorithm, event: Event) {
        let env = self.env;
        let round = self.version;
        let cohort = !self.mode.is_async();
        // Synchronous servers wait churn out (legacy Eq. 18), so only
        // deadline rounds and the async pipeline consult the churn model.
        let churns = self.mode.cohort_deadline() != Some(None);
        // A dispatch's scheduling tick keys its step stream, its churn draw
        // and its upload-fault draws: the round in the cohort modes, the
        // dispatch sequence in async.
        let tick = |seq: u64| if cohort { round as u64 } else { seq };

        let mut batch = vec![(event.client, tick(self.dispatch_seq))];
        self.dispatch_seq += 1;
        while self
            .queue
            .peek()
            .is_some_and(|e| e.kind == EventKind::Dispatch && e.time == event.time)
        {
            let next = self.queue.pop().expect("peeked event exists");
            batch.push((next.client, tick(self.dispatch_seq)));
            self.dispatch_seq += 1;
        }
        // Each task owns an RNG stream keyed by the configuration (cohort:
        // round and client; async: dispatch sequence and client), so neither
        // the thread schedule nor the thread count can leak into the results.
        let outcomes = par_map(self.threads, batch.clone(), |(c, tick)| {
            let stream = if cohort {
                STREAM_COHORT_STEP ^ ((c as u64) << 24) ^ tick
            } else {
                STREAM_ASYNC_STEP ^ (tick << 20) ^ c as u64
            };
            let mut rng = rng_from_seed(split_seed(env.config.seed, stream));
            algorithm.client_step(env, round, c, &mut rng)
        });

        for ((client, tick), mut outcome) in batch.into_iter().zip(outcomes) {
            debug_assert_eq!(client, outcome.report.client_id);
            self.pending.remove(&client);
            self.tracker.on_dispatch(client, round);
            outcome.report.selection_utility = self.tracker.utility(client);
            outcome.report.participations = self.tracker.stats(client).participations;

            let total = outcome.report.local_cost.total();
            // Dropped work still costs: cohort FLOPs are booked at dispatch,
            // in ascending client order (the batch order); async FLOPs when
            // the update lands or is lost.
            if cohort {
                self.acc.metrics.round_flops += outcome.report.flops;
            }
            match churns
                .then(|| env.fleet.offline_churn(client, tick))
                .flatten()
            {
                Some(frac) => {
                    self.queue
                        .push(event.time + frac * total, client, EventKind::Offline)
                }
                None => {
                    // Async uploads traverse the zone tier store-and-forward:
                    // the zone → server leg re-prices the payload over the
                    // zone uplink. Cohort zones buffer instead — their cost
                    // is the combined forward at the barrier.
                    let hop = if cohort {
                        0.0
                    } else {
                        self.topo.async_zone_hop(outcome.report.upload_bytes)
                    };
                    // A retransmission replays only the wire legs — capture
                    // their cost before availability waits land in the report.
                    let resend_seconds = outcome.report.local_cost.comm_seconds + hop;
                    // Correlated availability: a device inside an outage
                    // window waits it out before starting. Unlike i.i.d.
                    // churn this binds in *every* mode — a synchronous server
                    // waits the outage out (the quorum knob exists to bound
                    // exactly that) — and the wait is billed as latency so
                    // selection policies can learn to route around it.
                    // Cohort rounds run on a round-relative timeline; the
                    // model is sampled on the absolute virtual clock.
                    let abs_time = if cohort {
                        self.cumulative_time + event.time
                    } else {
                        event.time
                    };
                    let wait = env
                        .config
                        .availability
                        .offline_until(env.config.seed, client, abs_time)
                        .map_or(0.0, |until| until - abs_time);
                    if wait > 0.0 {
                        self.acc.metrics.unavailable_dispatches += 1;
                        self.acc.metrics.unavailable_wait_seconds += wait;
                        outcome.report.local_cost.comm_seconds += wait;
                    }
                    let arrival = event.time + wait + total + hop;
                    if self.injector.upload_attempt_fails(client, tick, 0) {
                        self.retry.insert(
                            client,
                            RetryState {
                                tick,
                                failures: 1,
                                resend_seconds,
                            },
                        );
                        self.queue.push(arrival, client, EventKind::UploadRetry)
                    } else {
                        self.queue.push(arrival, client, EventKind::UploadFinish)
                    }
                }
            };
            let evicted = self.in_flight.insert(
                client,
                InFlight {
                    dispatched_version: round,
                    report: outcome.report,
                    update: outcome.update,
                },
            );
            debug_assert!(evicted.is_none(), "client dispatched while in flight");
        }
    }

    /// Absorption layer, arrival case. Cohort modes buffer the update for the
    /// barrier (or count a straggler once the deadline fired); async mode
    /// absorbs immediately with the staleness discount and refills the slot.
    fn on_upload(&mut self, algorithm: &mut dyn FlAlgorithm, event: Event) {
        // A landed upload ends any retry bookkeeping for the client.
        self.retry.remove(&event.client);
        let fl = self
            .in_flight
            .remove(&event.client)
            .expect("arrival without a matching dispatch");
        let Some((max_staleness, alpha, buffer_target)) = self.mode.async_params() else {
            // An upload landing after its zone's deadline fired drops at the
            // zone aggregator — the server barrier never sees it.
            if self.topo.zone_dropped(event.client) {
                self.acc.metrics.zone_straggler_drops += 1;
                self.topo.on_resolved(event.client);
                return;
            }
            if self
                .mode
                .buffer_arrival(&mut self.acc, event.client, fl, event.time)
            {
                self.topo.on_survivor(event.client, event.time);
            } else {
                self.topo.on_resolved(event.client);
            }
            return;
        };

        let m = &mut self.acc.metrics;
        m.round_flops += fl.report.flops;
        m.round_upload_bytes += fl.report.upload_bytes;
        m.zone_upload_bytes += self.topo.async_forward_bytes(fl.report.upload_bytes);
        self.acc.absorb_async(
            algorithm,
            self.env,
            self.version,
            fl,
            &mut self.tracker,
            (max_staleness, alpha),
        );
        // Refill the freed slot immediately.
        self.refill(event.time);

        if self.acc.reports.len() >= buffer_target {
            self.close_async_round(algorithm, event.time);
        }
    }

    /// Fault layer: the client's last upload attempt failed in transit. The
    /// event fires at the instant the update *would* have landed; the client
    /// either backs off and retransmits, or — once the retry budget is
    /// exhausted — drops permanently.
    fn on_upload_retry(&mut self, event: Event) {
        let state = *self
            .retry
            .get(&event.client)
            .expect("retry event without retry state");
        let fl = self
            .in_flight
            .get_mut(&event.client)
            .expect("retry event without a matching dispatch");
        // The failed attempt still burned its airtime: the bytes crossed the
        // uplink even though the server never saw a usable update.
        self.acc.metrics.round_upload_bytes += fl.report.upload_bytes;
        if state.failures > self.injector.config().max_retries {
            // Retry budget exhausted: the update is permanently lost. Like
            // churn, spent FLOPs still count against the federation.
            let fl = self
                .in_flight
                .remove(&event.client)
                .expect("checked in flight above");
            self.retry.remove(&event.client);
            self.acc.metrics.upload_failure_drops += 1;
            if self.mode.is_async() {
                self.acc.metrics.round_flops += fl.report.flops;
                self.refill(event.time);
            } else {
                // The client's zone stops waiting for it.
                self.topo.on_resolved(event.client);
            }
            return;
        }
        // Exponential backoff, then replay the wire legs. The extra latency
        // lands in the report so the selection tracker observes it.
        let delay = self.injector.backoff_delay(state.failures);
        let arrival = event.time + delay + state.resend_seconds;
        fl.report.local_cost.comm_seconds += delay + state.resend_seconds;
        self.acc.metrics.retry_attempts += 1;
        if self
            .injector
            .upload_attempt_fails(event.client, state.tick, state.failures)
        {
            self.retry
                .get_mut(&event.client)
                .expect("retry state present")
                .failures += 1;
            self.queue
                .push(arrival, event.client, EventKind::UploadRetry);
        } else {
            self.queue
                .push(arrival, event.client, EventKind::UploadFinish);
        }
    }

    /// Absorption layer, disconnect case: the device died mid-round. Its work
    /// is spent, its update is lost; async slots refill now.
    fn on_offline(&mut self, event: Event) {
        let fl = self
            .in_flight
            .remove(&event.client)
            .expect("offline event without a matching dispatch");
        // Pre-deadline churn and post-deadline stragglers both count as
        // drops (the server cannot tell them apart); `churn_drops` keeps the
        // cause attribution for the drop histogram.
        self.acc.metrics.straggler_drops += 1;
        self.acc.metrics.churn_drops += 1;
        if self.mode.is_async() {
            self.acc.metrics.round_flops += fl.report.flops;
            self.refill(event.time);
        } else {
            // The client's zone stops waiting for it.
            self.topo.on_resolved(event.client);
        }
    }

    /// Selection layer, async refill: one idle client (neither in flight nor
    /// holding an unprocessed dispatch) chosen by the policy.
    fn refill(&mut self, now: f64) {
        // The idle pool is the population minus the busy set — O(in-flight)
        // memory, never a population scan.
        let idle = ClientPool::excluding(
            self.env.num_clients(),
            self.in_flight
                .keys()
                .copied()
                .chain(self.pending.iter().copied()),
        );
        if let Some(next) =
            self.policy
                .select_refill(&self.tracker, self.version, &idle, &mut self.selection_rng)
        {
            self.pending.insert(next);
            self.queue.push(now, next, EventKind::Dispatch);
        }
    }

    /// Cohort barrier: absorb the survivors in ascending client-id order
    /// (fixed by the event schedule, never the thread schedule), aggregate,
    /// close the metrics round.
    fn close_cohort_round(&mut self, algorithm: &mut dyn FlAlgorithm) {
        let env = self.env;
        let round = self.version;
        let (arrived, duration) = self.mode.close_barrier();
        self.acc
            .absorb_arrivals(algorithm, env, round, arrived, &mut self.tracker);
        algorithm.aggregate(env, round, &self.acc.reports);

        // Cost accounting: the round duration *is* Eq. (18) in synchronous
        // mode and min(budget, last arrival) under a deadline; an active
        // zone tier extends it by the latest combined zone → server forward.
        let duration = self
            .topo
            .close_cohort_round(duration, &mut self.acc.metrics);
        let round_start_time = self.cumulative_time;
        self.cumulative_time += duration;
        self.close_round(
            algorithm,
            round,
            duration,
            round_start_time,
            self.cumulative_time,
        );
    }

    /// Async aggregation boundary: every `buffer_target` absorbed updates the
    /// server aggregates, bumps its version, emits one metrics round and
    /// re-fires `begin_round` so round-level server state keeps evolving.
    fn close_async_round(&mut self, algorithm: &mut dyn FlAlgorithm, now: f64) {
        let env = self.env;
        let version = self.version;
        algorithm.aggregate(env, version, &self.acc.reports);
        let round_start = self.mode.bump_round_start(now);
        self.close_round(algorithm, version, now - round_start, round_start, now);

        // Round-level server-side preparation for the next version (CS mask
        // refreshes, PruneFL re-pruning, …): same hook cadence and RNG
        // stream keying as the cohort path. No cohort exists at an async
        // version boundary, so the selected slice is empty; in-flight
        // clients keep the state they were dispatched against, which is
        // exactly what the staleness discount accounts for.
        if self.version < env.config.rounds {
            let mut round_rng = rng_from_seed(split_seed(
                env.config.seed,
                STREAM_ROUND ^ (self.version as u64) << 1,
            ));
            algorithm.begin_round(env, self.version, &[], &mut round_rng);
        }
    }

    /// Shared round close: periodic whole-federation evaluation, one
    /// [`RoundMetrics`] entry, version bump.
    fn close_round(
        &mut self,
        algorithm: &mut dyn FlAlgorithm,
        round: usize,
        round_time: f64,
        round_start_time: f64,
        cumulative_time: f64,
    ) {
        // `eval_every == 0` disables whole-federation evaluation entirely —
        // at population scale it is an O(population × eval) sweep.
        let eval_every = self.env.config.eval_every;
        let evaluate_now =
            eval_every != 0 && (round % eval_every == 0 || round + 1 == self.env.config.rounds);
        let mean_accuracy = evaluate_now.then(|| parallel_mean_accuracy(self.env, algorithm));
        let metrics = self.acc.close(
            round,
            mean_accuracy,
            round_time,
            round_start_time,
            cumulative_time,
            self.rounds.last(),
        );
        self.rounds.push(metrics);
        self.version += 1;
    }
}
