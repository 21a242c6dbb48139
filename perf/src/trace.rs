//! Layer tracing at the `FlAlgorithm` trait seam, from the benchmark's own
//! files: [`Traced`] wraps an algorithm and records one span per call the
//! driver makes into it, under a root `sim.run` span the harness opens
//! around `Simulator::run`. Spans stay in memory until the workload ends.
//!
//! Client steps and evaluations run on parallel threads, so a layer has two
//! times: **busy** (sum of span durations) and **wall** (union of their
//! intervals). A span's self time is its duration minus the union of its
//! children.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fedlps_nn::model::EvalStats;
use fedlps_sim::algorithm::{ClientOutcome, ClientReport, ClientUpdate, FlAlgorithm};
use fedlps_sim::env::FlEnv;
use rand::rngs::StdRng;
use serde::Value;

use crate::clock::now_ns;
use crate::json;

pub const ROOT: &str = "sim.run";
pub const SETUP: &str = "core.setup";
pub const SELECT: &str = "core.select_clients";
pub const BEGIN_ROUND: &str = "core.begin_round";
pub const CLIENT_STEP: &str = "core.client_step";
pub const ABSORB: &str = "core.absorb_update";
pub const ABSORB_STALE: &str = "core.absorb_update_stale";
pub const AGGREGATE: &str = "core.aggregate";
pub const EVALUATE: &str = "core.evaluate_client";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Shared by every span of one `Simulator::run`.
    pub run_id: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Value {
        json::obj(vec![
            ("id", json::uint(self.id)),
            ("parent", json::uint(self.parent)),
            ("run_id", json::uint(self.run_id)),
            ("name", json::str(self.name)),
            ("thread", json::uint(self.thread)),
            ("start_ns", json::uint(self.start_ns)),
            ("end_ns", json::uint(self.end_ns)),
        ])
    }
}

/// A small dense id for the calling thread (the rayon shim spawns fresh
/// scoped threads per `collect`, so ids keep growing over a run).
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// The in-memory span sink shared by the harness and the decorator.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Times `f` and records it as span `id`.
    fn record<R>(
        &self,
        id: u64,
        parent: u64,
        run_id: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        self.lock().push(Span {
            id,
            parent,
            run_id,
            name,
            thread: thread_id(),
            start_ns,
            end_ns,
        });
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a push cannot panic, so the lock is never poisoned")
    }

    /// Runs `f` under a root `sim.run` span, handing it `inner` decorated so
    /// that every seam call becomes a child of that root. Returns `f`'s
    /// output and the undecorated algorithm.
    pub fn run<A: FlAlgorithm, R>(
        &self,
        run_id: u64,
        inner: A,
        f: impl FnOnce(&mut Traced<'_, A>) -> R,
    ) -> (R, A) {
        let root = self.next_id();
        let mut traced = Traced {
            inner,
            ctx: Ctx {
                tracer: self,
                root,
                run_id,
            },
        };
        let out = self.record(root, 0, run_id, ROOT, || f(&mut traced));
        (out, traced.inner)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Where a decorator's spans go and what they hang under. `Copy`, so the
/// `&mut self` seam methods can take it out before lending `inner` mutably.
#[derive(Clone, Copy)]
struct Ctx<'t> {
    tracer: &'t Tracer,
    root: u64,
    run_id: u64,
}

impl Ctx<'_> {
    fn span<R>(self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.next_id();
        self.tracer.record(id, self.root, self.run_id, name, f)
    }
}

/// Decorates an algorithm with one span per trait-seam call.
pub struct Traced<'t, A> {
    inner: A,
    ctx: Ctx<'t>,
}

impl<A: FlAlgorithm> FlAlgorithm for Traced<'_, A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, env: &FlEnv) {
        let ctx = self.ctx;
        ctx.span(SETUP, || self.inner.setup(env))
    }

    fn select_clients(
        &mut self,
        env: &FlEnv,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<usize>> {
        let ctx = self.ctx;
        ctx.span(SELECT, || self.inner.select_clients(env, round, rng))
    }

    fn begin_round(&mut self, env: &FlEnv, round: usize, selected: &[usize], rng: &mut StdRng) {
        let ctx = self.ctx;
        ctx.span(BEGIN_ROUND, || {
            self.inner.begin_round(env, round, selected, rng)
        })
    }

    fn client_step(
        &self,
        env: &FlEnv,
        round: usize,
        client: usize,
        rng: &mut StdRng,
    ) -> ClientOutcome {
        self.ctx.span(CLIENT_STEP, || {
            self.inner.client_step(env, round, client, rng)
        })
    }

    fn absorb_update(&mut self, env: &FlEnv, round: usize, update: ClientUpdate) {
        let ctx = self.ctx;
        ctx.span(ABSORB, || self.inner.absorb_update(env, round, update))
    }

    fn absorb_update_stale(
        &mut self,
        env: &FlEnv,
        round: usize,
        update: ClientUpdate,
        staleness: u32,
        weight: f64,
    ) {
        let ctx = self.ctx;
        ctx.span(ABSORB_STALE, || {
            self.inner
                .absorb_update_stale(env, round, update, staleness, weight)
        })
    }

    fn aggregate(&mut self, env: &FlEnv, round: usize, reports: &[ClientReport]) {
        let ctx = self.ctx;
        ctx.span(AGGREGATE, || self.inner.aggregate(env, round, reports))
    }

    fn evaluate_client(&self, env: &FlEnv, client: usize) -> EvalStats {
        self.ctx
            .span(EVALUATE, || self.inner.evaluate_client(env, client))
    }
}

pub fn spans_json(spans: &[Span]) -> Value {
    Value::Arr(spans.iter().map(Span::to_json).collect())
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                open = Some((start, end));
            }
            None => open = Some((start, end)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// What one layer (all spans of one name) did during one run.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub count: usize,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Union of span intervals: never more than `busy_ns`, and less exactly
    /// when spans overlapped on parallel threads.
    pub wall_ns: u64,
    pub durations_ns: Vec<f64>,
}

/// The spans of one `run_id`, split by layer.
#[derive(Debug)]
pub struct RunTrace<'a> {
    root: &'a Span,
    children: Vec<&'a Span>,
}

impl<'a> RunTrace<'a> {
    /// `None` when the run recorded no root span (it panicked).
    pub fn of(spans: &'a [Span], run_id: u64) -> Option<Self> {
        let root = spans.iter().find(|s| s.run_id == run_id && s.parent == 0)?;
        let children = spans.iter().filter(|s| s.parent == root.id).collect();
        Some(Self { root, children })
    }

    pub fn root_ns(&self) -> u64 {
        self.root.duration_ns()
    }

    pub fn layer(&self, names: &[&str]) -> Layer {
        let spans: Vec<&&Span> = self
            .children
            .iter()
            .filter(|s| names.contains(&s.name))
            .collect();
        Layer {
            count: spans.len(),
            busy_ns: spans.iter().map(|s| s.duration_ns()).sum(),
            wall_ns: union_ns(spans.iter().map(|s| (s.start_ns, s.end_ns)).collect()),
            durations_ns: spans.iter().map(|s| s.duration_ns() as f64).collect(),
        }
    }

    /// The root's self time: its duration minus the union of every seam
    /// span, i.e. what the driver itself spent (selection policy, event
    /// queue, dispatch, absorb bookkeeping, topology, faults).
    pub fn root_self_ns(&self) -> u64 {
        let covered = union_ns(
            self.children
                .iter()
                .map(|s| {
                    (
                        s.start_ns.max(self.root.start_ns),
                        s.end_ns.min(self.root.end_ns),
                    )
                })
                .collect(),
        );
        self.root_ns().saturating_sub(covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, thread: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run_id: 1,
            name,
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlapping_and_touching_intervals() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (20, 30)]), 20);
        assert_eq!(union_ns(vec![(20, 30), (0, 10), (5, 25)]), 30);
        assert_eq!(union_ns(vec![(0, 10), (10, 15)]), 15);
        assert_eq!(union_ns(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn parallel_spans_are_busier_than_their_wall() {
        // Two threads step clients at the same time; a third step follows.
        let spans = vec![
            span(1, 0, ROOT, 1, 0, 1_000),
            span(2, 1, CLIENT_STEP, 2, 100, 500),
            span(3, 1, CLIENT_STEP, 3, 150, 600),
            span(4, 1, CLIENT_STEP, 2, 700, 800),
            span(5, 1, AGGREGATE, 1, 850, 900),
        ];
        let run = RunTrace::of(&spans, 1).unwrap();
        let steps = run.layer(&[CLIENT_STEP]);
        assert_eq!(steps.count, 3);
        assert_eq!(steps.busy_ns, 400 + 450 + 100);
        assert_eq!(steps.wall_ns, 500 + 100);
        assert!(steps.busy_ns > steps.wall_ns);
        // Self time subtracts the union, not the sum, of the children.
        assert_eq!(run.root_self_ns(), 1_000 - (500 + 100 + 50));
    }

    #[test]
    fn self_time_is_never_negative() {
        // Children that (through clock granularity) spill past the root, and
        // whose durations sum to far more than it.
        let spans = vec![
            span(1, 0, ROOT, 1, 100, 200),
            span(2, 1, EVALUATE, 2, 90, 210),
            span(3, 1, EVALUATE, 3, 100, 200),
            span(4, 1, EVALUATE, 4, 120, 260),
        ];
        let run = RunTrace::of(&spans, 1).unwrap();
        assert_eq!(run.layer(&[EVALUATE]).busy_ns, 120 + 100 + 140);
        assert_eq!(run.root_self_ns(), 0);
    }

    #[test]
    fn runs_are_separated_by_run_id() {
        let mut other = span(7, 0, ROOT, 1, 0, 50);
        other.run_id = 2;
        let spans = vec![
            span(1, 0, ROOT, 1, 0, 100),
            span(2, 1, SETUP, 1, 0, 40),
            other,
        ];
        assert_eq!(RunTrace::of(&spans, 1).unwrap().layer(&[SETUP]).count, 1);
        assert_eq!(RunTrace::of(&spans, 2).unwrap().layer(&[SETUP]).count, 0);
        assert!(RunTrace::of(&spans, 3).is_none());
    }

    #[test]
    fn tracer_records_spans_under_the_root() {
        use crate::workloads::Workload;
        let sim = Workload::SparseWideR025.build(3);
        let tracer = Tracer::default();
        let inner = Workload::SparseWideR025.algorithm(sim.env());
        let (result, algo) = tracer.run(9, inner, |traced| sim.run(traced));
        assert_eq!(result.rounds.len(), sim.env().config.rounds);
        assert!(algo.materialized_clients() > 0);
        let spans = tracer.spans();
        let run = RunTrace::of(&spans, 9).unwrap();
        assert_eq!(run.layer(&[SETUP]).count, 1);
        assert_eq!(run.layer(&[CLIENT_STEP]).count, 16 * 8);
        assert_eq!(run.layer(&[ABSORB]).count, 16 * 8);
        assert_eq!(run.layer(&[AGGREGATE]).count, 16);
        // eval_every 16 of 16 rounds: a sweep of all 32 clients after round 0
        // and after the last round.
        assert_eq!(run.layer(&[EVALUATE]).count, 2 * 32);
        assert!(run.root_self_ns() < run.root_ns());
    }
}
