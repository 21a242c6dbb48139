//! The [`SelectionPolicy`] trait and the three shipped policies.
//!
//! The driver consults the active policy at three points — cohort formation,
//! deadline over-selection, async slot refills — all on one deterministic
//! selection RNG stream. Policies never scan the registered population:
//! candidates arrive as a [`ClientPool`] (ascending ids minus a small
//! exclusion set, `O(|excluded|)` memory) and already-observed clients come
//! from the tracker's sparse [`explored_ids`](SelectionTracker::explored_ids)
//! set, so each decision costs `O(cohort + participants)` work regardless of
//! whether the federation registers sixty-four clients or a million.
//!
//! Sublinearity does not change a single draw: pools enumerate the same ids
//! in the same ascending order as the dense candidate vectors they replaced,
//! and every RNG consumption is positional, so selections are bit-identical
//! to the historical full-scan implementations (pinned by this crate's
//! `dense_reference` regression tests).
//!
//! ```
//! use fedlps_select::{ClientPool, SelectionKind, SelectionTracker};
//! use fedlps_tensor::rng_from_seed;
//!
//! let tracker = SelectionTracker::new(vec![1.0, 2.0, 3.0, 4.0]);
//! let mut policy = SelectionKind::Uniform.build();
//! let mut rng = rng_from_seed(7);
//!
//! let cohort = policy.select_cohort(&tracker, 0, 2, &mut rng);
//! assert_eq!(cohort.len(), 2);
//!
//! // Refill candidates: everyone not currently busy.
//! let idle = ClientPool::excluding(tracker.num_clients(), cohort.iter().copied());
//! let refill = policy.select_refill(&tracker, 0, &idle, &mut rng);
//! assert!(refill.is_some_and(|k| !cohort.contains(&k)));
//! ```

use fedlps_tensor::rng::sample_without_replacement;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

use crate::pool::ClientPool;
use crate::stats::SelectionTracker;

/// How the server picks participating clients.
///
/// The driver consults the policy at three points, all on the single
/// deterministic selection RNG stream:
///
/// * [`select_cohort`](Self::select_cohort) — the base cohort of a round (and
///   the initial in-flight set of the async pipeline);
/// * [`select_extra`](Self::select_extra) — deadline-mode over-selection on
///   top of an already-formed cohort;
/// * [`select_refill`](Self::select_refill) — one replacement client for a
///   slot freed by an async arrival or an offline drop.
///
/// Implementations must be pure functions of `(tracker, arguments, rng)`: no
/// interior clocks, no thread-dependent state. That contract is what lets
/// every policy stay bit-identical across `parallelism` settings.
/// Implementations should also avoid `O(population)`
/// work and memory — draw positionally against the given [`ClientPool`] /
/// tracker instead of enumerating all clients.
pub trait SelectionPolicy: Send {
    /// Short name used in logs and tables.
    fn name(&self) -> &'static str;

    /// Chooses up to `count` distinct clients from `pool`: the one draw
    /// behind both [`select_cohort`](Self::select_cohort) and
    /// [`select_extra`](Self::select_extra).
    fn pick(
        &mut self,
        tracker: &SelectionTracker,
        pool: &ClientPool,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize>;

    /// Chooses up to `count` distinct clients for round `round`.
    fn select_cohort(
        &mut self,
        tracker: &SelectionTracker,
        _round: usize,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let pool = ClientPool::full(tracker.num_clients());
        self.pick(tracker, &pool, count, rng)
    }

    /// Chooses up to `extra` distinct clients not already in `chosen`
    /// (deadline-mode over-selection). Leaves `rng` untouched when
    /// `extra == 0`.
    fn select_extra(
        &mut self,
        tracker: &SelectionTracker,
        _round: usize,
        chosen: &[usize],
        extra: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        if extra == 0 {
            return Vec::new();
        }
        let pool = ClientPool::excluding(tracker.num_clients(), chosen.iter().copied());
        self.pick(tracker, &pool, extra, rng)
    }

    /// Chooses one client from the `idle` pool to refill a freed async slot,
    /// or `None` when the pool is empty.
    fn select_refill(
        &mut self,
        tracker: &SelectionTracker,
        round: usize,
        idle: &ClientPool,
        rng: &mut StdRng,
    ) -> Option<usize>;
}

/// Serializable selection-policy configuration (the `FlConfig::selection`
/// knob in `fedlps_sim`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SelectionKind {
    /// The paper's uniform random selection (bit-identical to the
    /// simulator's historical inline sampling).
    #[default]
    Uniform,
    /// Oort-style utility selection: exploit high recent-loss clients scaled
    /// by the Eq. (14) speed term, explore with the given fraction.
    UtilityBased {
        /// Fraction of each cohort reserved for exploring unexplored clients.
        exploration: f64,
    },
    /// Power-of-`d`-choices: draw a random candidate set of twice the
    /// requested count, keep the highest-loss members.
    PowerOfChoice,
}

impl SelectionKind {
    /// The Oort-style utility policy with default knobs.
    pub fn utility() -> Self {
        SelectionKind::UtilityBased { exploration: 0.2 }
    }

    /// Short name used in logs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            SelectionKind::Uniform => "uniform",
            SelectionKind::UtilityBased { .. } => "utility",
            SelectionKind::PowerOfChoice => "power-of-choice",
        }
    }

    /// Checks a directly constructed (or deserialized) variant;
    /// `fedlps_sim`'s `FlConfig::validate` reports a violation under the
    /// `selection` knob. An `exploration` outside `[0, 1]` would be silently
    /// clamped by the refill coin flip and a NaN would silently disable
    /// exploration, so both are rejected here instead.
    pub fn validate(&self) -> Result<(), String> {
        if let SelectionKind::UtilityBased { exploration } = *self {
            if !(0.0..=1.0).contains(&exploration) {
                return Err(format!(
                    "utility exploration must be in [0, 1], got {exploration}"
                ));
            }
        }
        Ok(())
    }

    /// Instantiates the configured policy.
    pub fn build(&self) -> Box<dyn SelectionPolicy> {
        match *self {
            SelectionKind::Uniform => Box::new(Uniform),
            SelectionKind::UtilityBased { exploration } => Box::new(UtilityBased { exploration }),
            SelectionKind::PowerOfChoice => Box::new(PowerOfChoice),
        }
    }
}

/// Orders clients by descending statistical utility with infinite optimism:
/// never-reported clients rank first (by ascending id), then reported clients
/// by descending `score`, ties by ascending id.
fn rank_desc(mut pool: Vec<usize>, score: impl Fn(usize) -> Option<f64>) -> Vec<usize> {
    pool.sort_by(|&a, &b| match (score(a), score(b)) {
        (None, None) => a.cmp(&b),
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => y.total_cmp(&x).then_with(|| a.cmp(&b)),
    });
    pool
}

/// The explored members of a pool, ascending: the tracker's sparse explored
/// set filtered by membership — `O(participants)`, never `O(population)`.
fn explored_members(tracker: &SelectionTracker, pool: &ClientPool) -> Vec<usize> {
    tracker
        .explored_ids()
        .into_iter()
        .filter(|&k| pool.contains(k))
        .collect()
}

/// Uniform random selection — today's (and the paper's) behaviour.
///
/// The RNG draw sequence of each method is kept bit-identical to the
/// simulator's pre-policy inline sampling (partial Fisher–Yates for cohorts
/// and over-selection, one `gen_range` per refill), which is what lets the
/// default configuration reproduce historical traces exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl SelectionPolicy for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn pick(
        &mut self,
        _tracker: &SelectionTracker,
        pool: &ClientPool,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        sample_without_replacement(pool.len(), count, rng)
            .into_iter()
            .map(|i| pool.nth(i))
            .collect()
    }

    fn select_refill(
        &mut self,
        _tracker: &SelectionTracker,
        _round: usize,
        idle: &ClientPool,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if idle.is_empty() {
            None
        } else {
            Some(idle.nth(rng.gen_range(0..idle.len())))
        }
    }
}

/// Oort-style utility selection.
///
/// Exploit: rank the candidate pool by `loss × speed` (the
/// statistical utility of the client's most recent absorbed report times the
/// Eq. (14) system-speed term) and keep the top. Explore: reserve
/// `ceil(exploration × count)` slots for clients that never participated,
/// drawn uniformly. Never-reported-but-dispatched clients rank with infinite
/// optimism inside the exploit pool, so nobody is starved forever.
///
/// Work per decision is `O(participants + cohort)`: the exploit ranking runs
/// over the tracker's sparse explored set and exploration draws positionally
/// against the (virtual) unexplored pool — the population is never scanned.
#[derive(Debug, Clone, Copy)]
pub struct UtilityBased {
    /// Fraction of each cohort reserved for exploration.
    pub exploration: f64,
}

impl UtilityBased {
    fn score(&self, tracker: &SelectionTracker, client: usize) -> Option<f64> {
        tracker
            .stats(client)
            .last_loss
            .map(|loss| loss.max(0.0) * tracker.speed(client))
    }
}

impl SelectionPolicy for UtilityBased {
    fn name(&self) -> &'static str {
        "utility"
    }

    fn pick(
        &mut self,
        tracker: &SelectionTracker,
        pool: &ClientPool,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let count = count.min(pool.len());
        if count == 0 {
            return Vec::new();
        }
        let explored = explored_members(tracker, pool);
        let unexplored = pool.without(explored.iter().copied());
        let want_explore = ((self.exploration * count as f64).ceil() as usize).min(count);
        // Exploration cannot exceed the unexplored pool; exploitation cannot
        // exceed the explored pool — shift slots to whichever side has room.
        let explore_n = want_explore
            .max(count.saturating_sub(explored.len()))
            .min(unexplored.len())
            .min(count);
        let exploit_n = count - explore_n;

        let mut picked: Vec<usize> = rank_desc(explored, |k| self.score(tracker, k))
            .into_iter()
            .take(exploit_n)
            .collect();
        picked.extend(
            sample_without_replacement(unexplored.len(), explore_n, rng)
                .into_iter()
                .map(|i| unexplored.nth(i)),
        );
        picked
    }

    fn select_refill(
        &mut self,
        tracker: &SelectionTracker,
        _round: usize,
        idle: &ClientPool,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if idle.is_empty() {
            return None;
        }
        if rng.gen_bool(self.exploration.clamp(0.0, 1.0)) {
            return Some(idle.nth(rng.gen_range(0..idle.len())));
        }
        let explored = explored_members(tracker, idle);
        let unexplored = idle.without(explored.iter().copied());
        if !unexplored.is_empty() {
            return Some(unexplored.nth(rng.gen_range(0..unexplored.len())));
        }
        // Everyone idle has participated, so the idle pool *is* `explored`.
        rank_desc(explored, |k| self.score(tracker, k))
            .first()
            .copied()
    }
}

/// Power-of-`d`-choices selection, biased toward high-loss clients.
///
/// A cohort of `count` is the best `count` of `d = 2 × count` drawn
/// candidates (fewer when the pool is smaller). Only those `d` are ever
/// examined, so decisions cost `O(d log d)` independent of the population
/// size.
#[derive(Debug, Clone, Copy)]
pub struct PowerOfChoice;

impl PowerOfChoice {
    fn loss(tracker: &SelectionTracker, client: usize) -> Option<f64> {
        tracker.stats(client).last_loss
    }
}

impl SelectionPolicy for PowerOfChoice {
    fn name(&self) -> &'static str {
        "power-of-choice"
    }

    fn pick(
        &mut self,
        tracker: &SelectionTracker,
        pool: &ClientPool,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let count = count.min(pool.len());
        if count == 0 {
            return Vec::new();
        }
        let d = count.saturating_mul(2).min(pool.len());
        let cands: Vec<usize> = sample_without_replacement(pool.len(), d, rng)
            .into_iter()
            .map(|i| pool.nth(i))
            .collect();
        rank_desc(cands, |k| Self::loss(tracker, k))
            .into_iter()
            .take(count)
            .collect()
    }

    fn select_refill(
        &mut self,
        tracker: &SelectionTracker,
        _round: usize,
        idle: &ClientPool,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if idle.is_empty() {
            return None;
        }
        // Power of two choices: two independent uniform probes, keep the one
        // with the higher loss (optimistically infinite when unexplored).
        let a = idle.nth(rng.gen_range(0..idle.len()));
        let b = idle.nth(rng.gen_range(0..idle.len()));
        let winner = match (Self::loss(tracker, a), Self::loss(tracker, b)) {
            (None, _) => a,
            (_, None) => b,
            (Some(x), Some(y)) => {
                if y > x {
                    b
                } else {
                    a
                }
            }
        };
        Some(winner)
    }
}
