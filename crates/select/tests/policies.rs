//! Behavioural tests of the shipped selection policies, including the
//! regression pinning the uniform policy's draw sequences to the simulator's
//! historical inline sampling (the async-refill `select_refill` item of the
//! ROADMAP).

use fedlps_select::{
    ClientPool, PowerOfChoice, SelectionKind, SelectionPolicy, SelectionTracker, Uniform,
    UtilityBased,
};
use fedlps_tensor::rng::sample_without_replacement;
use fedlps_tensor::rng_from_seed;
use rand::Rng;
use std::collections::BTreeSet;

fn tracker(n: usize) -> SelectionTracker {
    SelectionTracker::new((0..n).map(|k| 1.0 + k as f64).collect())
}

/// An idle pool holding exactly `members` out of `n` clients.
fn pool_of(n: usize, members: &[usize]) -> ClientPool {
    ClientPool::excluding(n, (0..n).filter(|k| !members.contains(k)))
}

/// The uniform policy's draws are bit-identical to the simulator's
/// historical inline sampling (the async-refill regression of the
/// ROADMAP's `select_refill` item).
#[test]
fn uniform_reproduces_the_historical_draw_sequences() {
    let t = tracker(10);
    let mut policy = Uniform;

    // Cohort: partial Fisher–Yates, exactly as the old default
    // `FlAlgorithm::select_clients`.
    let mut a = rng_from_seed(42);
    let mut b = rng_from_seed(42);
    assert_eq!(
        policy.select_cohort(&t, 0, 4, &mut a),
        sample_without_replacement(10, 4, &mut b)
    );

    // Over-selection: sample indices into the ascending idle list,
    // exactly as the old `Simulator::over_select`.
    let chosen = vec![2, 5];
    let mut a = rng_from_seed(7);
    let mut b = rng_from_seed(7);
    let picks = policy.select_extra(&t, 0, &chosen, 3, &mut a);
    let idle: Vec<usize> = (0..10).filter(|k| !chosen.contains(k)).collect();
    let expect: Vec<usize> = sample_without_replacement(idle.len(), 3, &mut b)
        .into_iter()
        .map(|i| idle[i])
        .collect();
    assert_eq!(picks, expect);

    // Refill: one `gen_range` over the idle list, exactly as the old
    // `Simulator::pick_idle`.
    let idle = vec![1, 3, 4, 8];
    let mut a = rng_from_seed(11);
    let mut b = rng_from_seed(11);
    assert_eq!(
        policy.select_refill(&t, 0, &pool_of(10, &idle), &mut a),
        Some(idle[b.gen_range(0..idle.len())])
    );
    assert_eq!(policy.select_refill(&t, 0, &pool_of(10, &[]), &mut a), None);
}

#[test]
fn uniform_extra_consumes_no_rng_when_zero() {
    let t = tracker(6);
    let mut rng = rng_from_seed(3);
    let before = rng.gen::<u64>();
    let mut rng = rng_from_seed(3);
    assert!(Uniform.select_extra(&t, 0, &[1], 0, &mut rng).is_empty());
    assert_eq!(rng.gen::<u64>(), before, "extra=0 must not touch the rng");
}

#[test]
fn utility_exploits_high_loss_fast_clients() {
    // Client latencies 1..=6; give everyone a report so nothing explores.
    let mut t = tracker(6);
    for k in 0..6 {
        t.on_dispatch(k, 0);
    }
    // Client 1: high loss, fast. Client 5: higher loss but 6x slower.
    for (k, loss) in [(0, 0.1), (1, 2.0), (2, 0.2), (3, 0.3), (4, 0.2), (5, 2.5)] {
        t.on_report(k, loss, 1.0);
    }
    let mut policy = UtilityBased { exploration: 0.0 };
    let mut rng = rng_from_seed(1);
    let cohort = policy.select_cohort(&t, 1, 2, &mut rng);
    assert!(
        cohort.contains(&1),
        "high-loss fast client must be exploited, got {cohort:?}"
    );
    assert_eq!(cohort.len(), 2);
}

#[test]
fn utility_reserves_exploration_slots_for_unexplored_clients() {
    let mut t = tracker(8);
    // Explore 4 of 8; the rest have never participated.
    for k in 0..4 {
        t.on_dispatch(k, 0);
        t.on_report(k, 1.0, 1.0);
    }
    let mut policy = UtilityBased { exploration: 0.5 };
    let mut rng = rng_from_seed(5);
    let cohort = policy.select_cohort(&t, 1, 4, &mut rng);
    let fresh = cohort.iter().filter(|&&k| k >= 4).count();
    assert!(fresh >= 2, "half the cohort explores, got {cohort:?}");
    let unique: BTreeSet<usize> = cohort.iter().copied().collect();
    assert_eq!(unique.len(), 4, "no duplicates");
}

#[test]
fn power_of_choice_prefers_lossy_candidates_and_stays_distinct() {
    // Six clients and a cohort of three: the 2 × 3 candidates are everyone.
    let mut t = tracker(6);
    for k in 0..6 {
        t.on_dispatch(k, 0);
        t.on_report(k, if k == 5 { 5.0 } else { 0.1 }, 1.0);
    }
    let mut policy = PowerOfChoice;
    let mut rng = rng_from_seed(2);
    let cohort = policy.select_cohort(&t, 0, 3, &mut rng);
    assert!(
        cohort.contains(&5),
        "with a full candidate set the lossiest client must win: {cohort:?}"
    );
    let unique: BTreeSet<usize> = cohort.iter().copied().collect();
    assert_eq!(unique.len(), 3);
}

#[test]
fn policies_are_deterministic_given_the_seed() {
    let mut t = tracker(12);
    for k in 0..6 {
        t.on_dispatch(k, 0);
        t.on_report(k, 0.1 * k as f64, 1.0 + k as f64);
    }
    for kind in [
        SelectionKind::Uniform,
        SelectionKind::utility(),
        SelectionKind::PowerOfChoice,
    ] {
        let run = |seed: u64| {
            let mut policy = kind.build();
            let mut rng = rng_from_seed(seed);
            let cohort = policy.select_cohort(&t, 0, 4, &mut rng);
            let extra = policy.select_extra(&t, 0, &cohort, 2, &mut rng);
            let refill = policy.select_refill(&t, 0, &pool_of(12, &[6, 7, 8]), &mut rng);
            (cohort, extra, refill)
        };
        assert_eq!(run(9), run(9), "{} must be deterministic", kind.name());
        let (cohort, extra, _) = run(9);
        let all: BTreeSet<usize> = cohort.iter().chain(extra.iter()).copied().collect();
        assert_eq!(
            all.len(),
            cohort.len() + extra.len(),
            "{}: extra must be disjoint from the cohort",
            kind.name()
        );
    }
}

/// Dense full-scan references for the sublinear policies: the historical
/// implementations that materialized the whole population per decision.
/// Bit-equality against them is what "sublinear selection changes no draw"
/// means.
mod dense_reference {
    use super::*;
    use rand::rngs::StdRng;
    use std::cmp::Ordering;

    fn rank_desc(mut pool: Vec<usize>, score: impl Fn(usize) -> Option<f64>) -> Vec<usize> {
        pool.sort_by(|&a, &b| match (score(a), score(b)) {
            (None, None) => a.cmp(&b),
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => y.total_cmp(&x).then_with(|| a.cmp(&b)),
        });
        pool
    }

    pub(crate) fn utility_pick(
        p: &UtilityBased,
        tracker: &SelectionTracker,
        pool: Vec<usize>,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let score = |k: usize| {
            tracker
                .stats(k)
                .last_loss
                .map(|loss| loss.max(0.0) * tracker.speed(k))
        };
        let count = count.min(pool.len());
        if count == 0 {
            return Vec::new();
        }
        let (unexplored, explored): (Vec<usize>, Vec<usize>) =
            pool.into_iter().partition(|&k| !tracker.explored(k));
        let want_explore = ((p.exploration * count as f64).ceil() as usize).min(count);
        let explore_n = want_explore
            .max(count.saturating_sub(explored.len()))
            .min(unexplored.len())
            .min(count);
        let exploit_n = count - explore_n;
        let mut picked: Vec<usize> = rank_desc(explored, score)
            .into_iter()
            .take(exploit_n)
            .collect();
        picked.extend(
            sample_without_replacement(unexplored.len(), explore_n, rng)
                .into_iter()
                .map(|i| unexplored[i]),
        );
        picked
    }

    pub(crate) fn utility_refill(
        p: &UtilityBased,
        tracker: &SelectionTracker,
        idle: &[usize],
        rng: &mut StdRng,
    ) -> Option<usize> {
        let score = |k: usize| {
            tracker
                .stats(k)
                .last_loss
                .map(|loss| loss.max(0.0) * tracker.speed(k))
        };
        if idle.is_empty() {
            return None;
        }
        if rng.gen_bool(p.exploration.clamp(0.0, 1.0)) {
            return Some(idle[rng.gen_range(0..idle.len())]);
        }
        let unexplored: Vec<usize> = idle
            .iter()
            .copied()
            .filter(|&k| !tracker.explored(k))
            .collect();
        if !unexplored.is_empty() {
            return Some(unexplored[rng.gen_range(0..unexplored.len())]);
        }
        rank_desc(idle.to_vec(), score).first().copied()
    }

    pub(crate) fn poc_pick(
        tracker: &SelectionTracker,
        pool: Vec<usize>,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let count = count.min(pool.len());
        if count == 0 {
            return Vec::new();
        }
        let d = (2 * count).min(pool.len());
        let cands: Vec<usize> = sample_without_replacement(pool.len(), d, rng)
            .into_iter()
            .map(|i| pool[i])
            .collect();
        rank_desc(cands, |k| tracker.stats(k).last_loss)
            .into_iter()
            .take(count)
            .collect()
    }
}

/// A tracker with a mixed history: some clients explored with reports, one
/// dispatched-but-unreported, the rest untouched.
fn mixed_tracker(n: usize, reported: usize) -> SelectionTracker {
    let mut t = tracker(n);
    for k in 0..reported.min(n) {
        t.on_dispatch(k, 0);
        t.on_report(k, 0.3 + 0.17 * k as f64, 1.0 + k as f64);
    }
    if reported < n {
        t.on_dispatch(reported, 1); // explored but never reported
    }
    t
}

/// The sublinear utility policy reproduces the historical full-scan draws
/// exactly — cohort, over-selection and refill — across seeds and tracker
/// states.
#[test]
fn utility_is_bit_identical_to_the_dense_full_scan() {
    for reported in [0, 3, 7, 11] {
        let t = mixed_tracker(12, reported);
        let p = UtilityBased { exploration: 0.25 };
        for seed in 0..10 {
            let mut policy = p;
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            let cohort = policy.select_cohort(&t, 0, 5, &mut a);
            let expect = dense_reference::utility_pick(&p, &t, (0..12).collect(), 5, &mut b);
            assert_eq!(cohort, expect, "cohort, reported={reported} seed={seed}");

            let extra = policy.select_extra(&t, 0, &cohort, 3, &mut a);
            let pool: Vec<usize> = (0..12).filter(|k| !cohort.contains(k)).collect();
            let expect = dense_reference::utility_pick(&p, &t, pool, 3, &mut b);
            assert_eq!(extra, expect, "extra, reported={reported} seed={seed}");

            let idle = [1, 4, 6, 9, 10];
            let refill = policy.select_refill(&t, 0, &pool_of(12, &idle), &mut a);
            let expect = dense_reference::utility_refill(&p, &t, &idle, &mut b);
            assert_eq!(refill, expect, "refill, reported={reported} seed={seed}");
        }
    }
}

/// Same regression for power-of-choice.
#[test]
fn power_of_choice_is_bit_identical_to_the_dense_full_scan() {
    for reported in [0, 5, 12] {
        let t = mixed_tracker(12, reported);
        for seed in 0..10 {
            let mut policy = PowerOfChoice;
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            let cohort = policy.select_cohort(&t, 0, 4, &mut a);
            let expect = dense_reference::poc_pick(&t, (0..12).collect(), 4, &mut b);
            assert_eq!(cohort, expect, "cohort, reported={reported} seed={seed}");

            let extra = policy.select_extra(&t, 0, &cohort, 2, &mut a);
            let pool: Vec<usize> = (0..12).filter(|k| !cohort.contains(k)).collect();
            let expect = dense_reference::poc_pick(&t, pool, 2, &mut b);
            assert_eq!(extra, expect, "extra, reported={reported} seed={seed}");
        }
    }
}

/// Policies stay cheap at registry scale: a million-client lazy tracker,
/// decisions touch only the cohort-sized working set.
#[test]
fn policies_work_against_a_million_client_lazy_tracker() {
    let mut t = SelectionTracker::lazy(1_000_000, Box::new(|k| 1.0 + (k % 7) as f64), 1.0);
    for kind in [
        SelectionKind::Uniform,
        SelectionKind::utility(),
        SelectionKind::PowerOfChoice,
    ] {
        let mut policy = kind.build();
        let mut rng = rng_from_seed(13);
        let cohort = policy.select_cohort(&t, 0, 64, &mut rng);
        assert_eq!(cohort.len(), 64, "{}", kind.name());
        let unique: BTreeSet<usize> = cohort.iter().copied().collect();
        assert_eq!(unique.len(), 64, "{}: distinct", kind.name());
        let extra = policy.select_extra(&t, 0, &cohort, 8, &mut rng);
        assert!(extra.iter().all(|k| !cohort.contains(k)), "{}", kind.name());
        let idle = ClientPool::excluding(1_000_000, cohort.iter().copied());
        let refill = policy.select_refill(&t, 0, &idle, &mut rng);
        assert!(
            refill.is_some_and(|k| !cohort.contains(&k)),
            "{}",
            kind.name()
        );
        for &k in &cohort {
            t.on_dispatch(k, 0);
        }
    }
    // Three policies each dispatched one 64-client cohort: at most 192
    // distinct entries out of a million registered clients.
    assert!(
        t.materialized_clients() <= 3 * 64,
        "only dispatched clients materialize, got {}",
        t.materialized_clients()
    );
}

#[test]
fn kind_builds_its_policy_and_roundtrips_serde() {
    for kind in [
        SelectionKind::Uniform,
        SelectionKind::utility(),
        SelectionKind::PowerOfChoice,
    ] {
        let json = serde_json::to_string(&kind).unwrap();
        let back: SelectionKind = serde_json::from_str(&json).unwrap();
        assert_eq!(kind, back);
        assert_eq!(kind.build().name(), kind.name());
    }
}
