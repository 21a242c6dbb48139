//! Cross-round mask caching.
//!
//! The round loop historically re-derived every selected client's pattern
//! from scratch each round even though the bandit usually proposes (nearly)
//! the same sparse ratio. [`MaskCache`] keeps the most recent mask per
//! client, keyed by the ratio the mask was built at, and hands it back as
//! long as the ratio still extracts the *same submodel shape* — the caller
//! decides whether that reuse is sound for its pattern strategy (see
//! [`PatternStrategy::cacheable_across_rounds`](crate::pattern::PatternStrategy::cacheable_across_rounds)).
//! For FedLPS's learnable pattern this deliberately extends the
//! within-round mask freeze across participations at an unchanged ratio:
//! the importance indicator keeps learning every round and reshapes the
//! pattern at the client's next ratio change, rather than at every
//! participation.
//!
//! An entry is one value — the ratio key, the mask and the packed submodel
//! compiled from it (`None` when the mask is not executable as a packed
//! model) — installed by one [`MaskCache::insert`] and read by one
//! [`MaskCache::lookup`], so a mask and its plan can never disagree.
//!
//! Keys are quantized: a mask depends on the sparse ratio only through the
//! per-layer retained-unit counts `⌈s · J_l⌉` (see
//! [`retained_per_layer`]), so two ratios
//! that retain identical unit counts share a cache entry. This matters in
//! practice because P-UCBV samples ratios continuously inside its best
//! partition — exact floating-point keys would never hit.
//!
//! The cache is deliberately read-only-friendly: [`MaskCache::lookup`] takes
//! `&self` so parallel client tasks can consult a shared snapshot, while
//! inserts happen in the serial absorb phase of the round loop. The cache
//! keeps no hit/miss count: each client report carries its lookup outcome,
//! and the simulator's per-round metrics sum them.

use std::collections::BTreeMap;
use std::sync::Arc;

use fedlps_nn::pack::PackedModel;

use crate::mask::UnitMask;
use crate::ratio::retained_per_layer;

/// One client's cached pattern plus the quantized ratio key it was built at.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Per-layer retained-unit counts implied by the ratio at build time.
    counts: Vec<usize>,
    mask: UnitMask,
    /// The compiled packed submodel of `mask` (`None` if it does not pack),
    /// shared with parallel client tasks through the `Arc`.
    plan: Option<Arc<PackedModel>>,
}

/// Per-client cross-round mask cache.
///
/// Each client owns at most one entry (its latest pattern); a lookup at a
/// ratio that retains different per-layer unit counts misses, and the
/// subsequent insert replaces — i.e. invalidates — that client's entry only.
///
/// Entries live in a sparse map keyed by client id, so the cache costs
/// `O(clients that have actually built a mask)` memory regardless of the
/// registered population size — a million-client federation with a 64-client
/// cohort holds at most a handful of entries per round.
#[derive(Debug, Clone)]
pub struct MaskCache {
    /// Sparsifiable units per layer; fixes the ratio quantization.
    units_per_layer: Vec<usize>,
    entries: BTreeMap<usize, CacheEntry>,
}

impl MaskCache {
    /// Creates an empty cache for a model with the given per-layer
    /// sparsifiable unit counts. The cache grows with the clients that
    /// actually participate, not with the registered population, so no
    /// population size is declared up front.
    pub fn new(units_per_layer: Vec<usize>) -> Self {
        Self {
            units_per_layer,
            entries: BTreeMap::new(),
        }
    }

    /// The quantized key a ratio maps to: per-layer retained-unit counts.
    pub fn key_for(&self, ratio: f64) -> Vec<usize> {
        retained_per_layer(&self.units_per_layer, ratio)
    }

    /// Returns the cached mask for `client`, with the packed submodel
    /// compiled from it, if an entry exists and was built at a ratio
    /// retaining the same per-layer unit counts as `ratio`. Pure read: safe
    /// to call from parallel client tasks.
    pub fn lookup(
        &self,
        client: usize,
        ratio: f64,
    ) -> Option<(&UnitMask, Option<&Arc<PackedModel>>)> {
        let entry = self.entries.get(&client)?;
        (entry.counts == self.key_for(ratio)).then_some((&entry.mask, entry.plan.as_ref()))
    }

    /// Stores `mask` and its compiled `plan` as `client`'s pattern at
    /// `ratio`, replacing (and thereby invalidating) whatever that client had
    /// before. Other clients' entries are untouched.
    pub fn insert(
        &mut self,
        client: usize,
        ratio: f64,
        mask: UnitMask,
        plan: Option<Arc<PackedModel>>,
    ) {
        let counts = self.key_for(ratio);
        self.entries
            .insert(client, CacheEntry { counts, mask, plan });
    }

    /// Number of clients currently holding an entry — the materialized
    /// footprint of the cache (population-scale assertions count this).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no client holds an entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SubmodelPlan;
    use fedlps_nn::mlp::{Mlp, MlpConfig};
    use fedlps_nn::model::ModelArch;

    fn mask_of(bits: &[bool]) -> UnitMask {
        UnitMask::from_keep(bits.to_vec())
    }

    fn cache() -> MaskCache {
        // Two layers of 8 and 4 sparsifiable units.
        MaskCache::new(vec![8, 4])
    }

    /// The cached mask alone, for tests that install no plan.
    fn mask_at(c: &MaskCache, client: usize, ratio: f64) -> Option<&UnitMask> {
        c.lookup(client, ratio).map(|(mask, _)| mask)
    }

    #[test]
    fn fresh_cache_is_empty_and_misses() {
        let c = cache();
        assert!(c.is_empty());
        assert!(c.lookup(0, 0.5).is_none());
    }

    #[test]
    fn insert_then_lookup_hits_at_equivalent_ratios() {
        let mut c = cache();
        let m = mask_of(&[true; 12]);
        c.insert(1, 0.5, m.clone(), None);
        assert_eq!(mask_at(&c, 1, 0.5), Some(&m));
        // 0.5 and 0.49 both retain ⌈8s⌉=4 and ⌈4s⌉=2 units.
        assert_eq!(c.key_for(0.5), c.key_for(0.49));
        assert_eq!(mask_at(&c, 1, 0.49), Some(&m));
        // A genuinely different shape misses.
        assert!(c.lookup(1, 0.25).is_none());
        // Other clients are unaffected.
        assert!(c.lookup(0, 0.5).is_none());
    }

    #[test]
    fn ratio_change_invalidates_exactly_that_clients_entry() {
        let mut c = cache();
        let m0 = mask_of(&[true; 12]);
        let mut keep = vec![false; 12];
        keep[0] = true;
        keep[8] = true;
        let m1 = mask_of(&keep);
        c.insert(0, 0.5, m0.clone(), None);
        c.insert(2, 0.5, m0.clone(), None);
        // Client 0's ratio changes: the miss + re-insert replaces only its entry.
        assert!(c.lookup(0, 0.125).is_none());
        c.insert(0, 0.125, m1.clone(), None);
        assert_eq!(mask_at(&c, 0, 0.125), Some(&m1));
        assert!(c.lookup(0, 0.5).is_none(), "old key is gone");
        assert_eq!(mask_at(&c, 2, 0.5), Some(&m0), "client 2 is untouched");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn entries_cost_only_the_clients_that_built_a_mask() {
        let mut c = MaskCache::new(vec![4]);
        // Arbitrarily large client ids are fine: storage is per-entry, not
        // per-registered-client.
        c.insert(999_999, 0.5, mask_of(&[true; 4]), None);
        c.insert(5, 0.5, mask_of(&[true; 4]), None);
        assert!(c.lookup(5, 0.5).is_some() && c.lookup(999_999, 0.5).is_some());
        assert!(c.lookup(0, 0.5).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn compiled_plans_ride_their_mask_entries() {
        let mlp = Mlp::new(MlpConfig {
            input_dim: 3,
            hidden: vec![4],
            num_classes: 2,
        });
        let compile = |mask: &UnitMask| {
            let packed = SubmodelPlan::from_mask(mlp.unit_layout(), mask)
                .compile(&mlp)
                .expect("packable");
            Arc::new(packed)
        };
        let mut c = MaskCache::new(vec![4]);
        let first = mask_of(&[true, true, false, false]);
        let first_plan = compile(&first);
        c.insert(0, 0.5, first.clone(), Some(first_plan.clone()));
        let (mask, plan) = c.lookup(0, 0.5).expect("hit");
        assert_eq!(mask, &first);
        assert!(Arc::ptr_eq(
            plan.expect("plan serves with the mask"),
            &first_plan
        ));

        // A lookup at a different shape returns neither mask nor plan, and
        // other clients are unaffected.
        assert!(c.lookup(0, 0.125).is_none(), "shape change invalidates");
        assert!(c.lookup(1, 0.5).is_none());

        // Insert replaces the mask *and* the plan: no stale plan survives
        // next to a new mask, whether the new mask packs or not.
        let second = mask_of(&[false, false, true, true]);
        let second_plan = compile(&second);
        c.insert(0, 0.5, second.clone(), Some(second_plan.clone()));
        let (mask, plan) = c.lookup(0, 0.5).expect("hit");
        assert_eq!(mask, &second);
        assert!(Arc::ptr_eq(plan.unwrap(), &second_plan));
        c.insert(0, 0.5, first.clone(), None);
        let (mask, plan) = c.lookup(0, 0.5).expect("hit");
        assert!(mask == &first && plan.is_none());
        assert_eq!(c.len(), 1);
    }
}
