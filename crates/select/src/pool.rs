//! Candidate pools that never materialize the population.
//!
//! Selection used to receive its candidates as a dense `Vec<usize>` built by
//! scanning `0..num_clients` — an `O(population)` allocation per decision
//! that defeats the lazy-fleet memory contract. A [`ClientPool`] represents
//! the same ascending id set (`0..num_clients` minus a small exclusion set)
//! in `O(|excluded|)` memory, with positional lookup via [`ClientPool::nth`].
//!
//! Because the pool enumerates the *same ids in the same ascending order* as
//! the dense vector it replaced, positional draws against it (partial
//! Fisher–Yates indices, `gen_range` probes) produce bit-identical selections
//! — the policies' historical RNG sequences are preserved exactly.
//!
//! ```
//! use fedlps_select::ClientPool;
//!
//! // 0..10 minus {2, 5}: the ascending members are [0, 1, 3, 4, 6, 7, 8, 9].
//! let pool = ClientPool::excluding(10, [2, 5]);
//! assert_eq!(pool.len(), 8);
//! assert_eq!(pool.nth(2), 3);
//! assert_eq!(pool.nth(5), 7);
//! assert!(!pool.contains(5) && pool.contains(6));
//! ```

/// The ascending id set `0..num_clients` minus an exclusion set, in
/// `O(|excluded|)` memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPool {
    num_clients: usize,
    /// Excluded ids, strictly ascending, all `< num_clients`.
    excluded: Vec<usize>,
}

impl ClientPool {
    /// The full population `0..num_clients`.
    pub fn full(num_clients: usize) -> Self {
        Self {
            num_clients,
            excluded: Vec::new(),
        }
    }

    /// The population minus `excluded` (out-of-range ids are ignored).
    pub fn excluding(num_clients: usize, excluded: impl IntoIterator<Item = usize>) -> Self {
        Self {
            num_clients,
            excluded: ascending(num_clients, excluded),
        }
    }

    /// This pool minus additionally-excluded ids. When `ids` ascend (the
    /// policies pass an ascending explored set) the two exclusion lists are
    /// two sorted runs, which the stable sort merges in linear time.
    pub fn without(&self, ids: impl IntoIterator<Item = usize>) -> Self {
        Self::excluding(self.num_clients, self.excluded.iter().copied().chain(ids))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.num_clients - self.excluded.len()
    }

    /// Whether the pool has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `client` is a member.
    pub fn contains(&self, client: usize) -> bool {
        client < self.num_clients && self.excluded.binary_search(&client).is_err()
    }

    /// The `i`-th member in ascending id order (the id a dense
    /// `Vec<usize>` of the members would hold at position `i`). A binary
    /// search, `O(log |excluded|)`, independent of the population size.
    pub fn nth(&self, i: usize) -> usize {
        assert!(
            i < self.len(),
            "position {i} out of range for pool of {}",
            self.len()
        );
        // `excluded[k] - k` members lie below the `k`-th excluded id, a count
        // that never decreases in `k`; the member at position `i` lies above
        // exactly the excluded ids with at most `i` members below them.
        let shift = partition_point(self.excluded.len(), |k| self.excluded[k] - k <= i);
        i + shift
    }
}

/// The in-range ids of `ids`, strictly ascending. The stable sort is
/// adaptive: it merges already-ascending runs instead of re-sorting them.
fn ascending(num_clients: usize, ids: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut ids: Vec<usize> = ids.into_iter().filter(|&k| k < num_clients).collect();
    ids.sort();
    ids.dedup();
    ids
}

/// The first `k` in `0..len` where `pred(k)` is false, for a `pred` that is
/// true on a prefix of `0..len` and false after it.
fn partition_point(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: the member list as policies used to materialize it.
    fn dense(pool: &ClientPool, n: usize) -> Vec<usize> {
        (0..n).filter(|&k| pool.contains(k)).collect()
    }

    #[test]
    fn nth_matches_the_dense_member_list() {
        for (n, excluded) in [
            (10, vec![]),
            (10, vec![0]),
            (10, vec![9]),
            (10, vec![2, 5]),
            (10, vec![0, 1, 2, 3]),
            (10, vec![6, 7, 8, 9]),
            (1, vec![0]),
            (7, vec![0, 2, 4, 6]),
        ] {
            let pool = ClientPool::excluding(n, excluded.iter().copied());
            let members = dense(&pool, n);
            assert_eq!(pool.len(), members.len(), "excluded {excluded:?}");
            for (i, &id) in members.iter().enumerate() {
                assert_eq!(pool.nth(i), id, "excluded {excluded:?} position {i}");
            }
        }
    }

    #[test]
    fn without_merges_exclusions() {
        let pool = ClientPool::excluding(10, [2, 5]).without([5, 7, 42]);
        assert_eq!(dense(&pool, 10), vec![0, 1, 3, 4, 6, 8, 9]);
        assert_eq!(pool.len(), 7);
    }

    #[test]
    fn unsorted_and_repeated_exclusions_match_the_dense_member_list() {
        let pool = ClientPool::excluding(12, [9, 3, 3, 40, 0]).without([11, 2, 9, 5, 2]);
        let members = vec![1, 4, 6, 7, 8, 10];
        assert_eq!(dense(&pool, 12), members);
        assert_eq!(pool.len(), members.len());
        for (i, &id) in members.iter().enumerate() {
            assert_eq!(pool.nth(i), id, "position {i}");
        }
    }

    #[test]
    fn full_pool_is_the_identity() {
        let pool = ClientPool::full(5);
        assert_eq!(pool.len(), 5);
        for i in 0..5 {
            assert_eq!(pool.nth(i), i);
        }
    }

    #[test]
    #[should_panic]
    fn nth_rejects_out_of_range_positions() {
        ClientPool::excluding(3, [1]).nth(2);
    }
}
