//! Server-side aggregation (Eq. 13), serial and coordinate-range sharded.

use std::sync::Arc;

/// A client's uploaded residual `(ω^r − ω_{k,E}) ⊙ m_{k,E}` (Eq. 12), either
/// as a dense full-coordinate vector (the masked-dense execution path) or as
/// the packed delta plus the coordinates it lives on (the packed-submodel
/// path — what a physically sparse client actually uploads).
///
/// The two are interchangeable bit for bit: every coordinate the packed form
/// omits carries an exact `0.0` in the dense form, because masked parameters
/// are frozen at the global value and cross-connections into dropped units
/// receive no gradient. [`aggregate_residuals`] exploits this by scattering
/// the packed delta back into full coordinates during the absorption walk.
#[derive(Debug, Clone, PartialEq)]
pub enum Residual {
    /// Full-length residual vector; zeros outside the client's mask.
    Dense(Vec<f32>),
    /// Packed residual: `values[i]` lives at full coordinate `coords[i]`.
    /// `coords` is strictly ascending and shared (it is the compiled
    /// submodel's gather map); `len` is the full parameter count.
    Packed {
        coords: Arc<Vec<u32>>,
        values: Vec<f32>,
        len: usize,
    },
}

impl Residual {
    /// Full parameter count this residual addresses.
    pub fn len(&self) -> usize {
        match self {
            Residual::Dense(r) => r.len(),
            Residual::Packed { len, .. } => *len,
        }
    }

    /// Whether the residual addresses zero parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of coordinates actually carried (the upload payload size).
    pub fn stored_values(&self) -> usize {
        match self {
            Residual::Dense(r) => r.len(),
            Residual::Packed { values, .. } => values.len(),
        }
    }

    /// Expands to a dense full-coordinate vector.
    pub fn to_dense(&self) -> Vec<f32> {
        match self {
            Residual::Dense(r) => r.clone(),
            Residual::Packed {
                coords,
                values,
                len,
            } => {
                let mut out = vec![0.0f32; *len];
                for (&i, &v) in coords.iter().zip(values.iter()) {
                    out[i as usize] = v;
                }
                out
            }
        }
    }
}

/// One staged client contribution: its data-size weight `|D_k|` and the masked
/// residual `(ω^r − ω_{k,E}) ⊙ m_{k,E}` it uploaded.
#[derive(Debug, Clone)]
pub struct StagedUpdate {
    /// Aggregation weight `|D_k|`.
    pub weight: f64,
    /// Masked residual update (Eq. 12).
    pub residual: Residual,
}

/// Eq. (13): `ω^{r+1} = Σ_k |D_k| (ω^r − ω̂_k) / Σ_k |D_k|`.
///
/// Because each client's residual is masked with its own personalized pattern
/// while `ω^r` is dense, the aggregate remains a relatively dense update of
/// the global parameters (the paper's observation below Eq. 13). Packed
/// residuals are scattered back into full coordinates on the fly: the merge
/// walk performs the same `coeff * (g - r)` arithmetic in the same coordinate
/// order as the dense case with `r = 0` off-pattern, so packed and dense
/// uploads aggregate bit-identically.
pub fn aggregate_residuals(global: &mut [f32], staged: &[StagedUpdate]) {
    aggregate_residuals_tree(global, staged, 1);
}

/// Eq. (13) sharded on the coordinate axis: the next parameter vector is
/// allocated once and split into at most `shards` disjoint contiguous
/// chunks, and each chunk replays the full ascending-staged walk restricted
/// to its own coordinates (`merge_residuals_range`), writing in place.
/// Chunks execute through the simulator's backend seam
/// ([`fedlps_sim::backend::for_each_chunk_mut`]), the one place parallelism
/// is allowed to live. Coordinates never interact in Eq. (13), so *any*
/// disjoint partition — `shards` of 0, 1, or more than `global.len()`
/// included — is **bit-identical** to the serial walk at every worker
/// count: sharding on the client axis would reassociate float additions,
/// sharding on the coordinate axis cannot.
pub fn aggregate_residuals_tree(global: &mut [f32], staged: &[StagedUpdate], shards: usize) {
    if staged.is_empty() {
        return;
    }
    for s in staged {
        assert_eq!(s.residual.len(), global.len(), "residual length mismatch");
    }
    let total_weight: f64 = staged.iter().map(|s| s.weight).sum();
    assert!(total_weight > 0.0, "aggregation weights must be positive");
    let mut next = vec![0.0f32; global.len()];
    let current = &*global;
    fedlps_sim::backend::for_each_chunk_mut(&mut next, shards, |start, chunk| {
        merge_residuals_range(current, staged, total_weight, start, chunk)
    });
    global.copy_from_slice(&next);
}

/// The Eq. (13) absorption walk restricted to the contiguous coordinates
/// `start..start + next.len()`, accumulated into the zeroed chunk `next`.
///
/// Per coordinate `i` the walk performs exactly the serial full-vector
/// sequence — for each staged update in order, `next[i] += coeff * (g[i] -
/// r[i])` with `coeff = (weight / total_weight) as f32` — and coordinates
/// never interact, so restricting the walk to a range changes no bit of any
/// coordinate it covers. Packed residuals position their ascending-coords
/// cursor with a binary search and then replay the same peekable scatter
/// walk as the full-vector case.
fn merge_residuals_range(
    global: &[f32],
    staged: &[StagedUpdate],
    total_weight: f64,
    start: usize,
    next: &mut [f32],
) {
    let range = start..start + next.len();
    for s in staged {
        let coeff = (s.weight / total_weight) as f32;
        match &s.residual {
            Residual::Dense(residual) => {
                for ((n, &g), &r) in next
                    .iter_mut()
                    .zip(global[range.clone()].iter())
                    .zip(residual[range.clone()].iter())
                {
                    *n += coeff * (g - r);
                }
            }
            Residual::Packed { coords, values, .. } => {
                let skip = coords.partition_point(|&c| (c as usize) < start);
                let mut sparse = coords[skip..].iter().zip(values[skip..].iter()).peekable();
                for (i, (n, &g)) in next
                    .iter_mut()
                    .zip(global[range.clone()].iter())
                    .enumerate()
                {
                    let coord = start + i;
                    let r = match sparse.peek() {
                        Some(&(&c, &v)) if c as usize == coord => {
                            sparse.next();
                            v
                        }
                        _ => 0.0,
                    };
                    *n += coeff * (g - r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(weight: f64, residual: Vec<f32>) -> StagedUpdate {
        StagedUpdate {
            weight,
            residual: Residual::Dense(residual),
        }
    }

    #[test]
    fn aggregation_with_zero_residuals_is_identity() {
        let mut global = vec![1.0, -2.0, 3.0];
        let staged = vec![dense(3.0, vec![0.0; 3]), dense(1.0, vec![0.0; 3])];
        aggregate_residuals(&mut global, &staged);
        assert_eq!(global, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn aggregation_moves_towards_client_models() {
        // One client with residual (ω^r − ω_k) = 1 on every coordinate means
        // its local model is ω^r − 1; with equal weights the global model moves
        // halfway when the other client reports no change.
        let mut global = vec![0.0, 0.0];
        let staged = vec![dense(1.0, vec![1.0, 1.0]), dense(1.0, vec![0.0, 0.0])];
        aggregate_residuals(&mut global, &staged);
        assert_eq!(global, vec![-0.5, -0.5]);
    }

    #[test]
    fn weights_bias_the_average() {
        let mut global = vec![0.0];
        let staged = vec![dense(3.0, vec![4.0]), dense(1.0, vec![0.0])];
        aggregate_residuals(&mut global, &staged);
        assert!((global[0] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_staging_is_a_noop() {
        let mut global = vec![5.0];
        aggregate_residuals(&mut global, &[]);
        assert_eq!(global, vec![5.0]);
    }

    #[test]
    fn sharding_edge_cases_match_the_serial_walk() {
        let packed = |weight: f64, len: usize| StagedUpdate {
            weight,
            residual: Residual::Packed {
                coords: Arc::new((0..len as u32).step_by(2).collect()),
                values: (0..len).step_by(2).map(|i| i as f32 * 0.5 - 1.0).collect(),
                len,
            },
        };
        for len in [0usize, 1, 5] {
            let base: Vec<f32> = (0..len).map(|i| 0.25 * i as f32 - 0.5).collect();
            let staged = vec![dense(2.0, vec![0.125; len]), packed(3.0, len)];
            let mut serial = base.clone();
            aggregate_residuals(&mut serial, &staged);
            // 0 and 1 stay on the calling thread; `len` gives one-coordinate
            // chunks; anything above `len` clamps to that.
            for shards in [0usize, 1, 2, len, len + 1, 64] {
                let mut sharded = base.clone();
                aggregate_residuals_tree(&mut sharded, &staged, shards);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sharded), bits(&serial), "len {len}, shards {shards}");
                // Nothing staged is a no-op at every shard count.
                aggregate_residuals_tree(&mut sharded, &[], shards);
                assert_eq!(bits(&sharded), bits(&serial));
            }
            assert!(len == 0 || serial != base, "the update moved the model");
        }
    }

    #[test]
    #[should_panic]
    fn zero_weights_panic() {
        let mut global = vec![0.0];
        aggregate_residuals(&mut global, &[dense(0.0, vec![0.0])]);
    }

    #[test]
    fn masked_residuals_only_affect_their_units() {
        // A residual that is zero outside a client's mask leaves the masked-out
        // coordinates at the weighted mean of ω^r itself (i.e. unchanged).
        let mut global = vec![2.0, 2.0];
        let staged = vec![dense(1.0, vec![1.0, 0.0])];
        aggregate_residuals(&mut global, &staged);
        assert_eq!(global, vec![1.0, 2.0]);
    }

    #[test]
    fn packed_residuals_aggregate_bit_identically_to_their_dense_expansion() {
        let coords = Arc::new(vec![1u32, 3, 4]);
        let values = vec![0.25f32, -1.5, 2.0];
        let packed = StagedUpdate {
            weight: 2.0,
            residual: Residual::Packed {
                coords,
                values,
                len: 6,
            },
        };
        let expanded = StagedUpdate {
            weight: 2.0,
            residual: Residual::Dense(packed.residual.to_dense()),
        };
        let other = dense(3.0, vec![0.5, 0.0, -0.125, 0.0, 1.0, 0.0]);

        let base: Vec<f32> = vec![0.1, -0.2, 0.3, -0.4, 0.5, -0.6];
        let mut via_packed = base.clone();
        aggregate_residuals(&mut via_packed, &[packed, other.clone()]);
        let mut via_dense = base.clone();
        aggregate_residuals(&mut via_dense, &[expanded, other]);
        for (a, b) in via_packed.iter().zip(via_dense.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_ne!(via_packed, base, "the update moved the model");
    }

    #[test]
    fn residual_accessors() {
        let r = Residual::Packed {
            coords: Arc::new(vec![0, 2]),
            values: vec![1.0, 3.0],
            len: 4,
        };
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.stored_values(), 2);
        assert_eq!(r.to_dense(), vec![1.0, 0.0, 3.0, 0.0]);
        let d = Residual::Dense(vec![1.0, 2.0]);
        assert_eq!(d.stored_values(), 2);
        assert_eq!(d.to_dense(), vec![1.0, 2.0]);
    }
}
