//! A reusable scratch-buffer pool for transient matrices, plus a flat
//! [`Arena`] for the packed client step.
//!
//! The per-batch forward/backward passes of the neural-network layers need a
//! handful of short-lived matrices (weight blocks, gradient accumulators,
//! re-materialised activations). Allocating them fresh on every minibatch
//! turns the hot loop into an allocator benchmark; [`ScratchPool`] recycles
//! the backing buffers instead. [`with_pool`] exposes one pool per thread so
//! the pure, `&self` model code can borrow scratch space without threading a
//! pool parameter through every call — and without any cross-thread sharing
//! that could perturb the deterministic parallel passes.
//!
//! Buffers handed out by [`take`](ScratchPool::take) are always zero-filled,
//! so pooled and freshly-allocated matrices are interchangeable bit for bit.
//!
//! Reuse is size-bucketed: idle buffers live in power-of-two capacity
//! classes, LIFO within each class. A request pops the most recently
//! recycled buffer of its own class (the per-batch model passes cycle
//! through a fixed set of shapes, so this keeps the hot loop touching the
//! same cache-warm allocations), walking up to larger classes only when its
//! own is empty. A large buffer — e.g. the packed client step's flat
//! [`Arena`] — therefore never gets burned on a small request, and a small
//! buffer is never popped for a large request and reallocated (the old
//! plain-LIFO failure mode).

use std::cell::RefCell;

use crate::matrix::Matrix;

/// Number of power-of-two capacity classes (class 63 covers any `usize`).
const CLASSES: usize = 64;

/// The size class of a buffer: `floor(log2(capacity))`, so every buffer in
/// class `c` has capacity in `[2^c, 2^(c+1))`.
fn class_of(capacity: usize) -> usize {
    debug_assert!(capacity > 0);
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// A pool of `Vec<f32>` buffers re-shaped into matrices (or flat arenas) on
/// demand, with size-bucketed (power-of-two class, LIFO within class) reuse.
#[derive(Debug)]
pub struct ScratchPool {
    buckets: Vec<Vec<Vec<f32>>>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self {
            buckets: (0..CLASSES).map(|_| Vec::new()).collect(),
        }
    }
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled `rows x cols` matrix, reusing a pooled buffer when one
    /// is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_vec(rows * cols))
    }

    /// A zero-filled buffer of `len` elements, reusing a pooled buffer
    /// ([`take_empty`](Self::take_empty), then one zero fill).
    pub fn take_vec(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_empty(len);
        buf.resize(len, 0.0);
        buf
    }

    /// An empty buffer with capacity for at least `len` elements, reusing a
    /// pooled buffer without writing to it, for a caller that fills the
    /// buffer itself.
    ///
    /// The request's own class is tried first: its top buffer is reused when
    /// it is large enough (same-size take/recycle cycles always hit this
    /// cache-warm path). Otherwise the smallest non-empty larger class
    /// serves the request — every buffer there is guaranteed to fit — and
    /// only when all of those are empty is a fresh buffer allocated.
    pub fn take_empty(&mut self, len: usize) -> Vec<f32> {
        let c = class_of(len.max(1));
        let fits = self.buckets[c]
            .last()
            .is_some_and(|top| top.capacity() >= len);
        let reused = if fits {
            self.buckets[c].pop()
        } else {
            self.buckets[c + 1..]
                .iter_mut()
                .find_map(|bucket| bucket.pop())
        };
        let mut buf = reused.unwrap_or_default();
        buf.clear();
        buf.reserve(len);
        buf
    }

    /// Returns a matrix's backing buffer to the pool for reuse.
    pub fn recycle(&mut self, m: Matrix) {
        self.recycle_vec(m.into_vec());
    }

    /// Returns a flat buffer to the pool for reuse.
    pub fn recycle_vec(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.buckets[class_of(buf.capacity())].push(buf);
        }
    }

    /// Number of idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Folds every idle buffer of `other` into this pool.
    fn absorb(&mut self, other: ScratchPool) {
        for bucket in other.buckets {
            for buf in bucket {
                self.recycle_vec(buf);
            }
        }
    }
}

thread_local! {
    static POOL: RefCell<ScratchPool> = RefCell::new(ScratchPool::new());
}

/// Runs `f` with this thread's scratch pool.
///
/// Re-entrant: the pool is moved out of the thread-local slot for the
/// duration of `f`, so a nested `with_pool` call (e.g. an architecture whose
/// hot loop composes another pooled model) starts from an empty pool instead
/// of panicking on a second `RefCell` borrow. Buffers a nested call leaves
/// behind are folded back into the outer pool on exit, so nothing leaks.
pub fn with_pool<R>(f: impl FnOnce(&mut ScratchPool) -> R) -> R {
    let mut pool = POOL.with(RefCell::take);
    let result = f(&mut pool);
    POOL.with(|cell| {
        let nested = cell.take();
        pool.absorb(nested);
        cell.replace(pool);
    });
    result
}

/// A flat scratch arena: one backing `Vec<f32>` carved into disjoint
/// zero-filled views.
///
/// The packed client step needs several parameter-sized buffers at once
/// (masked parameters, gradient, packed parameters, packed gradient); an
/// arena replaces those per-step `Vec` allocations with one backing buffer
/// drawn from — and returned to — this thread's [`ScratchPool`]. The arena
/// owns its buffer, so nested [`with_pool`] calls inside the step (every
/// model forward/backward) keep their own pooling undisturbed.
#[derive(Debug, Default)]
pub struct Arena {
    buf: Vec<f32>,
}

impl Arena {
    /// An arena whose backing buffer is drawn from this thread's pool, with
    /// at least `capacity` elements reserved so steady-state re-carving
    /// (e.g. one arena per client step) stops reallocating once the pool
    /// holds a buffer of the working-set size. The buffer is taken unfilled:
    /// [`views`](Self::views) zero-fills what it carves.
    pub fn from_pool(capacity: usize) -> Self {
        Self {
            buf: with_pool(|pool| pool.take_empty(capacity)),
        }
    }

    /// Returns the backing buffer to this thread's pool.
    pub fn release(self) {
        with_pool(|pool| pool.recycle_vec(self.buf));
    }

    /// Carves the arena into `N` disjoint zero-filled views of the given
    /// lengths, resizing the backing buffer once to their sum.
    ///
    /// Each call re-carves the whole arena, invalidating previous views
    /// (the borrow checker enforces this).
    pub fn views<const N: usize>(&mut self, lens: [usize; N]) -> [&mut [f32]; N] {
        let total: usize = lens.iter().sum();
        self.buf.clear();
        self.buf.resize(total, 0.0);
        let mut rest: &mut [f32] = &mut self.buf;
        let mut views: Vec<&mut [f32]> = Vec::with_capacity(N);
        for len in lens {
            let (head, tail) = rest.split_at_mut(len);
            views.push(head);
            rest = tail;
        }
        match views.try_into() {
            Ok(arr) => arr,
            Err(_) => unreachable!("exactly N views are carved"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_matrices() {
        let mut pool = ScratchPool::new();
        let mut m = pool.take(2, 3);
        assert_eq!(m.as_slice(), &[0.0; 6]);
        m.as_mut_slice().fill(7.0);
        pool.recycle(m);
        // The recycled buffer comes back clean even at a different shape.
        let again = pool.take(3, 3);
        assert_eq!(again.as_slice(), &[0.0; 9]);
    }

    #[test]
    fn recycling_reuses_buffers() {
        let mut pool = ScratchPool::new();
        let m = pool.take(4, 4);
        assert_eq!(pool.idle(), 0);
        pool.recycle(m);
        assert_eq!(pool.idle(), 1);
        let _ = pool.take(2, 2);
        assert_eq!(pool.idle(), 0, "the pooled buffer was reused");
    }

    /// Satellite: a large-small-large take sequence must reuse the large
    /// buffer for the second large request. Under the old plain-LIFO pop
    /// the small buffer (recycled last) would be popped and reallocated.
    #[test]
    fn buckets_survive_large_small_large_sequence() {
        let mut pool = ScratchPool::new();
        let large = pool.take_vec(1024);
        let large_ptr = large.as_ptr();
        let small = pool.take_vec(16);
        pool.recycle_vec(large);
        pool.recycle_vec(small); // small was recycled last
        let again = pool.take_vec(1024);
        assert_eq!(
            again.as_ptr(),
            large_ptr,
            "the large request must reuse the large idle buffer"
        );
        // The small buffer is still pooled, and a small request gets it
        // (its own size class, not just any buffer that covers the request).
        assert_eq!(pool.idle(), 1);
        let small_again = pool.take_vec(8);
        assert!(
            small_again.capacity() < 1024,
            "small request picked the small buffer"
        );
    }

    #[test]
    fn small_buffers_are_never_grown_for_large_requests() {
        let mut pool = ScratchPool::new();
        pool.recycle_vec(vec![1.0; 8]);
        pool.recycle_vec(vec![2.0; 64]);
        // Nothing pooled covers 128: the request gets a fresh buffer and
        // both idle buffers stay pooled for their own size classes.
        let grown = pool.take_vec(128);
        assert_eq!(grown.len(), 128);
        assert_eq!(pool.idle(), 2);
        assert!(
            pool.take_vec(1).capacity() <= 8,
            "smallest class serves first"
        );
        assert!(pool.take_vec(33).capacity() <= 64);
    }

    #[test]
    fn same_size_cycles_reuse_the_same_allocation() {
        let mut pool = ScratchPool::new();
        // Odd (non-power-of-two) length: the buffer's capacity class is
        // below the next power of two, and the take must still find it.
        let buf = pool.take_vec(100);
        let ptr = buf.as_ptr();
        pool.recycle_vec(buf);
        let again = pool.take_vec(100);
        assert_eq!(again.as_ptr(), ptr, "steady-state cycle stays hot");
    }

    #[test]
    fn thread_local_pool_is_usable_reentrantly() {
        let outer = with_pool(|pool| {
            let m = pool.take(2, 2);
            pool.recycle(m);
            // A nested call must not panic, and its recycled buffers must
            // survive into the shared pool.
            with_pool(|inner| {
                let m = inner.take(3, 3);
                inner.recycle(m);
            });
            pool.idle()
        });
        assert!(outer >= 1);
        // A later borrow on the same thread sees both pools' buffers.
        with_pool(|pool| assert!(pool.idle() >= 2));
    }

    #[test]
    fn arena_views_are_disjoint_zeroed_and_recycled() {
        let mut arena = Arena::from_pool(4);
        let [a, b, c] = arena.views([3, 0, 5]);
        assert_eq!(a, &[0.0; 3]);
        assert_eq!(b, &[] as &[f32]);
        assert_eq!(c, &[0.0; 5]);
        a.fill(1.0);
        c.fill(2.0);
        assert_eq!(a, &[1.0; 3]);
        assert_eq!(c, &[2.0; 5]);
        // Re-carving zeroes everything again.
        let [d] = arena.views([8]);
        assert_eq!(d, &[0.0; 8]);
        let cap = 8;
        arena.release();
        // The backing buffer went back to this thread's pool.
        with_pool(|pool| {
            assert!(pool.idle() >= 1);
            let reclaimed = pool.take_vec(cap);
            assert_eq!(reclaimed, vec![0.0; cap]);
        });
    }

    #[test]
    fn arena_views_of_a_dirty_pooled_buffer_are_positive_zero() {
        // An odd length gives the dirty buffer a size class of its own on
        // this thread's pool, so the arena takes exactly that buffer.
        let len = 777;
        let mut dirty = vec![f32::NAN; len];
        dirty[..len / 2].fill(-0.0);
        let ptr = dirty.as_ptr();
        with_pool(|pool| pool.recycle_vec(dirty));
        let mut arena = Arena::from_pool(len);
        let [a, b, c] = arena.views([300, 0, len - 300]);
        assert_eq!(a.as_ptr(), ptr, "the arena reuses the dirty buffer");
        for v in a.iter().chain(b.iter()).chain(c.iter()) {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
        arena.release();
    }

    #[test]
    fn take_empty_reuses_capacity_without_a_fill() {
        let mut pool = ScratchPool::new();
        let buf = pool.take_vec(100);
        let ptr = buf.as_ptr();
        pool.recycle_vec(buf);
        let again = pool.take_empty(100);
        assert!(again.is_empty());
        assert!(again.capacity() >= 100);
        assert_eq!(again.as_ptr(), ptr);
    }
}
