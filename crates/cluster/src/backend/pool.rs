//! A rank-local pool recycling [`SharedTile`] payload buffers.
//!
//! Every comm-layer *copy* of a payload is an `Arc` alias, but each send
//! would still allocate its one payload `Vec` (and the `Arc` box around
//! it). [`TilePayloadPool`] removes that last per-send allocation: the
//! sender keeps a clone of every tile it sends, and the next
//! [`TilePayloadPool::acquire`] of the same size reuses the first retired
//! tile whose strong count has returned to 1 — meaning the message left the
//! mailbox and the receiver dropped it.
//!
//! Tiles are bucketed by exact payload length (the overlap-region sizes of
//! a decomposition are a small fixed set), so a recycled buffer never needs
//! resizing and the steady state performs literally zero allocations —
//! pinned by `tests/alloc_regression.rs`.
//!
//! The recycle point is the receiver's drop: once the receiving rank has
//! folded a payload into its buffers and dropped it, the sender's retired
//! alias is the last one, and reuse kicks in within the same exchange round
//! on every policy.
//!
//! The pool is deliberately rank-local and unsynchronised: payload buffers
//! never migrate between ranks (only their `Arc` aliases do), so no locking
//! is needed.

use super::SharedTile;
use std::collections::HashMap;

/// A rank-local free-list of retired [`SharedTile`]s, bucketed by payload
/// length (see the module docs).
#[derive(Debug, Default)]
pub struct TilePayloadPool {
    buckets: HashMap<usize, Vec<SharedTile>>,
}

impl TilePayloadPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool holding `copies` reusable tiles for each entry of `lens` (a
    /// length listed twice gets twice the copies): sized up front for a
    /// rank that sends messages of those lengths, so the warm-up exchanges
    /// need not grow it.
    pub fn with_capacity(lens: &[usize], copies: usize) -> Self {
        let mut pool = Self::new();
        for &len in lens {
            for _ in 0..copies {
                pool.retire(SharedTile::new(vec![0.0; len]));
            }
        }
        pool
    }

    /// Returns a tile of exactly `len` values with unique ownership
    /// (`ref_count() == 1`), reusing a retired buffer of the same length
    /// when one has been released by every alias, allocating a fresh one
    /// otherwise. The contents are unspecified — the caller must overwrite
    /// them fully.
    pub fn acquire(&mut self, len: usize) -> SharedTile {
        if let Some(bucket) = self.buckets.get_mut(&len) {
            for i in 0..bucket.len() {
                if bucket[i].ref_count() == 1 {
                    return bucket.swap_remove(i);
                }
            }
        }
        SharedTile::new(vec![0.0; len])
    }

    /// Hands a sent tile back to the pool. The pool holds it (keeping one
    /// alias alive) until every comm-layer alias is dropped, at which point
    /// `acquire` can recycle its buffer.
    pub fn retire(&mut self, tile: SharedTile) {
        self.buckets.entry(tile.len()).or_default().push(tile);
    }

    /// Number of tiles currently retired (reusable or still aliased).
    pub fn retired(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Number of retired tiles whose every alias has been dropped — the
    /// buffers the next acquires will reuse without allocating.
    pub fn reusable(&self) -> usize {
        self.buckets
            .values()
            .flatten()
            .filter(|t| t.ref_count() == 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_a_released_buffer() {
        let mut pool = TilePayloadPool::new();
        let tile = pool.acquire(8);
        let ptr = tile.values().as_ptr();
        pool.retire(tile);
        assert_eq!(pool.reusable(), 1);
        let again = pool.acquire(8);
        assert_eq!(
            again.values().as_ptr(),
            ptr,
            "a fully released tile must be recycled, not reallocated"
        );
        assert_eq!(pool.retired(), 0);
    }

    #[test]
    fn aliased_tiles_are_not_recycled() {
        let mut pool = TilePayloadPool::new();
        let tile = pool.acquire(4);
        let in_flight = tile.clone(); // the mailbox / receiver alias
        let ptr = tile.values().as_ptr();
        pool.retire(tile);
        assert_eq!(pool.reusable(), 0, "an in-flight tile is not reusable");
        let fresh = pool.acquire(4);
        assert_ne!(
            fresh.values().as_ptr(),
            ptr,
            "an aliased buffer must never be handed out for reuse"
        );
        drop(in_flight);
        assert_eq!(pool.reusable(), 1, "dropping the alias releases the tile");
    }

    #[test]
    fn a_sent_tile_is_reusable_once_the_receiver_drops_it() {
        use crate::backend::{CommBackend, LockstepBackend, RankComm};
        let outcomes = LockstepBackend::default()
            .run::<SharedTile, (usize, usize), _>(2, |ctx| {
                if ctx.rank() == 0 {
                    let mut pool = TilePayloadPool::new();
                    let tile = pool.acquire(16);
                    ctx.isend(1, 0x1, tile.clone());
                    pool.retire(tile);
                    let in_flight = pool.reusable();
                    // Rank 1 has received and dropped the payload once it
                    // reaches this barrier.
                    ctx.barrier()?;
                    Ok((in_flight, pool.reusable()))
                } else {
                    drop(ctx.recv(0, 0x1)?);
                    ctx.barrier()?;
                    Ok((0, 0))
                }
            })
            .unwrap();
        assert_eq!(
            outcomes[0].result,
            (0, 1),
            "aliased while in flight, reusable after the receiver's drop"
        );
    }

    #[test]
    fn with_capacity_holds_reusable_copies_of_each_length() {
        let mut pool = TilePayloadPool::with_capacity(&[4, 6, 4], 2);
        assert_eq!((pool.retired(), pool.reusable()), (6, 6));
        let fours: Vec<SharedTile> = (0..4).map(|_| pool.acquire(4)).collect();
        assert!(fours.iter().all(|tile| tile.len() == 4));
        assert_eq!(pool.retired(), 2, "the four 4s came from the pool");
    }

    #[test]
    fn buckets_separate_payload_sizes() {
        let mut pool = TilePayloadPool::new();
        let big = pool.acquire(100);
        let big_ptr = big.values().as_ptr();
        pool.retire(big);
        // A different size opens its own bucket instead of resizing.
        let small = pool.acquire(60);
        assert_ne!(small.values().as_ptr(), big_ptr);
        assert_eq!(small.len(), 60);
        pool.retire(small);
        assert_eq!(pool.retired(), 2);
        assert_eq!(pool.reusable(), 2);
        // Each size recycles its own buffer.
        assert_eq!(pool.acquire(100).values().as_ptr(), big_ptr);
    }
}
