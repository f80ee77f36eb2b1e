//! A rank-local pool recycling [`SharedTile`] payload buffers.
//!
//! ISSUE 4 made every comm-layer *copy* of a payload an `Arc` alias, but
//! each send still allocated its one payload `Vec` (and the `Arc` box
//! around it). [`TilePayloadPool`] removes that last per-send allocation:
//! the sender keeps a clone of every tile it sends, and the next
//! [`TilePayloadPool::acquire`] of the same size reuses the first retired
//! tile whose strong count has returned to 1 — meaning the receiver
//! consumed it *and* every comm-layer alias (mailbox envelope,
//! [`ReliableComm`] retransmit outbox, fault-injection duplicate) has been
//! dropped.
//!
//! Tiles are bucketed by exact payload length (the overlap-region sizes of
//! a decomposition are a small fixed set), so a recycled buffer never needs
//! resizing and the steady state performs literally zero allocations —
//! pinned by `tests/alloc_regression.rs`.
//!
//! The natural recycle point under reliable delivery is the consistency
//! barrier: [`ReliableComm::barrier`] drains the acknowledged outbox, which
//! releases the last comm-layer reference to each delivered payload, so
//! tiles retired before a barrier become reusable right after it. On the
//! raw (fail-fast) path the receiver's `recv` is the release point and
//! reuse kicks in within the same exchange round.
//!
//! The pool is deliberately rank-local and unsynchronised: payload buffers
//! never migrate between ranks (only their `Arc` aliases do), so no locking
//! is needed.
//!
//! [`ReliableComm`]: super::ReliableComm
//! [`ReliableComm::barrier`]: super::RankComm::barrier

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
        let in_flight = tile.clone(); // the mailbox / outbox alias
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
