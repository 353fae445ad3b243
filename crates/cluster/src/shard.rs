//! Shard planning: contiguous ranges over the entry-sorted sample
//! order.
//!
//! A shard is a half-open range of **positions** in the canonical
//! entry-cycle order (`nestsim_core::campaign::entry_order`) — not of
//! raw sample indices — so a worker executing positions left to right,
//! and taking leases in shard order, presents ascending entry cycles to
//! its one `ShardWalk`, exactly like an in-process worker thread. The
//! coordinator therefore needs
//! nothing but the sample *count* to plan work: zero simulation happens
//! coordinator-side.

/// One unit of leased work: positions `start .. start + len` of the
/// entry-sorted order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Dense shard id (`0..shard_count`) — the dedupe key for
    /// idempotent re-dispatch.
    pub id: u32,
    /// First position in the entry-sorted order.
    pub start: u64,
    /// Number of positions.
    pub len: u64,
}

impl Shard {
    /// The half-open position range this shard covers.
    pub fn range(&self) -> std::ops::Range<u64> {
        self.start..self.start + self.len
    }
}

/// Plans shards of at most `shard_size` positions covering
/// `0..total` exactly once, in position order (the exact-cover
/// property the proptest suite locks).
///
/// # Panics
///
/// Panics on a zero `shard_size` — it could cover nothing.
pub fn plan_shards(total: u64, shard_size: u64) -> Vec<Shard> {
    assert!(shard_size >= 1, "shard_size must be >= 1");
    let count = total.div_ceil(shard_size);
    (0..count)
        .map(|k| {
            let start = k * shard_size;
            Shard {
                id: k as u32,
                start,
                len: shard_size.min(total - start),
            }
        })
        .collect()
}

/// Default shard size for `total` samples across `workers` workers:
/// four shards per worker (so a re-dispatched shard costs ~1/4 of a
/// worker's share, and stragglers rebalance), never zero.
pub fn auto_shard_size(total: u64, workers: usize) -> u64 {
    total.div_ceil(4 * workers.max(1) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_the_space_exactly() {
        for (total, size) in [(0u64, 3u64), (1, 1), (7, 3), (12, 4), (100, 7)] {
            let shards = plan_shards(total, size);
            let mut covered = Vec::new();
            for (k, s) in shards.iter().enumerate() {
                assert_eq!(s.id as usize, k, "ids are dense");
                assert!(s.len >= 1 || total == 0);
                assert!(s.len <= size);
                covered.extend(s.range());
            }
            assert_eq!(covered, (0..total).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_campaign_plans_no_shards() {
        assert!(plan_shards(0, 5).is_empty());
    }

    #[test]
    fn auto_shard_size_gives_four_shards_per_worker() {
        assert_eq!(auto_shard_size(160, 4), 10);
        assert_eq!(auto_shard_size(3, 8), 1, "never zero");
        assert_eq!(auto_shard_size(0, 2), 1);
        let shards = plan_shards(160, auto_shard_size(160, 4));
        assert_eq!(shards.len(), 16);
    }

    #[test]
    #[should_panic(expected = "shard_size must be >= 1")]
    fn zero_shard_size_is_rejected() {
        let _ = plan_shards(10, 0);
    }
}
