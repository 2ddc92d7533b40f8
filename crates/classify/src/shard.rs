//! Deterministic sharding primitives for the parallel study pipeline.
//!
//! Everything CPU-bound in the pipeline (comment scoring, synth text
//! generation, SVM cross-validation folds, ADASYN synthesis) is split
//! into **index-ordered shards** whose outputs are merged back in
//! canonical (ascending shard id) order. Three rules make the result
//! byte-identical at any worker count:
//!
//! 1. **Stable shard geometry** — shard boundaries are a pure function
//!    of the input length and a fixed shard size ([`shard_bounds`]),
//!    never of the worker count or of scheduling order.
//! 2. **Seed splitting by stable id** — every shard (or item) that needs
//!    randomness derives its own RNG stream via [`stream_seed`] from the
//!    parent seed and its *stable* shard/item index, never from the
//!    thread that happens to run it.
//! 3. **Canonical merge** — shard outputs are concatenated in ascending
//!    shard-id order ([`merge_shards`]), regardless of completion order.
//!
//! The scatter-gather executor that runs shards on the shared
//! `httpnet::ThreadPool` lives with the pool; this module also provides
//! [`map_sharded`], a scoped-thread runner for crates below the network
//! layer. Both produce identical output by construction.

use std::ops::Range;

/// Default shard size for per-comment work (scoring, text generation).
/// Small enough to load-balance an 8-worker pool on test-sized worlds,
/// large enough that per-shard overhead is negligible at paper scale.
pub const DEFAULT_SHARD_SIZE: usize = 512;

/// Split `n` items into contiguous index-ordered shards of at most
/// `shard_size` items. Every index in `0..n` lands in exactly one shard,
/// shards are non-empty, and their concatenation covers `0..n` in order.
/// `n == 0` yields no shards.
pub fn shard_bounds(n: usize, shard_size: usize) -> Vec<Range<usize>> {
    assert!(shard_size >= 1, "shard size must be at least 1");
    let mut out = Vec::with_capacity(n.div_ceil(shard_size));
    let mut start = 0;
    while start < n {
        let end = (start + shard_size).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// The canonical seed-splitting rule: derive the RNG seed for a shard (or
/// item) from the parent seed and its stable id. SplitMix64 finalizer
/// over `parent ^ (id · φ64)`; bijective in `id` for a fixed parent, so
/// distinct ids always receive distinct seeds, and the streams they seed
/// are independent in practice (xoshiro256** seeded via SplitMix64).
///
/// This is the same mix `synth::dist::child_seed` applies to its
/// top-level generator streams; sharded stages apply it one level deeper
/// (`stream_seed(child_seed(world_seed, STAGE), item_index)`).
pub fn stream_seed(parent: u64, id: u64) -> u64 {
    let mut z = parent ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Merge shard outputs in canonical (ascending shard id) order.
/// `shards[i]` must be the output of shard `i`; the result is their
/// concatenation — the order the serial pipeline would have produced.
pub fn merge_shards<T>(shards: Vec<Vec<T>>) -> Vec<T> {
    let total = shards.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for shard in shards {
        out.extend(shard);
    }
    out
}

/// Run `f(shard_id, shard_items)` over index-ordered shards of `items`
/// on `workers` scoped threads and merge the outputs canonically.
///
/// Output is identical for every `workers >= 1` (including 1, which runs
/// the shards inline): work is *assigned* by atomically claiming the next
/// shard id, but shard content, per-shard seeds, and merge order depend
/// only on the shard id.
pub fn map_sharded<T, R, F>(
    items: &[T],
    shard_size: usize,
    workers: usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let bounds = shard_bounds(items.len(), shard_size);
    if bounds.is_empty() {
        return Vec::new();
    }
    let workers = workers.max(1).min(bounds.len());
    if workers == 1 {
        let mut shards = Vec::with_capacity(bounds.len());
        for (id, r) in bounds.iter().enumerate() {
            shards.push(f(id, &items[r.clone()]));
        }
        return merge_shards(shards);
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Vec<R>>>> =
        Mutex::new((0..bounds.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                let Some(range) = bounds.get(id) else { break };
                let out = f(id, &items[range.clone()]);
                slots.lock().unwrap_or_else(|e| e.into_inner())[id] = Some(out);
            });
        }
    });
    let shards = slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|s| s.expect("every shard ran"))
        .collect();
    merge_shards(shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_partition_in_order() {
        let b = shard_bounds(10, 3);
        assert_eq!(b, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(shard_bounds(0, 3), Vec::<Range<usize>>::new());
        assert_eq!(shard_bounds(1, 3), vec![0..1]);
        assert_eq!(shard_bounds(3, 3), vec![0..3]);
    }

    #[test]
    fn stream_seeds_distinct_for_distinct_ids() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u64 {
            assert!(seen.insert(stream_seed(42, id)), "collision at {id}");
        }
    }

    #[test]
    fn map_sharded_matches_serial_for_any_worker_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let f = |id: usize, shard: &[u64]| {
            shard.iter().map(|&x| x * 3 + stream_seed(7, id as u64) % 2).collect::<Vec<_>>()
        };
        let serial = map_sharded(&items, 64, 1, f);
        for workers in [2, 3, 8] {
            assert_eq!(map_sharded(&items, 64, workers, f), serial, "workers={workers}");
        }
        assert_eq!(serial.len(), items.len());
    }

    #[test]
    fn map_sharded_empty_input() {
        let out: Vec<u32> = map_sharded(&[] as &[u8], 16, 4, |_, _| vec![]);
        assert!(out.is_empty());
    }

    #[test]
    fn merge_preserves_order_and_count() {
        let merged = merge_shards(vec![vec![1, 2], vec![], vec![3], vec![4, 5]]);
        assert_eq!(merged, vec![1, 2, 3, 4, 5]);
    }
}
