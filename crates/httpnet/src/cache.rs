//! Response caching for the conditional-request fast path.
//!
//! Two halves of one protocol:
//!
//! * [`ResponseCache`] — the **server-side** bounded, sharded response
//!   cache. Keys are `(method, target, visibility class)`: the target
//!   carries path *and* query string, and the visibility class encodes
//!   the viewer's effective filter set, because NSFW/offensive shadow
//!   views must never leak through a cache entry shared with an
//!   anonymous session. Eviction is seeded-deterministic: given the same
//!   insertion sequence, the same victims are chosen (the victim index
//!   comes from a SplitMix64 stream per shard, not from wall-clock or
//!   map iteration order).
//! * [`RevalidationCache`] — the **client-side** store of
//!   `(ETag, response)` pairs keyed by cookie context + target. The
//!   [`Client`](crate::Client) uses it to send `If-None-Match` and to
//!   resurrect the full 200 representation when the server answers
//!   `304 Not Modified`, which is what makes the crawler's incremental
//!   re-crawl cheap without changing what callers observe.
//!
//! Metrics (when a registry is attached): counters `cache.hits`,
//! `cache.misses`, `cache.evictions`, and gauge `cache.bytes` (resident
//! body+header bytes). These are timing-dependent under concurrency and
//! are deliberately excluded from every deterministic render surface.

use crate::http::Response;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Advance a SplitMix64 state and return the next value.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes — the repo-wide fingerprint hash.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Server-cache tuning.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of independently locked shards (rounded up to ≥ 1).
    pub shards: usize,
    /// Total entry capacity across all shards.
    pub capacity: usize,
    /// Entries with a body larger than this are never cached (a single
    /// giant page must not evict the whole working set).
    pub max_entry_bytes: usize,
    /// Seed for the per-shard eviction streams.
    pub seed: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { shards: 8, capacity: 1024, max_entry_bytes: 256 * 1024, seed: 0x5eed_cafe }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    method: String,
    target: String,
    class: String,
}

struct Shard {
    map: HashMap<CacheKey, Arc<Response>>,
    /// Insertion order; eviction victims are drawn from here by index.
    order: Vec<CacheKey>,
    rng: u64,
}

/// Bounded, sharded, seeded-deterministic response cache (see module
/// docs for the key and eviction contract).
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    max_entry_bytes: usize,
    bytes: AtomicU64,
    metrics: Option<obs::Registry>,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("shards", &self.shards.len())
            .field("per_shard_cap", &self.per_shard_cap)
            .field("entries", &self.len())
            .field("bytes", &self.resident_bytes())
            .finish()
    }
}

impl ResponseCache {
    /// A cache with the given tuning and no metrics.
    pub fn new(config: CacheConfig) -> Self {
        Self::build(config, None)
    }

    /// A cache publishing `cache.*` metrics into `registry`.
    pub fn with_registry(config: CacheConfig, registry: &obs::Registry) -> Self {
        Self::build(config, Some(registry.clone()))
    }

    fn build(config: CacheConfig, metrics: Option<obs::Registry>) -> Self {
        let shards = config.shards.max(1);
        let per_shard_cap = config.capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards)
                .map(|i| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: Vec::new(),
                        rng: config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    })
                })
                .collect(),
            per_shard_cap,
            max_entry_bytes: config.max_entry_bytes,
            bytes: AtomicU64::new(0),
            metrics,
        }
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<Shard> {
        let h = fnv1a(&[key.method.as_bytes(), key.target.as_bytes(), key.class.as_bytes()]);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn count(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.inc(name);
        }
    }

    fn publish_bytes(&self) {
        if let Some(m) = &self.metrics {
            m.set_gauge("cache.bytes", self.bytes.load(Ordering::Relaxed) as f64);
        }
    }

    /// Cached response for `(method, target, class)`, cloned out.
    pub fn lookup(&self, method: &str, target: &str, class: &str) -> Option<Response> {
        let key = CacheKey { method: method.into(), target: target.into(), class: class.into() };
        let shard = self.shard_for(&key).lock().unwrap();
        let hit = shard.map.get(&key).map(|r| (**r).clone());
        drop(shard);
        self.count(if hit.is_some() { "cache.hits" } else { "cache.misses" });
        hit
    }

    /// Insert a response. Oversized bodies are skipped; when a shard is
    /// at capacity, a seeded-deterministic victim is evicted first.
    pub fn insert(&self, method: &str, target: &str, class: &str, resp: &Response) {
        if resp.body.len() > self.max_entry_bytes {
            return;
        }
        let key = CacheKey { method: method.into(), target: target.into(), class: class.into() };
        let size = entry_bytes(resp);
        let mut evicted = 0u64;
        {
            let mut shard = self.shard_for(&key).lock().unwrap();
            let mut freed = 0u64;
            if let Some(old) = shard.map.insert(key.clone(), Arc::new(resp.clone())) {
                freed += entry_bytes(&old);
            } else {
                shard.order.push(key);
                while shard.order.len() > self.per_shard_cap {
                    let victim_idx =
                        (splitmix64(&mut shard.rng) % shard.order.len() as u64) as usize;
                    let victim = shard.order.swap_remove(victim_idx);
                    if let Some(old) = shard.map.remove(&victim) {
                        freed += entry_bytes(&old);
                    }
                    evicted += 1;
                }
            }
            // Under the shard lock, so an entry's add always lands
            // before any sub for the same entry — no underflow.
            self.bytes.fetch_add(size, Ordering::Relaxed);
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        if let (Some(m), true) = (&self.metrics, evicted > 0) {
            m.add("cache.evictions", evicted);
        }
        self.publish_bytes();
    }

    /// Drop every entry (used when a world-visible mutation invalidates
    /// the whole generation).
    pub fn purge(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            let freed: u64 = s.map.values().map(|r| entry_bytes(r)).sum();
            s.map.clear();
            s.order.clear();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        self.publish_bytes();
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident body+header bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

fn entry_bytes(resp: &Response) -> u64 {
    let headers: usize = resp.headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    (resp.body.len() + headers) as u64
}

/// Client-side revalidation stats (see [`RevalidationCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RevalStats {
    /// Entries currently held.
    pub entries: usize,
    /// 200-with-ETag responses stored.
    pub stored: u64,
    /// 304s answered from the cache (full representation resurrected).
    pub revalidated: u64,
}

struct RevalShard {
    map: HashMap<String, (String, Arc<Response>)>,
    order: std::collections::VecDeque<String>,
    stored: u64,
    revalidated: u64,
}

/// Client-side `(ETag, response)` store keyed by cookie context +
/// target. Cloning shares the underlying store, so one cache can serve
/// every worker of a crawl and persist across sweeps.
///
/// The store is sharded: every crawl worker touches the cache once or
/// twice per request (`If-None-Match` lookup, then either a store or a
/// 304 resurrection), so a single lock would serialize the whole
/// incremental sweep. Bodies are held behind `Arc` and cloned outside
/// the shard lock, so no worker memcpys a response body while holding a
/// lock another worker needs.
#[derive(Clone)]
pub struct RevalidationCache {
    shards: Arc<Vec<Mutex<RevalShard>>>,
    per_shard_cap: usize,
}

impl std::fmt::Debug for RevalidationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("RevalidationCache")
            .field("entries", &s.entries)
            .field("stored", &s.stored)
            .field("revalidated", &s.revalidated)
            .finish()
    }
}

impl RevalidationCache {
    /// A cache bounded to roughly `capacity` entries (FIFO eviction per
    /// shard; the bound is exact when `capacity` divides evenly across
    /// the shards).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = capacity.min(16);
        Self {
            shards: Arc::new(
                (0..n_shards)
                    .map(|_| {
                        Mutex::new(RevalShard {
                            map: HashMap::new(),
                            order: std::collections::VecDeque::new(),
                            stored: 0,
                            revalidated: 0,
                        })
                    })
                    .collect(),
            ),
            per_shard_cap: capacity.div_ceil(n_shards).max(1),
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<RevalShard> {
        let h = fnv1a(&[key.as_bytes()]);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// The ETag to send as `If-None-Match` for `key`, if one is held.
    pub fn etag_for(&self, key: &str) -> Option<String> {
        self.shard_for(key).lock().unwrap().map.get(key).map(|(etag, _)| etag.clone())
    }

    /// Store a 200-with-ETag response. Non-200s and untagged responses
    /// are ignored — a 404 is data, not a cacheable representation.
    pub fn store(&self, key: &str, resp: &Response) {
        if resp.status != crate::http::Status::OK {
            return;
        }
        let Some(etag) = resp.etag().map(str::to_owned) else { return };
        // Clone the representation before taking the shard lock: the
        // body memcpy must not serialize other workers.
        let held = Arc::new(resp.clone());
        let mut shard = self.shard_for(key).lock().unwrap();
        shard.stored += 1;
        if shard.map.insert(key.to_owned(), (etag, held)).is_none() {
            shard.order.push_back(key.to_owned());
            while shard.order.len() > self.per_shard_cap {
                if let Some(victim) = shard.order.pop_front() {
                    shard.map.remove(&victim);
                }
            }
        }
    }

    /// A server said `304 Not Modified` for `key`: return the stored
    /// full representation (cloned outside the shard lock), or `None`
    /// if it was evicted — the caller must then re-request without
    /// `If-None-Match`.
    pub fn take_revalidated(&self, key: &str) -> Option<Response> {
        let held = {
            let mut shard = self.shard_for(key).lock().unwrap();
            let held = shard.map.get(key).map(|(_, r)| Arc::clone(r))?;
            shard.revalidated += 1;
            held
        };
        Some((*held).clone())
    }

    /// Visit every held entry in key order without cloning bodies — the
    /// journal calls this at each phase commit, where a full-cache clone
    /// would dominate the commit. Entries are gathered shard by shard (cheap
    /// `Arc` bumps) and visited with no lock held, so `f` may call back
    /// into the cache.
    pub fn for_each_entry(&self, mut f: impl FnMut(&str, &Response)) {
        let mut entries: Vec<(String, Arc<Response>)> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap();
            entries.extend(shard.map.iter().map(|(k, (_, r))| (k.clone(), Arc::clone(r))));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, resp) in &entries {
            f(key, resp);
        }
    }

    /// Usage counters.
    pub fn stats(&self) -> RevalStats {
        let mut stats = RevalStats::default();
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap();
            stats.entries += shard.map.len();
            stats.stored += shard.stored;
            stats.revalidated += shard.revalidated;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{format_etag, Response};

    fn tagged(body: &str, tag: u64) -> Response {
        let mut r = Response::html(body.into());
        r.headers.add("ETag", &format_etag(tag));
        r
    }

    #[test]
    fn lookup_miss_then_hit() {
        let reg = obs::Registry::new();
        let cache = ResponseCache::with_registry(CacheConfig::default(), &reg);
        assert!(cache.lookup("GET", "/user/a", "anon").is_none());
        cache.insert("GET", "/user/a", "anon", &tagged("<p>a</p>", 1));
        let hit = cache.lookup("GET", "/user/a", "anon").expect("hit");
        assert_eq!(hit.text(), "<p>a</p>");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(1));
        assert_eq!(snap.counter("cache.misses"), Some(1));
        assert!(snap.gauge("cache.bytes").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn visibility_class_isolates_entries() {
        let cache = ResponseCache::new(CacheConfig::default());
        cache.insert("GET", "/url/x", "anon", &tagged("public view", 1));
        cache.insert("GET", "/url/x", "auth:nsfw+offensive", &tagged("shadow view", 2));
        assert_eq!(cache.lookup("GET", "/url/x", "anon").unwrap().text(), "public view");
        assert_eq!(
            cache.lookup("GET", "/url/x", "auth:nsfw+offensive").unwrap().text(),
            "shadow view"
        );
    }

    #[test]
    fn bounded_with_deterministic_eviction() {
        let run = || {
            let cache = ResponseCache::new(CacheConfig {
                shards: 2,
                capacity: 8,
                ..CacheConfig::default()
            });
            for i in 0..64 {
                cache.insert("GET", &format!("/user/u{i}"), "anon", &tagged("body", i));
            }
            assert!(cache.len() <= 8, "capacity respected: {}", cache.len());
            // Which entries survive is a pure function of the insertion
            // sequence and the seed.
            (0..64)
                .filter(|i| cache.lookup("GET", &format!("/user/u{i}"), "anon").is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "eviction must be seeded-deterministic");
    }

    #[test]
    fn oversized_bodies_skipped_and_purge_empties() {
        let cache =
            ResponseCache::new(CacheConfig { max_entry_bytes: 16, ..CacheConfig::default() });
        cache.insert("GET", "/big", "anon", &tagged(&"x".repeat(64), 1));
        assert!(cache.lookup("GET", "/big", "anon").is_none());
        cache.insert("GET", "/small", "anon", &tagged("tiny", 2));
        assert_eq!(cache.len(), 1);
        cache.purge();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn revalidation_cache_round_trip() {
        let cache = RevalidationCache::new(4);
        let key = "session=crawler:both|/url/abc";
        assert!(cache.etag_for(key).is_none());
        cache.store(key, &Response::not_found()); // untagged: ignored
        assert!(cache.etag_for(key).is_none());
        let resp = tagged("full page", 7);
        cache.store(key, &resp);
        assert_eq!(cache.etag_for(key), Some(format_etag(7)));
        let back = cache.take_revalidated(key).expect("stored");
        assert_eq!(back.text(), "full page");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.stored, stats.revalidated), (1, 1, 1));
    }

    #[test]
    fn revalidation_cache_bounded_fifo() {
        let cache = RevalidationCache::new(2);
        for i in 0..5 {
            cache.store(&format!("k{i}"), &tagged("b", i));
        }
        let entries = cache.stats().entries;
        assert!(entries <= 2, "capacity respected: {entries}");
        assert!(cache.etag_for("k4").is_some(), "newest entry always survives");
        // A shared clone sees the same store.
        let shared = cache.clone();
        assert_eq!(shared.stats().entries, entries);
    }

    #[test]
    fn revalidation_cache_shards_agree_across_keys() {
        // Spread keys over every shard and verify each round-trips.
        let cache = RevalidationCache::new(1 << 10);
        for i in 0..64 {
            cache.store(&format!("ctx|/page/{i}"), &tagged(&format!("body {i}"), i));
        }
        assert_eq!(cache.stats().entries, 64);
        for i in 0..64 {
            let key = format!("ctx|/page/{i}");
            assert_eq!(cache.etag_for(&key), Some(format_etag(i)));
            assert_eq!(cache.take_revalidated(&key).unwrap().text(), format!("body {i}"));
        }
        let mut walked = Vec::new();
        cache.for_each_entry(|k, _| walked.push(k.to_owned()));
        assert_eq!(walked.len(), 64);
        assert!(walked.windows(2).all(|w| w[0] < w[1]), "walk sorted by key");
    }
}
