//! A shared, thread-safe subexpression cache: the cross-query realization of
//! §5.2's common-subexpression sharing. Within one `eval` call the engine
//! already shares identical subtrees; this cache extends the sharing across
//! queries, so repeated chain prefixes — the pattern the `a1` ablation
//! measures — are computed once.
//!
//! Keys are normalized [`RegionExpr`]s: commutative spellings (`A ∪ B` vs
//! `B ∪ A`) collapse to one entry via [`RegionExpr::normalized`].
//!
//! The cache is bounded. A long-running `qof serve` process with a diverse
//! query stream would otherwise grow it without limit (every distinct
//! normalized subexpression is one resident `RegionSet` forever); inserts
//! past the entry or byte cap evict the oldest entries first and count each
//! eviction in [`CacheStats::evictions`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use qof_text::Pos;

use crate::{RegionExpr, RegionSet};

/// Default cap on resident entries (see [`SubexprCache::with_limits`]).
pub const DEFAULT_MAX_ENTRIES: usize = 8192;

/// Default cap on approximate resident bytes (64 MiB).
pub const DEFAULT_MAX_BYTES: usize = 64 << 20;

/// Approximate resident size of one cached region set: the region pairs
/// plus a flat per-entry overhead for the key and map bookkeeping.
fn entry_bytes(set: &RegionSet) -> usize {
    set.len() * std::mem::size_of::<(Pos, Pos)>() + 64
}

/// Hit/miss/eviction counters and current size of a [`SubexprCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and were then computed and inserted).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted to stay under the entry/byte caps (cumulative;
    /// `clear()` resets it along with the hit/miss counters).
    pub evictions: u64,
    /// Approximate bytes currently resident (region pairs + overhead).
    pub approx_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// The lock-guarded resident state: the map plus the FIFO insertion order
/// the evictor walks and the byte gauge.
#[derive(Debug, Default)]
struct Resident {
    map: HashMap<RegionExpr, RegionSet>,
    /// Insertion order of keys, oldest first. Replaced entries keep their
    /// original position (they are re-counted, not re-queued), so the
    /// queue length always equals the entry count.
    order: VecDeque<RegionExpr>,
    approx_bytes: usize,
}

impl Resident {
    fn entries(&self) -> usize {
        self.order.len()
    }

    /// Evicts oldest-first until both caps hold; returns how many entries
    /// were dropped.
    fn evict_to(&mut self, max_entries: usize, max_bytes: usize) -> u64 {
        let mut evicted = 0;
        while self.entries() > max_entries || self.approx_bytes > max_bytes {
            let Some(expr) = self.order.pop_front() else { break };
            if let Some(set) = self.map.remove(&expr) {
                self.approx_bytes = self.approx_bytes.saturating_sub(entry_bytes(&set));
                evicted += 1;
            }
        }
        evicted
    }
}

/// A thread-safe, bounded map from a normalized expression to its
/// evaluated region set. Shared by reference across the engines of
/// concurrent queries; the owner (e.g. `FileDatabase`) must clear it
/// whenever the underlying corpus or instance changes.
#[derive(Debug)]
pub struct SubexprCache {
    resident: Mutex<Resident>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    max_entries: usize,
    max_bytes: usize,
}

impl Default for SubexprCache {
    fn default() -> Self {
        Self::with_limits(DEFAULT_MAX_ENTRIES, DEFAULT_MAX_BYTES)
    }
}

impl SubexprCache {
    /// An empty cache with the default entry/byte caps.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache capped at `max_entries` resident entries and
    /// `max_bytes` approximate resident bytes (whichever binds first).
    /// Inserts beyond either cap evict the oldest entries.
    pub fn with_limits(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            resident: Mutex::new(Resident::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
        }
    }

    /// Looks up a normalized expression, counting the outcome.
    pub fn get(&self, expr: &RegionExpr) -> Option<RegionSet> {
        let resident = self.resident.lock().expect("cache lock poisoned");
        match resident.map.get(expr) {
            Some(set) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(set.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an evaluated result (last writer wins on races; results for
    /// the same key are identical by construction), evicting oldest
    /// entries if the insert pushed the cache past its caps. Returns how
    /// many entries this insert evicted, so callers can attribute
    /// evictions to the query that caused them.
    pub fn insert(&self, expr: RegionExpr, set: RegionSet) -> u64 {
        let added = entry_bytes(&set);
        let mut resident = self.resident.lock().expect("cache lock poisoned");
        match resident.map.insert(expr.clone(), set) {
            Some(old) => {
                // Replacement: adjust the byte gauge, keep the queue slot.
                resident.approx_bytes = resident.approx_bytes.saturating_sub(entry_bytes(&old));
            }
            None => resident.order.push_back(expr),
        }
        resident.approx_bytes += added;
        let evicted = resident.evict_to(self.max_entries, self.max_bytes);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        let resident = self.resident.lock().expect("cache lock poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: resident.entries(),
            evictions: self.evictions.load(Ordering::Relaxed),
            approx_bytes: resident.approx_bytes,
        }
    }

    /// Drops every entry and resets the counters (required after any
    /// mutation of the indexed corpus).
    pub fn clear(&self) {
        let mut resident = self.resident.lock().expect("cache lock poisoned");
        *resident = Resident::default();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Region;

    fn rs(pairs: &[(Pos, Pos)]) -> RegionSet {
        RegionSet::from_regions(pairs.iter().map(|&(a, b)| Region::new(a, b)).collect())
    }

    #[test]
    fn get_insert_roundtrip_counts() {
        let cache = SubexprCache::new();
        let e = RegionExpr::name("A").union(RegionExpr::name("B")).normalized();
        assert_eq!(cache.get(&e), None);
        cache.insert(e.clone(), rs(&[(0, 5)]));
        assert_eq!(cache.get(&e), Some(rs(&[(0, 5)])));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (1, 1, 1, 0));
        assert!(s.approx_bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = SubexprCache::new();
        cache.insert(RegionExpr::name("A"), rs(&[(0, 1)]));
        let _ = cache.get(&RegionExpr::name("A"));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (0, 0, 0, 0));
        assert_eq!(s.approx_bytes, 0);
        assert!(s.hit_rate().abs() < f64::EPSILON);
    }

    #[test]
    fn commutative_spellings_share_entries() {
        let cache = SubexprCache::new();
        let ab = RegionExpr::name("A").union(RegionExpr::name("B")).normalized();
        let ba = RegionExpr::name("B").union(RegionExpr::name("A")).normalized();
        cache.insert(ab, rs(&[(0, 1)]));
        assert_eq!(cache.get(&ba), Some(rs(&[(0, 1)])));
    }

    #[test]
    fn entry_cap_evicts_oldest_first() {
        let cache = SubexprCache::with_limits(3, usize::MAX);
        for i in 0..5u32 {
            cache.insert(RegionExpr::name(format!("A{i}")), rs(&[(i, i + 1)]));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 3, "cap holds");
        assert_eq!(s.evictions, 2, "two oldest entries evicted");
        // A0/A1 are gone, A2..A4 survive.
        assert_eq!(cache.get(&RegionExpr::name("A0")), None);
        assert_eq!(cache.get(&RegionExpr::name("A1")), None);
        for i in 2..5u32 {
            assert!(cache.get(&RegionExpr::name(format!("A{i}"))).is_some(), "A{i} resident");
        }
    }

    #[test]
    fn byte_cap_evicts_and_tracks_gauge() {
        // Each entry costs 64 bytes of overhead plus its regions; a cap of
        // 200 bytes holds at most two small entries.
        let cache = SubexprCache::with_limits(usize::MAX, 200);
        for i in 0..4u32 {
            cache.insert(RegionExpr::name(format!("B{i}")), rs(&[(i, i + 1)]));
        }
        let s = cache.stats();
        assert!(s.entries <= 2, "byte cap binds: {} entries", s.entries);
        assert!(s.approx_bytes <= 200, "gauge stays under the cap: {}", s.approx_bytes);
        assert_eq!(s.evictions as usize, 4 - s.entries);
    }

    #[test]
    fn replacement_does_not_grow_entries_or_leak_bytes() {
        let cache = SubexprCache::with_limits(8, usize::MAX);
        let e = RegionExpr::name("A");
        cache.insert(e.clone(), rs(&[(0, 1), (2, 3), (4, 5)]));
        let big = cache.stats().approx_bytes;
        cache.insert(e.clone(), rs(&[(0, 1)]));
        let s = cache.stats();
        assert_eq!(s.entries, 1, "replacement reuses the slot");
        assert!(s.approx_bytes < big, "byte gauge shrinks with the smaller value");
        assert_eq!(cache.get(&e), Some(rs(&[(0, 1)])), "last writer wins");
    }
}
