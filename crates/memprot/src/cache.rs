//! Set-associative write-back metadata cache.
//!
//! The baseline protection (Intel MEE style) keeps recently used VN, MAC
//! and integrity-tree lines in a small on-chip cache; its miss behaviour is
//! what turns DNN streaming traffic into the ~35% metadata overhead the
//! paper measures. GuardNN_CI reuses the same structure for MAC lines.

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// The line was present.
    pub hit: bool,
    /// A dirty victim line was evicted and must be written back.
    pub writeback: Option<u64>,
}

/// Bytes per cache line.
const LINE_BYTES: u64 = 64;

/// A set-associative, write-back, LRU cache for 64-byte metadata lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaCache {
    sets: Vec<Vec<Line>>,
    /// `sets.len() - 1` when the set count is a power of two (index by
    /// mask); `None` indexes by remainder.
    set_mask: Option<u64>,
    ways: usize,
    accesses: u64,
    misses: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    /// LRU timestamp.
    used: u64,
}

impl MetaCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity
    /// and 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (capacity not a multiple of
    /// way size, or zero sets).
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        let lines = capacity_bytes / LINE_BYTES;
        assert!(
            ways > 0 && lines >= ways as u64,
            "degenerate cache geometry"
        );
        let n_sets = (lines / ways as u64) as usize;
        assert!(n_sets > 0, "cache must have at least one set");
        Self {
            sets: vec![Vec::with_capacity(ways); n_sets],
            set_mask: n_sets.is_power_of_two().then(|| n_sets as u64 - 1),
            ways,
            accesses: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line_addr: u64) -> usize {
        let line = line_addr / LINE_BYTES;
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets.len() as u64) as usize,
        }
    }

    /// Accesses the line containing `addr` with write-allocate-no-fetch
    /// semantics: like [`MetaCache::access`] with `write = true`, but the
    /// caller asserts the whole line will be regenerated (e.g. MACs are
    /// recomputed on write, never read-modify-written), so a miss does not
    /// need a DRAM fetch. The returned `hit` field is therefore reported as
    /// `true` on a miss as well — only the write-back matters.
    pub fn write_no_fetch(&mut self, addr: u64) -> CacheAccess {
        let res = self.access(addr, true);
        CacheAccess {
            hit: true,
            writeback: res.writeback,
        }
    }

    /// Accesses the line containing `addr`; `write` marks it dirty.
    /// Returns hit/miss and any dirty write-back the fill victimized.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.access_run(addr, write, 1)
    }

    /// `n ≥ 1` back-to-back [`MetaCache::access`]es to the line containing
    /// `addr` in one step: the LRU stamps and the access and miss counters
    /// end as after `n` single accesses. Returns the first access's
    /// result; the later ones hit and evict nothing.
    pub fn access_run(&mut self, addr: u64, write: bool, n: u64) -> CacheAccess {
        debug_assert!(n > 0, "an access run covers at least one access");
        self.accesses += n;
        let line_addr = addr / LINE_BYTES * LINE_BYTES;
        let set_idx = self.set_index(line_addr);
        let stamp = self.accesses;
        let ways = self.ways;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.tag == line_addr) {
            line.used = stamp;
            line.dirty |= write;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let mut writeback = None;
        if set.len() == ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.used)
                .map(|(i, _)| i)
                // lint:allow(panic-discipline) — set.len() == ways > 0 was checked just above
                .expect("set is full");
            let victim = set.swap_remove(lru);
            if victim.dirty {
                writeback = Some(victim.tag);
            }
        }
        set.push(Line {
            tag: line_addr,
            dirty: write,
            used: stamp,
        });
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// `n ≥ 1` rounds of accesses to the lines containing `first` and then
    /// `second`, in one step, provided both lines are resident so that
    /// every access hits: the LRU stamps, dirty bits and the access
    /// counter end as after the `2n` single [`MetaCache::access`]es.
    /// Returns false, changing nothing, when either line is absent.
    pub(crate) fn hit_pair_run(&mut self, first: u64, second: u64, write: bool, n: u64) -> bool {
        debug_assert!(n > 0, "a pair run covers at least one round");
        let (Some(a), Some(b)) = (self.find(first), self.find(second)) else {
            return false;
        };
        self.accesses += 2 * n;
        for ((set, way), stamp) in [(a, self.accesses - 1), (b, self.accesses)] {
            let line = &mut self.sets[set][way];
            line.used = stamp;
            line.dirty |= write;
        }
        true
    }

    /// The set and way holding the line containing `addr`, if resident.
    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let line_addr = addr / LINE_BYTES * LINE_BYTES;
        let set = self.set_index(line_addr);
        let way = self.sets[set].iter().position(|l| l.tag == line_addr)?;
        Some((set, way))
    }

    /// Returns true if the line containing `addr` is resident (no state
    /// change).
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Drains all dirty lines (end-of-run write-back), returning their
    /// addresses.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.dirty {
                    out.push(line.tag);
                    line.dirty = false;
                }
            }
        }
        out
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::splitmix;

    #[test]
    fn hit_after_fill() {
        let mut c = MetaCache::new(4096, 4);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13F, false).hit, "same 64B line");
        assert!(!c.access(0x140, false).hit, "next line");
    }

    #[test]
    fn lru_eviction() {
        // 4 lines total, 2 ways → 2 sets. Fill one set's both ways, then a
        // third line in that set evicts the LRU.
        let mut c = MetaCache::new(256, 2);
        // Set is (addr/64) % 2 — lines 0, 128, 256 share set 0.
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // touch line 0 → line 128 is LRU
        c.access(256, false); // evicts 128
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut c = MetaCache::new(256, 2);
        c.access(0, true);
        c.access(128, false);
        c.access(256, false); // may evict 0 or 128 depending on LRU
        c.access(384, false);
        // After two more fills both originals are gone; at least one
        // write-back for line 0 must have been produced somewhere.
        let mut c2 = MetaCache::new(256, 2);
        c2.access(0, true);
        c2.access(128, false);
        let wb = c2.access(256, false).writeback;
        assert_eq!(wb, Some(0), "dirty LRU line written back");
    }

    #[test]
    fn flush_returns_dirty_lines_once() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0x000, true);
        c.access(0x040, false);
        c.access(0x080, true);
        let mut dirty = c.flush_dirty();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0x000, 0x080]);
        assert!(c.flush_dirty().is_empty(), "flush clears dirty bits");
    }

    #[test]
    fn access_run_equals_single_accesses() {
        // 1-way and 3-set (not a power of two) geometries included.
        for (capacity, ways) in [(256, 2), (192, 1), (768, 4)] {
            let mut runs = MetaCache::new(capacity, ways);
            let mut singles = runs.clone();
            let hit = CacheAccess {
                hit: true,
                writeback: None,
            };
            let mut state = 7;
            for _ in 0..2000 {
                let r = splitmix(&mut state);
                let addr = r % 32 * 64;
                let write = r >> 40 & 1 == 1;
                let n = (r >> 48) % 8 + 1;
                let first = singles.access(addr, write);
                for _ in 1..n {
                    assert_eq!(singles.access(addr, write), hit);
                }
                assert_eq!(runs.access_run(addr, write, n), first);
                assert_eq!(runs, singles);
            }
        }
    }

    #[test]
    fn hit_pair_run_equals_interleaved_accesses() {
        // Two-line rounds, hit or not, against the alternating single
        // accesses they stand for; a refused run must leave no trace.
        for (capacity, ways) in [(256, 2), (192, 1), (768, 4)] {
            let mut runs = MetaCache::new(capacity, ways);
            let mut singles = runs.clone();
            let mut state = 11;
            for _ in 0..2000 {
                let r = splitmix(&mut state);
                let (a, b) = (r % 16 * 64, (r >> 8) % 16 * 64 + 1024);
                let write = r >> 40 & 1 == 1;
                let n = (r >> 48) % 8 + 1;
                runs.access(a, write);
                singles.access(a, write);
                let both = singles.contains(a) && singles.contains(b);
                if both {
                    for _ in 0..n {
                        singles.access(a, write);
                        singles.access(b, write);
                    }
                }
                assert_eq!(runs.hit_pair_run(a, b, write, n), both);
                assert_eq!(runs, singles);
                runs.access(b, !write);
                singles.access(b, !write);
            }
        }
    }

    #[test]
    fn miss_rate_tracking() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0, false);
        c.access(0, false);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degenerate cache geometry")]
    fn rejects_zero_capacity() {
        let _ = MetaCache::new(0, 4);
    }
}
