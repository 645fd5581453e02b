//! Baseline protection (BP): an Intel-MEE-style memory encryption engine.
//!
//! This models the scheme the paper calls "today's baseline memory
//! protection" (§III-C, citing Gueron's MEE): per-64B-block version numbers
//! stored in DRAM (8 packed per 64-byte line), a per-block 8-byte MAC (also
//! 8 per line), and an 8-ary counter-integrity tree over the VN array whose
//! root stays on chip. A small on-chip metadata cache absorbs re-use; every
//! miss and every dirty eviction becomes extra DRAM traffic — the source of
//! BP's ~35% traffic and ~1.25× slowdown on DNNs.

use crate::cache::MetaCache;
use crate::{MetaAccess, ProtectionEngine, TaggedMeta, BLOCK_BYTES};
use std::ops::Range;

/// Configuration of the MEE model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeeConfig {
    /// On-chip metadata cache capacity in bytes.
    pub cache_bytes: u64,
    /// Cache associativity.
    pub cache_ways: usize,
    /// Data blocks covered per VN line (Intel MEE packs 8 split counters
    /// per 64-byte line).
    pub blocks_per_vn_line: u64,
    /// Data blocks covered per MAC line (8 × 8-byte MACs).
    pub blocks_per_mac_line: u64,
    /// Integrity-tree arity (VN lines per parent node).
    pub tree_arity: u64,
}

impl Default for MeeConfig {
    fn default() -> Self {
        Self {
            cache_bytes: 64 << 10,
            cache_ways: 8,
            blocks_per_vn_line: 8,
            blocks_per_mac_line: 8,
            tree_arity: 8,
        }
    }
}

/// The baseline-protection engine.
#[derive(Clone, Debug)]
pub struct BaselineMee {
    cfg: MeeConfig,
    cache: MetaCache,
    /// Base of the VN array in DRAM.
    vn_base: u64,
    /// Base of each tree level; `tree_base[0]` is the level above the VN
    /// array. The root above the last level is on chip.
    tree_base: Vec<u64>,
    /// Lines per tree level.
    tree_lines: Vec<u64>,
    /// Base of the MAC array.
    mac_base: u64,
}

impl BaselineMee {
    /// Creates an engine protecting `data_bytes` of DRAM, with metadata
    /// regions laid out immediately above the data.
    pub fn new(data_bytes: u64, cfg: MeeConfig) -> Self {
        let data_blocks = data_bytes.div_ceil(BLOCK_BYTES);
        let vn_lines = data_blocks.div_ceil(cfg.blocks_per_vn_line);
        let vn_base = data_bytes.next_multiple_of(4096);

        let mut tree_base = Vec::new();
        let mut tree_lines = Vec::new();
        let mut cursor = vn_base + vn_lines * BLOCK_BYTES;
        let mut level_lines = vn_lines.div_ceil(cfg.tree_arity);
        while level_lines >= 1 {
            tree_base.push(cursor);
            tree_lines.push(level_lines);
            cursor += level_lines * BLOCK_BYTES;
            if level_lines == 1 {
                break;
            }
            level_lines = level_lines.div_ceil(cfg.tree_arity);
        }
        let mac_base = cursor.next_multiple_of(4096);
        Self {
            cache: MetaCache::new(cfg.cache_bytes, cfg.cache_ways),
            cfg,
            vn_base,
            tree_base,
            tree_lines,
            mac_base,
        }
    }

    /// Creates an engine with the default MEE configuration.
    pub fn with_defaults(data_bytes: u64) -> Self {
        Self::new(data_bytes, MeeConfig::default())
    }

    /// Number of integrity-tree levels stored in DRAM.
    pub fn tree_depth(&self) -> usize {
        self.tree_base.len()
    }

    /// Metadata-cache miss rate so far.
    pub fn cache_miss_rate(&self) -> f64 {
        self.cache.miss_rate()
    }

    fn tree_node_addr(&self, level: usize, vn_line_index: u64) -> u64 {
        let divisor = self.cfg.tree_arity.pow(level as u32 + 1);
        let node = (vn_line_index / divisor).min(self.tree_lines[level] - 1);
        self.tree_base[level] + node * BLOCK_BYTES
    }

    /// Touches a metadata line through the cache, recording DRAM traffic
    /// for the miss fill and any dirty write-back behind data block
    /// `block`.
    fn touch(&mut self, addr: u64, dirty: bool, block: u64, out: &mut Vec<TaggedMeta>) -> bool {
        let res = self.cache.access(addr, dirty);
        if let Some(victim) = res.writeback {
            out.push(TaggedMeta::new(block, victim, true));
        }
        if !res.hit {
            out.push(TaggedMeta::new(block, addr, false));
        }
        res.hit
    }
}

impl ProtectionEngine for BaselineMee {
    fn name(&self) -> &'static str {
        "BP"
    }

    fn protects_integrity(&self) -> bool {
        true
    }

    fn on_range(&mut self, blocks: Range<u64>, write: bool, out: &mut Vec<TaggedMeta>) {
        // VN, tree and MAC lines share the cache, so every block takes its
        // turn; the block's VN and MAC lines are stepped, not divided out.
        let (per_vn, per_mac) = (self.cfg.blocks_per_vn_line, self.cfg.blocks_per_mac_line);
        let mut vn_index = blocks.start / per_vn;
        let mut vn_left = per_vn - blocks.start % per_vn;
        let mut mac_line = self.mac_base + blocks.start / per_mac * BLOCK_BYTES;
        let mut mac_left = per_mac - blocks.start % per_mac;
        let mut block = blocks.start;
        while block < blocks.end {
            // Version-number line: read to build the counter, dirtied by
            // writes (the per-block counter increments).
            let vn_line = self.vn_base + vn_index * BLOCK_BYTES;
            // Counter-tree walk: on a VN miss the line must be verified
            // against the tree, walking up until a cached (already-verified)
            // node. On a write the touched nodes become dirty.
            if !self.touch(vn_line, write, block, out) {
                for level in 0..self.tree_base.len() {
                    let node = self.tree_node_addr(level, vn_index);
                    if self.touch(node, write, block, out) {
                        break;
                    }
                }
            }
            // MAC line: verified on read; on write the MAC is recomputed
            // from scratch, so the line is allocated dirty without a fetch.
            if write {
                if let Some(victim) = self.cache.write_no_fetch(mac_line).writeback {
                    out.push(TaggedMeta::new(block, victim, true));
                }
            } else {
                self.touch(mac_line, false, block, out);
            }
            // While both lines stay resident, the pair's next blocks hit
            // both and emit nothing: advance them in one cache step.
            let rest = vn_left.min(mac_left).min(blocks.end - block) - 1;
            let step = if rest > 0 && self.cache.hit_pair_run(vn_line, mac_line, write, rest) {
                1 + rest
            } else {
                1
            };
            block += step;
            vn_left -= step;
            if vn_left == 0 {
                vn_index += 1;
                vn_left = per_vn;
            }
            mac_left -= step;
            if mac_left == 0 {
                mac_line += BLOCK_BYTES;
                mac_left = per_mac;
            }
        }
    }

    fn flush(&mut self) -> Vec<MetaAccess> {
        self.cache
            .flush_dirty()
            .into_iter()
            .map(|addr| MetaAccess { addr, write: true })
            .collect()
    }
}

/// The per-block model `on_range` replaced, kept as its differential
/// reference: one call per 64-byte block, lines found by division.
#[cfg(test)]
mod per_block {
    use super::*;
    use crate::reference::PerBlock;

    impl BaselineMee {
        fn vn_line_addr(&self, block_addr: u64) -> u64 {
            let block = block_addr / BLOCK_BYTES;
            self.vn_base + block / self.cfg.blocks_per_vn_line * BLOCK_BYTES
        }

        fn mac_line_addr(&self, block_addr: u64) -> u64 {
            let block = block_addr / BLOCK_BYTES;
            self.mac_base + block / self.cfg.blocks_per_mac_line * BLOCK_BYTES
        }

        fn touch_ref(&mut self, addr: u64, dirty: bool, out: &mut Vec<MetaAccess>) -> bool {
            let res = self.cache.access(addr, dirty);
            if let Some(victim) = res.writeback {
                out.push(MetaAccess {
                    addr: victim,
                    write: true,
                });
            }
            if !res.hit {
                out.push(MetaAccess { addr, write: false });
            }
            res.hit
        }
    }

    impl PerBlock for BaselineMee {
        fn access_block(&mut self, block_addr: u64, write: bool) -> Vec<MetaAccess> {
            let mut out = Vec::new();
            let vn_line = self.vn_line_addr(block_addr);
            let vn_hit = self.touch_ref(vn_line, write, &mut out);
            if !vn_hit {
                let vn_line_index = (vn_line - self.vn_base) / BLOCK_BYTES;
                for level in 0..self.tree_base.len() {
                    let node = self.tree_node_addr(level, vn_line_index);
                    let hit = self.touch_ref(node, write, &mut out);
                    if hit {
                        break;
                    }
                }
            }
            let mac_line = self.mac_line_addr(block_addr);
            if write {
                if let Some(victim) = self.cache.write_no_fetch(mac_line).writeback {
                    out.push(MetaAccess {
                        addr: victim,
                        write: true,
                    });
                }
            } else {
                self.touch_ref(mac_line, false, &mut out);
            }
            out
        }

        fn meta_cache(&self) -> &MetaCache {
            &self.cache
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(mb: u64) -> BaselineMee {
        BaselineMee::with_defaults(mb << 20)
    }

    /// Metadata of one range call.
    fn range(e: &mut BaselineMee, blocks: Range<u64>, write: bool) -> Vec<MetaAccess> {
        let mut out = Vec::new();
        e.on_range(blocks, write, &mut out);
        out.into_iter().map(|m| m.meta).collect()
    }

    #[test]
    fn metadata_regions_above_data() {
        let e = engine(64);
        assert!(e.vn_base >= 64 << 20);
        assert!(e.mac_base > e.vn_base);
        assert!(
            e.tree_depth() >= 2,
            "64 MB of data needs a multi-level tree"
        );
    }

    #[test]
    fn cold_access_fetches_vn_tree_and_mac() {
        let mut e = engine(64);
        let metas = range(&mut e, 0..1, false);
        // VN line + ≥1 tree node + MAC line.
        assert!(metas.len() >= 3, "got {metas:?}");
        assert!(metas.iter().all(|m| !m.write));
    }

    #[test]
    fn streaming_amortizes_metadata() {
        let mut e = engine(64);
        let blocks = 4096u64;
        let meta = range(&mut e, 0..blocks, false).len();
        // One VN line + one MAC line per 8 blocks ≈ 0.25 per block, plus a
        // thin stream of tree nodes.
        let per_block = meta as f64 / blocks as f64;
        assert!((0.2..0.5).contains(&per_block), "got {per_block}");
    }

    #[test]
    fn writes_create_writebacks() {
        let mut e = engine(256);
        // Write a large region so dirty VN/MAC lines must be evicted.
        let wb = range(&mut e, 0..200_000, true)
            .iter()
            .filter(|m| m.write)
            .count();
        assert!(wb > 0, "dirty metadata must be written back under pressure");
    }

    #[test]
    fn flush_drains_dirty_lines() {
        let mut e = engine(64);
        range(&mut e, 0..1, true);
        let flushed = e.flush();
        assert!(!flushed.is_empty());
        assert!(flushed.iter().all(|m| m.write));
        assert!(e.flush().is_empty());
    }

    #[test]
    fn scattered_access_pays_more_than_streaming() {
        let mut stream_e = engine(256);
        let mut scatter_e = engine(256);
        let n = 20_000u64;
        let stream_meta = range(&mut stream_e, 0..n, false).len();
        let mut scatter_meta = 0usize;
        for i in 0..n {
            // Large prime stride defeats both cache and VN-line sharing.
            let block = (i * 8209) % ((256 << 20) / 64);
            scatter_meta += range(&mut scatter_e, block..block + 1, false).len();
        }
        assert!(
            scatter_meta as f64 > 2.0 * stream_meta as f64,
            "scatter {scatter_meta} vs stream {stream_meta}"
        );
    }

    #[test]
    fn tree_addresses_within_level_bounds() {
        let e = engine(64);
        for level in 0..e.tree_depth() {
            let last_vn_line = (64 << 20) / 64 / 8 - 1;
            let addr = e.tree_node_addr(level, last_vn_line);
            let base = e.tree_base[level];
            assert!(addr >= base);
            assert!(addr < base + e.tree_lines[level] * 64);
        }
    }
}
