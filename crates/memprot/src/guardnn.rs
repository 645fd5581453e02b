//! The GuardNN DNN-specific memory-protection engine.
//!
//! Confidentiality: AES-CTR with version numbers built from a handful of
//! on-chip counters ([`crate::vn::VersionCounters`]) — no VN is ever stored
//! in DRAM, so encryption adds *zero* memory traffic.
//!
//! Integrity (GuardNN_CI): one MAC per data chunk, where the chunk size
//! matches the accelerator's DRAM burst granularity (512 B for the paper's
//! prototype). Because VNs are trusted on-chip state, no integrity tree is
//! needed — a flat MAC array suffices (replay is defeated by the VN inside
//! the MAC). That is the paper's key traffic saving over BP.
//!
//! # Example
//!
//! ```
//! use guardnn_memprot::guardnn::GuardNnEngine;
//! use guardnn_memprot::{ProtectionEngine, BLOCK_BYTES};
//!
//! // GuardNN_C: version numbers are on-chip registers, so encryption
//! // adds zero metadata traffic on any access pattern.
//! let mut c = GuardNnEngine::confidentiality_only(1 << 20);
//! let mut meta = Vec::new();
//! c.on_range(0..1024, true, &mut meta);
//! assert!(meta.is_empty());
//! assert!(c.flush().is_empty());
//!
//! // GuardNN_CI: a flat 8-byte MAC per 512-byte chunk — no stored VNs,
//! // no tree. Streaming 64 KiB of feature writes dirties
//! // 64 KiB / 512 B / 8 MACs-per-line = 16 MAC cache lines; writes
//! // recompute MACs so nothing is fetched inline, and the dirty lines
//! // reach DRAM only at the flush: 16 × 64 B over 64 KiB of data ≈ 1.6%
//! // traffic overhead (the paper's §III-C).
//! let mut ci = GuardNnEngine::confidentiality_and_integrity(1 << 20);
//! ci.on_range(0..(64 << 10) / BLOCK_BYTES, true, &mut meta);
//! assert!(meta.is_empty(), "write MACs coalesce in the on-chip buffer");
//! assert_eq!(ci.flush().len(), 16);
//! ```

use crate::cache::MetaCache;
use crate::vn::VersionCounters;
use crate::{MetaAccess, ProtectionEngine, TaggedMeta, BLOCK_BYTES};
use std::ops::Range;

/// Protection level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Memory encryption only (GuardNN_C).
    ConfidentialityOnly,
    /// Encryption plus per-chunk MAC integrity (GuardNN_CI).
    ConfidentialityIntegrity,
}

/// Configuration of the GuardNN engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuardNnConfig {
    /// Protection level.
    pub protection: Protection,
    /// Data bytes covered by one MAC (the accelerator's write granularity;
    /// 512 B in the paper's prototype).
    pub mac_chunk_bytes: u64,
    /// Bytes of one MAC entry.
    pub mac_entry_bytes: u64,
    /// Small on-chip MAC buffer that coalesces MAC-line traffic for
    /// sequential chunks.
    pub mac_cache_bytes: u64,
}

impl Default for GuardNnConfig {
    fn default() -> Self {
        Self {
            protection: Protection::ConfidentialityIntegrity,
            mac_chunk_bytes: 512,
            mac_entry_bytes: 8,
            mac_cache_bytes: 4 << 10,
        }
    }
}

/// The GuardNN protection engine (performance model).
#[derive(Clone, Debug)]
pub struct GuardNnEngine {
    cfg: GuardNnConfig,
    counters: VersionCounters,
    mac_base: u64,
    mac_cache: MetaCache,
}

impl GuardNnEngine {
    /// Creates an engine protecting `data_bytes` of DRAM.
    pub fn new(data_bytes: u64, cfg: GuardNnConfig) -> Self {
        Self {
            counters: VersionCounters::new(),
            mac_base: data_bytes.next_multiple_of(4096),
            mac_cache: MetaCache::new(cfg.mac_cache_bytes, 4),
            cfg,
        }
    }

    /// GuardNN_C: confidentiality only.
    pub fn confidentiality_only(data_bytes: u64) -> Self {
        Self::new(
            data_bytes,
            GuardNnConfig {
                protection: Protection::ConfidentialityOnly,
                ..Default::default()
            },
        )
    }

    /// GuardNN_CI: confidentiality and integrity.
    pub fn confidentiality_and_integrity(data_bytes: u64) -> Self {
        Self::new(data_bytes, GuardNnConfig::default())
    }

    /// The on-chip version counters (shared with the functional model).
    pub fn counters(&self) -> &VersionCounters {
        &self.counters
    }

    /// Mutable access to the counters (the device's instruction handlers
    /// drive `SetInput` / `SetWeight` through this).
    pub fn counters_mut(&mut self) -> &mut VersionCounters {
        &mut self.counters
    }

    /// Data bytes whose MACs share one 64-byte MAC line.
    fn mac_line_span(&self) -> u64 {
        self.cfg.mac_chunk_bytes * (BLOCK_BYTES / self.cfg.mac_entry_bytes)
    }
}

impl ProtectionEngine for GuardNnEngine {
    fn name(&self) -> &'static str {
        match self.cfg.protection {
            Protection::ConfidentialityOnly => "GuardNN_C",
            Protection::ConfidentialityIntegrity => "GuardNN_CI",
        }
    }

    fn protects_integrity(&self) -> bool {
        self.cfg.protection == Protection::ConfidentialityIntegrity
    }

    fn on_pass_begin(&mut self) {
        // One Forward-class instruction per pass: the feature-write counter
        // advances so every pass writes features under a fresh VN. No plan
        // produces 2³² passes per input, so exhaustion here is a harness
        // bug, not a reachable protocol state.
        self.counters
            .next_feature_write()
            // lint:allow(panic-discipline) — exhaustion is a harness bug, per the comment above
            .expect("simulation exceeded 2^32 passes per input");
        guardnn_obs::Recorder::global().add("memprot.vn_advances", 1);
    }

    fn on_range(&mut self, blocks: Range<u64>, write: bool, out: &mut Vec<TaggedMeta>) {
        // Encryption costs no traffic: the counter block is (address, VN)
        // with the VN from on-chip state.
        if self.cfg.protection == Protection::ConfidentialityOnly {
            return;
        }
        // Integrity: the blocks of a range touch each MAC line in one run,
        // so the line is looked up once per run and its metadata follows
        // the run's first block. Writes recompute the MAC, so they
        // allocate without fetching.
        let span = self.mac_line_span();
        let mut block = blocks.start;
        while block < blocks.end {
            let line = block * BLOCK_BYTES / span;
            let run_end = ((line + 1) * span).div_ceil(BLOCK_BYTES).min(blocks.end);
            let mac_line = self.mac_base + line * BLOCK_BYTES;
            let res = self.mac_cache.access_run(mac_line, write, run_end - block);
            if let Some(victim) = res.writeback {
                out.push(TaggedMeta::new(block, victim, true));
            }
            if !res.hit && !write {
                out.push(TaggedMeta::new(block, mac_line, false));
            }
            block = run_end;
        }
    }

    fn flush(&mut self) -> Vec<MetaAccess> {
        self.mac_cache
            .flush_dirty()
            .into_iter()
            .map(|addr| MetaAccess { addr, write: true })
            .collect()
    }
}

/// The per-block model `on_range` replaced, kept as its differential
/// reference: one call per 64-byte block, one cache access per call.
#[cfg(test)]
mod per_block {
    use super::*;
    use crate::reference::PerBlock;

    impl GuardNnEngine {
        pub(super) fn mac_line_addr(&self, block_addr: u64) -> u64 {
            let chunk = block_addr / self.cfg.mac_chunk_bytes;
            let entries_per_line = BLOCK_BYTES / self.cfg.mac_entry_bytes;
            self.mac_base + chunk / entries_per_line * BLOCK_BYTES
        }
    }

    impl PerBlock for GuardNnEngine {
        fn access_block(&mut self, block_addr: u64, write: bool) -> Vec<MetaAccess> {
            if self.cfg.protection == Protection::ConfidentialityOnly {
                return Vec::new();
            }
            let mut out = Vec::new();
            let mac_line = self.mac_line_addr(block_addr);
            let res = if write {
                self.mac_cache.write_no_fetch(mac_line)
            } else {
                self.mac_cache.access(mac_line, false)
            };
            if let Some(victim) = res.writeback {
                out.push(MetaAccess {
                    addr: victim,
                    write: true,
                });
            }
            if !res.hit {
                out.push(MetaAccess {
                    addr: mac_line,
                    write: false,
                });
            }
            out
        }

        fn meta_cache(&self) -> &MetaCache {
            &self.mac_cache
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metadata of one range call.
    fn range(e: &mut impl ProtectionEngine, blocks: Range<u64>, write: bool) -> Vec<TaggedMeta> {
        let mut out = Vec::new();
        e.on_range(blocks, write, &mut out);
        out
    }

    #[test]
    fn confidentiality_only_is_free() {
        let mut e = GuardNnEngine::confidentiality_only(64 << 20);
        for b in (0..10_000u64).step_by(100) {
            assert!(range(&mut e, b..b + 100, b % 200 == 0).is_empty());
        }
        assert!(e.flush().is_empty());
        assert_eq!(e.name(), "GuardNN_C");
        assert!(!e.protects_integrity());
    }

    #[test]
    fn integrity_traffic_is_small_fraction() {
        let mut e = GuardNnEngine::confidentiality_and_integrity(256 << 20);
        let blocks = 100_000u64;
        let mut meta_bytes = range(&mut e, 0..blocks, false).len() as u64 * BLOCK_BYTES;
        meta_bytes += e.flush().len() as u64 * BLOCK_BYTES;
        let data_bytes = blocks * BLOCK_BYTES;
        let ratio = meta_bytes as f64 / data_bytes as f64;
        // One 64B MAC line per 4 KiB of streamed data ≈ 1.6%.
        assert!(ratio < 0.05, "got {ratio}");
        assert!(ratio > 0.005, "got {ratio}");
    }

    #[test]
    fn guardnn_beats_baseline_traffic() {
        use crate::baseline::BaselineMee;
        let mut gnn = GuardNnEngine::confidentiality_and_integrity(256 << 20);
        let mut bp = BaselineMee::with_defaults(256 << 20);
        let mut gnn_meta = 0usize;
        let mut bp_meta = 0usize;
        for b in 0..50_000u64 {
            gnn_meta += range(&mut gnn, b..b + 1, b % 3 == 0).len();
            bp_meta += range(&mut bp, b..b + 1, b % 3 == 0).len();
        }
        assert!(
            (gnn_meta as f64) < bp_meta as f64 / 5.0,
            "GuardNN {gnn_meta} vs BP {bp_meta}"
        );
    }

    #[test]
    fn pass_begin_advances_feature_vn() {
        let mut e = GuardNnEngine::confidentiality_and_integrity(1 << 20);
        let v0 = e.counters().feature_write_vn();
        e.on_pass_begin();
        assert_ne!(e.counters().feature_write_vn(), v0);
    }

    #[test]
    fn mac_line_mapping() {
        let e = GuardNnEngine::confidentiality_and_integrity(1 << 20);
        // Blocks within one 512B chunk share a MAC entry; 8 chunks (4 KiB)
        // share a MAC line.
        let l0 = e.mac_line_addr(0);
        assert_eq!(e.mac_line_addr(511), l0);
        assert_eq!(e.mac_line_addr(4095), l0);
        assert_ne!(e.mac_line_addr(4096), l0);
        assert_eq!(e.mac_line_span(), 4096);
    }

    #[test]
    fn one_mac_line_lookup_per_run() {
        // Reads of blocks 3..1027 touch 17 MAC lines of 64 blocks each: one
        // fetch per line, tagged with the line's first block in the range.
        let mut e = GuardNnEngine::confidentiality_and_integrity(1 << 20);
        let metas = range(&mut e, 3..1027, false);
        let tags: Vec<u64> = metas.iter().map(|m| m.block).collect();
        let expected: Vec<u64> = std::iter::once(3).chain((64..1027).step_by(64)).collect();
        assert_eq!(tags, expected);
        assert!(metas.iter().all(|m| !m.meta.write));
    }

    #[test]
    fn dirty_mac_lines_flushed() {
        let mut e = GuardNnEngine::confidentiality_and_integrity(1 << 20);
        range(&mut e, 0..1, true);
        let flushed = e.flush();
        assert_eq!(flushed.len(), 1);
        assert!(flushed[0].write);
    }
}
