//! Per-block reference models of the protection engines, and the
//! differential test that pins the range-granular
//! [`ProtectionEngine::on_range`] to them (test only, in the style of the
//! flat-queue DRAM scheduler oracle).
//!
//! Each engine file keeps the one-call-per-64-byte-block body that
//! `on_range` replaced as an implementation of [`PerBlock`].

use crate::baseline::{BaselineMee, MeeConfig};
use crate::cache::MetaCache;
use crate::guardnn::{GuardNnConfig, GuardNnEngine, Protection};
use crate::{MetaAccess, ProtectionEngine, TaggedMeta, BLOCK_BYTES};

/// An engine's per-block reference model.
pub(crate) trait PerBlock: ProtectionEngine + Clone {
    /// Processes one 64-byte data-block access; returns the metadata
    /// accesses issued behind it.
    fn access_block(&mut self, block_addr: u64, write: bool) -> Vec<MetaAccess>;

    /// The engine's metadata cache.
    fn meta_cache(&self) -> &MetaCache;
}

/// splitmix64 step.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Data region the random events fall in.
const DATA_BYTES: u64 = 16 << 20;

/// Drives one seeded random event sequence through `engine`'s range call,
/// split into random sub-ranges, and through a clone's per-block reference,
/// and asserts both emit the same tagged metadata, flush the same lines
/// and end with the same cache state.
fn check_against_reference<E: PerBlock>(engine: E, seed: u64) {
    let label = engine.name();
    let mut fast = engine.clone();
    let mut reference = engine;
    let mut state = seed;
    let data_blocks = DATA_BYTES / BLOCK_BYTES;
    let mut next_start = 0u64;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for event in 0..24 {
        let r = splitmix(&mut state);
        // An event's byte range, unaligned at both ends, covers 1–5,000
        // blocks. Half the events continue a sweep, a quarter revisit a
        // small hot region, a quarter land anywhere.
        let bytes = 1 + splitmix(&mut state) % (5000 * BLOCK_BYTES - 1);
        let addr = match r % 4 {
            0 | 1 => next_start,
            2 => splitmix(&mut state) % (512 << 10),
            _ => splitmix(&mut state) % (DATA_BYTES - bytes - BLOCK_BYTES),
        } + r % BLOCK_BYTES;
        let write = r >> 8 & 1 == 1;
        let blocks = addr / BLOCK_BYTES..(addr + bytes).div_ceil(BLOCK_BYTES);
        next_start = (blocks.end * BLOCK_BYTES) % (DATA_BYTES - 5001 * BLOCK_BYTES);
        if r >> 9 & 7 == 0 {
            fast.on_pass_begin();
            reference.on_pass_begin();
        }
        assert!(blocks.end <= data_blocks);

        got.clear();
        let mut start = blocks.start;
        while start < blocks.end {
            let cap = [1, 7, 64, 1024, u64::MAX][(splitmix(&mut state) % 5) as usize];
            let end = blocks.end.min(start.saturating_add(cap));
            fast.on_range(start..end, write, &mut got);
            start = end;
        }
        want.clear();
        for block in blocks.clone() {
            for meta in reference.access_block(block * BLOCK_BYTES, write) {
                want.push(TaggedMeta { block, meta });
            }
        }
        assert_eq!(
            got, want,
            "{label} seed {seed}: event {event} ({blocks:?}, write {write}) diverged"
        );
    }
    assert_eq!(
        fast.flush(),
        reference.flush(),
        "{label} seed {seed}: flush"
    );
    let (a, b) = (fast.meta_cache(), reference.meta_cache());
    assert_eq!(a.miss_rate().to_bits(), b.miss_rate().to_bits());
    assert_eq!(a, b, "{label} seed {seed}: cache state");
}

#[test]
fn guardnn_range_matches_per_block_reference() {
    // MAC chunks of the ablation sweep, the default 4 KiB MAC buffer
    // (16 sets) and a 3 KiB one (12 sets: not a power of two).
    for mac_chunk_bytes in [64, 128, 256, 512, 1024, 4096] {
        for mac_cache_bytes in [4 << 10, 3 << 10] {
            let cfg = GuardNnConfig {
                mac_chunk_bytes,
                mac_cache_bytes,
                ..GuardNnConfig::default()
            };
            for seed in 0..3 {
                check_against_reference(GuardNnEngine::new(DATA_BYTES, cfg), seed);
            }
        }
    }
    let cfg = GuardNnConfig {
        protection: Protection::ConfidentialityOnly,
        ..GuardNnConfig::default()
    };
    check_against_reference(GuardNnEngine::new(DATA_BYTES, cfg), 9);
}

#[test]
fn baseline_range_matches_per_block_reference() {
    // The ablation sweep's 8–256 KiB caches, a 48-set cache (not a power
    // of two), a direct-mapped one, and 2-way caches of 4 and 16 sets,
    // where a block's VN and MAC lines (and a tree node) often share a set
    // and evict each other.
    let mut geometries: Vec<(u64, usize)> = [8, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|kib| (kib << 10, 8))
        .collect();
    geometries.extend([(24 << 10, 8), (8 << 10, 1), (512, 2), (2 << 10, 2)]);
    // VN and MAC lines covering different block counts, so a pair's run
    // ends at either line's boundary.
    let line_blocks = [(8, 8), (8, 4), (4, 16)];
    for (cache_bytes, cache_ways) in geometries {
        for (blocks_per_vn_line, blocks_per_mac_line) in line_blocks {
            let cfg = MeeConfig {
                cache_bytes,
                cache_ways,
                blocks_per_vn_line,
                blocks_per_mac_line,
                ..MeeConfig::default()
            };
            for seed in 0..3 {
                check_against_reference(BaselineMee::new(DATA_BYTES, cfg), seed);
            }
        }
    }
}
