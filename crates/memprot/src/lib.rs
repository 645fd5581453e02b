//! Off-chip memory protection engines for DNN accelerators.
//!
//! This crate is the heart of the GuardNN reproduction. It implements the
//! paper's DNN-specific memory protection and the state-of-the-art baseline
//! it is compared against, in two complementary forms:
//!
//! **Performance models** (trait [`ProtectionEngine`]): given the data-access
//! stream of an accelerator run as 64-byte block ranges, each engine emits
//! the *additional* metadata accesses (version numbers, MACs,
//! integrity-tree nodes) its scheme needs, each tagged with the data block
//! it follows.
//! Feeding data + metadata into the DDR4 simulator yields the execution-time
//! overheads of Figure 3 and the traffic numbers of §III-C.
//!
//! * [`none`] — no protection (NP).
//! * [`baseline`] — Intel-MEE-style baseline protection (BP): split-counter
//!   VNs in DRAM, per-64B MACs, an 8-ary counter-integrity tree, and an
//!   on-chip metadata cache.
//! * [`guardnn`] — GuardNN: VNs derived from a handful of on-chip counters
//!   (never stored in DRAM), optional per-chunk MACs for integrity
//!   (GuardNN_CI) or confidentiality-only operation (GuardNN_C).
//!
//! **Functional model** ([`functional`]): a byte-accurate protected DRAM
//! that really encrypts with AES-CTR under the GuardNN counter layout and
//! really MACs each chunk, so tamper/replay attacks can be demonstrated and
//! the VN discipline can be checked end to end.
//!
//! Shared infrastructure: [`vn`] (the on-chip counter file), [`cache`]
//! (metadata cache), [`harness`] (trace → engine → DRAM driver).
//!
//! # Example
//!
//! ```
//! use guardnn_memprot::{baseline::BaselineMee, guardnn::GuardNnEngine, ProtectionEngine};
//!
//! let mut bp = BaselineMee::with_defaults(0x1000_0000);
//! let mut gnn = GuardNnEngine::confidentiality_and_integrity(0x1000_0000);
//! // Stream 1 MiB of feature writes (16,384 64-B blocks) through both
//! // engines, one call each.
//! let blocks = 0..(1 << 20) / 64u64;
//! let (mut bp_meta, mut gnn_meta) = (Vec::new(), Vec::new());
//! bp.on_range(blocks.clone(), true, &mut bp_meta);
//! gnn.on_range(blocks, true, &mut gnn_meta);
//! assert!(gnn_meta.len() < bp_meta.len() / 4, "GuardNN must move far less metadata");
//! ```

#![deny(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod functional;
pub mod guardnn;
pub mod harness;
pub mod none;
#[cfg(test)]
mod reference;
pub mod vn;

pub use baseline::BaselineMee;
pub use guardnn::GuardNnEngine;
pub use none::NoProtection;

use std::ops::Range;

/// Data block size all engines operate on (one DRAM burst).
pub const BLOCK_BYTES: u64 = 64;

/// One metadata DRAM access generated by a protection engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaAccess {
    /// Metadata address (inside the engine's metadata region).
    pub addr: u64,
    /// Write (true) or read (false).
    pub write: bool,
}

/// A metadata access tagged with the data block it follows: the driver
/// issues it right behind that block's DRAM request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedMeta {
    /// Index of the data block (address / [`BLOCK_BYTES`]).
    pub block: u64,
    /// The metadata access.
    pub meta: MetaAccess,
}

impl TaggedMeta {
    fn new(block: u64, addr: u64, write: bool) -> Self {
        Self {
            block,
            meta: MetaAccess { addr, write },
        }
    }
}

/// A memory-protection scheme's performance model.
///
/// The accelerator's access pattern is static, so engines see it as block
/// ranges, one trace event (or a piece of one) per call, and append the
/// metadata accesses the scheme adds. Engines with write-back caches emit
/// the remaining dirty lines from [`ProtectionEngine::flush`].
pub trait ProtectionEngine {
    /// Scheme name for reports (e.g. `"BP"`, `"GuardNN_CI"`).
    fn name(&self) -> &'static str;

    /// Whether the scheme verifies integrity (affects Table I / Fig. 3
    /// labeling, not just traffic).
    fn protects_integrity(&self) -> bool;

    /// Called at the start of each pass so engines tracking DNN structure
    /// can advance their on-chip counters (`CTR_F,W` et al.).
    fn on_pass_begin(&mut self) {}

    /// Processes accesses to the 64-byte data blocks `blocks` (block
    /// indices), in ascending order, all reads or all writes. Appends to
    /// `out` each metadata access the scheme adds, tagged with the block
    /// it follows, in issue order. Splitting a range into sub-ranges
    /// yields the same accesses.
    fn on_range(&mut self, blocks: Range<u64>, write: bool, out: &mut Vec<TaggedMeta>);

    /// Flushes dirty cached metadata at the end of a run.
    fn flush(&mut self) -> Vec<MetaAccess> {
        Vec::new()
    }
}

#[cfg(test)]
mod engine_trait_tests {
    use super::*;
    use crate::baseline::BaselineMee;
    use crate::guardnn::GuardNnEngine;
    use crate::none::NoProtection;

    /// The engine trait is object-safe and all engines work behind `dyn`.
    #[test]
    fn engines_work_as_trait_objects() {
        let mut engines: Vec<Box<dyn ProtectionEngine>> = vec![
            Box::new(NoProtection::new()),
            Box::new(GuardNnEngine::confidentiality_only(1 << 20)),
            Box::new(GuardNnEngine::confidentiality_and_integrity(1 << 20)),
            Box::new(BaselineMee::with_defaults(1 << 20)),
        ];
        let mut names = Vec::new();
        for e in engines.iter_mut() {
            e.on_pass_begin();
            e.on_range(0..16, true, &mut Vec::new());
            let _ = e.flush();
            names.push(e.name());
        }
        assert_eq!(names, vec!["NP", "GuardNN_C", "GuardNN_CI", "BP"]);
    }

    /// Integrity labeling matches each scheme's construction.
    #[test]
    fn integrity_flags() {
        assert!(!NoProtection::new().protects_integrity());
        assert!(!GuardNnEngine::confidentiality_only(1 << 20).protects_integrity());
        assert!(GuardNnEngine::confidentiality_and_integrity(1 << 20).protects_integrity());
        assert!(BaselineMee::with_defaults(1 << 20).protects_integrity());
    }

    /// Metadata addresses never alias the protected data region.
    #[test]
    fn metadata_outside_data_region() {
        let data_bytes = 1u64 << 24;
        let mut bp = BaselineMee::with_defaults(data_bytes);
        let mut gnn = GuardNnEngine::confidentiality_and_integrity(data_bytes);
        let mut metas = Vec::new();
        for block in (0..data_bytes / BLOCK_BYTES).step_by(64) {
            bp.on_range(block..block + 1, block % 3 == 0, &mut metas);
            gnn.on_range(block..block + 1, block % 3 == 0, &mut metas);
        }
        for m in metas {
            assert!(
                m.meta.addr >= data_bytes,
                "metadata at {:#x} aliases data",
                m.meta.addr
            );
        }
    }
}
