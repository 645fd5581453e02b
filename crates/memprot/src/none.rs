//! No protection (NP) — the unprotected baseline accelerator.

use crate::{ProtectionEngine, TaggedMeta};
use std::ops::Range;

/// The no-protection reference point: every Figure-3 bar is normalized to
/// this scheme's execution time.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProtection;

impl NoProtection {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }
}

impl ProtectionEngine for NoProtection {
    fn name(&self) -> &'static str {
        "NP"
    }

    fn protects_integrity(&self) -> bool {
        false
    }

    fn on_range(&mut self, _blocks: Range<u64>, _write: bool, _out: &mut Vec<TaggedMeta>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_nothing() {
        let mut np = NoProtection::new();
        let mut out = Vec::new();
        np.on_range(0..1 << 20, true, &mut out);
        assert!(out.is_empty());
        assert!(np.flush().is_empty());
        assert_eq!(np.name(), "NP");
        assert!(!np.protects_integrity());
    }
}
