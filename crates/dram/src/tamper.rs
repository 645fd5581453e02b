//! A tampering [`DramSink`] wrapper: scripted faults in the simulated
//! request stream.
//!
//! The chaos harness runs the streaming protection pipeline through this
//! wrapper to model an active adversary on the memory bus — an address
//! bit flipped mid-burst, a window of earlier requests replayed after a
//! malicious row remap, or requests silently swallowed. Injection points
//! count *accesses*, so a given [`StreamFault`] perturbs the exact same
//! request in every run: tampered runs are as deterministic as clean
//! ones, which is what lets the harness assert that a fault's effect on
//! the statistics is (a) present and (b) reproducible bit for bit.
//!
//! Note the division of labor with the functional model: *detection* of
//! DRAM tampering (MAC verification, typed
//! `IntegrityViolation`) lives in the functional protection layer the
//! device executes on. This wrapper attacks the *performance* pipeline,
//! where the assertion is observability — a tampered run's cycle and
//! row-buffer statistics must differ from the clean oracle's, and must
//! not depend on when the fault is injected relative to thread
//! scheduling.

use crate::stats::DramStats;
use crate::system::DramSink;

/// One scripted fault in the DRAM request stream. Positions are access
/// indices (0-based, counted across the whole run, drains included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFault {
    /// XOR `xor` onto the address of `count` accesses starting at index
    /// `at` — a stuck/flipped address line redirecting bursts (e.g. to a
    /// different row or bank).
    AddrFlip {
        /// First access index affected.
        at: u64,
        /// How many consecutive accesses are affected.
        count: u64,
        /// Address bits to flip.
        xor: u64,
    },
    /// Record the `len` accesses starting at index `start` and re-issue
    /// them verbatim after access `at` — a row-remap replay: the
    /// adversary points the bus back at stale rows.
    Replay {
        /// First access index of the recorded window.
        start: u64,
        /// Window length in accesses.
        len: u64,
        /// Access index after which the window is re-issued
        /// (must be ≥ `start + len` to have anything to replay).
        at: u64,
    },
    /// Swallow `count` accesses starting at index `at`.
    Drop {
        /// First access index dropped.
        at: u64,
        /// How many consecutive accesses are dropped.
        count: u64,
    },
}

/// [`DramSink`] adaptor applying one [`StreamFault`] to the stream before
/// forwarding to `inner`. Works over any sink — the serial
/// [`crate::DramSystem`] or the threaded [`crate::ParallelDram`] front
/// end — so the same fault script runs in every channel mode.
#[derive(Debug)]
pub struct TamperingSink<S> {
    inner: S,
    fault: StreamFault,
    /// Accesses seen so far (pre-fault indices).
    seen: u64,
    /// Recorded window for [`StreamFault::Replay`].
    window: Vec<(u64, bool)>,
    fired: bool,
}

impl<S: DramSink> TamperingSink<S> {
    /// Wraps `inner`, arming `fault`.
    pub fn new(inner: S, fault: StreamFault) -> Self {
        Self {
            inner,
            fault,
            seen: 0,
            window: Vec::new(),
            fired: false,
        }
    }

    /// Whether the fault has struck at least one access yet. A run whose
    /// injection point lies beyond the stream never fires — the harness
    /// asserts this to catch scripts that silently miss.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: DramSink> DramSink for TamperingSink<S> {
    fn access(&mut self, addr: u64, is_write: bool) {
        let idx = self.seen;
        self.seen += 1;
        match self.fault {
            StreamFault::AddrFlip { at, count, xor } => {
                if idx >= at && idx < at + count {
                    self.fired = true;
                    self.inner.access(addr ^ xor, is_write);
                } else {
                    self.inner.access(addr, is_write);
                }
            }
            StreamFault::Replay { start, len, at } => {
                if idx >= start && idx < start + len {
                    self.window.push((addr, is_write));
                }
                self.inner.access(addr, is_write);
                if idx == at && !self.window.is_empty() {
                    self.fired = true;
                    for &(a, w) in &self.window {
                        self.inner.access(a, w);
                    }
                }
            }
            StreamFault::Drop { at, count } => {
                if idx >= at && idx < at + count {
                    self.fired = true;
                } else {
                    self.inner.access(addr, is_write);
                }
            }
        }
    }

    fn drain_stats(&mut self) -> DramStats {
        self.inner.drain_stats()
    }
}

/// Forwarding impl so wrappers can hold borrowed sinks — e.g. a
/// [`TamperingSink`] over the `&mut ParallelDram` that
/// [`crate::with_channel_workers`] lends its closure.
impl<S: DramSink + ?Sized> DramSink for &mut S {
    fn access(&mut self, addr: u64, is_write: bool) {
        (**self).access(addr, is_write);
    }

    fn access_range(&mut self, first_addr: u64, blocks: u64, is_write: bool) {
        (**self).access_range(first_addr, blocks, is_write);
    }

    fn drain_stats(&mut self) -> DramStats {
        (**self).drain_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::system::DramSystem;

    fn drive<S: DramSink>(sink: &mut S, n: u64) -> DramStats {
        for i in 0..n {
            sink.access(i * 64, i % 7 == 0);
        }
        sink.drain_stats()
    }

    #[test]
    fn addr_flip_perturbs_stats_deterministically() {
        let cfg = DramConfig::ddr4_2400_16gb();
        let clean = drive(&mut DramSystem::new(cfg), 4096);
        let fault = StreamFault::AddrFlip {
            at: 100,
            count: 64,
            // Flip a high bit: redirects the burst to a different row.
            xor: 1 << 20,
        };
        let mut a = TamperingSink::new(DramSystem::new(cfg), fault);
        let sa = drive(&mut a, 4096);
        assert!(a.fired());
        let mut b = TamperingSink::new(DramSystem::new(cfg), fault);
        let sb = drive(&mut b, 4096);
        assert_eq!(sa, sb, "tampered runs must be deterministic");
        assert_ne!(sa, clean, "the fault must be observable");
    }

    #[test]
    fn replay_reissues_window() {
        let cfg = DramConfig::test_single_channel();
        let fault = StreamFault::Replay {
            start: 0,
            len: 10,
            at: 50,
        };
        let mut t = TamperingSink::new(DramSystem::new(cfg), fault);
        let stats = drive(&mut t, 100);
        assert!(t.fired());
        assert_eq!(stats.accesses(), 110);
    }

    #[test]
    fn drop_swallows_accesses() {
        let cfg = DramConfig::test_single_channel();
        let fault = StreamFault::Drop { at: 5, count: 20 };
        let mut t = TamperingSink::new(DramSystem::new(cfg), fault);
        let stats = drive(&mut t, 100);
        assert!(t.fired());
        assert_eq!(stats.accesses(), 80);
    }

    #[test]
    fn out_of_range_fault_never_fires() {
        let cfg = DramConfig::test_single_channel();
        let fault = StreamFault::Drop {
            at: 1_000_000,
            count: 1,
        };
        let mut t = TamperingSink::new(DramSystem::new(cfg), fault);
        let clean = drive(&mut DramSystem::new(cfg), 100);
        let stats = drive(&mut t, 100);
        assert!(!t.fired());
        assert_eq!(stats, clean);
    }

    #[test]
    fn borrowed_sink_forwards() {
        let cfg = DramConfig::test_single_channel();
        let mut inner = DramSystem::new(cfg);
        let stats = {
            let mut t = TamperingSink::new(&mut inner, StreamFault::Drop { at: 0, count: 1 });
            drive(&mut t, 10)
        };
        assert_eq!(stats.accesses(), 9);
    }
}
