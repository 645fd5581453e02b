//! Multi-channel DRAM front end with address mapping.

use crate::channel::{Channel, Request};
use crate::config::DramConfig;
use crate::stats::DramStats;
use guardnn_obs::Recorder;

/// A destination for decoded DRAM transactions. Implemented by the inline
/// [`DramSystem`] and by the per-channel-threaded
/// [`crate::parallel::ParallelDram`] front end, so simulation drivers can
/// be generic over how channels are stepped.
pub trait DramSink {
    /// Enqueues one transaction of `access_bytes` at `addr`.
    fn access(&mut self, addr: u64, is_write: bool);

    /// Enqueues a run of `blocks` 64-byte blocks from `first_addr`: by
    /// definition the same as `blocks` [`DramSink::access`] calls at
    /// `first_addr`, `first_addr + 64`, … in address order, which is what
    /// the default does (so wrappers that count accesses keep counting
    /// them). [`DramSystem`] overrides it to decode once per row page.
    fn access_range(&mut self, first_addr: u64, blocks: u64, is_write: bool) {
        for k in 0..blocks {
            self.access(first_addr + k * BLOCK_BYTES, is_write);
        }
    }

    /// Drains all queues and returns merged statistics so far (bank and
    /// timing state persist — this checkpoints, it does not reset).
    fn drain_stats(&mut self) -> DramStats;
}

/// The stride of [`DramSink::access_range`]: one BL8 burst on a 64-bit bus.
const BLOCK_BYTES: u64 = 64;

/// The full DRAM system: address decoding plus one [`Channel`] per channel.
///
/// Address mapping (low → high bits): channel, bank group, column, rank,
/// bank, row. Placing the bank-group bits immediately above the channel bits
/// interleaves consecutive bursts across bank groups, so streaming traffic
/// is paced by tCCD_S rather than tCCD_L — the standard DDR4 controller
/// optimization (and Ramulator's high-performance mapping).
///
/// # Example
///
/// ```
/// use guardnn_dram::{DramConfig, DramSystem};
///
/// let mut dram = DramSystem::new(DramConfig::ddr4_2400_16gb());
/// dram.access(0, false);
/// dram.access(64, true);
/// let stats = dram.finish();
/// assert_eq!(stats.accesses(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DramSystem {
    cfg: DramConfig,
    channels: Vec<Channel>,
    /// Shift/mask decode plan when every geometry factor is a power of two
    /// (the invariable case in practice); `None` falls back to div/mod.
    /// Address decoding runs once per 64-byte block of simulated traffic,
    /// so a chain of eight u64 divisions is measurable.
    shifts: Option<DecodeShifts>,
}

/// log2 of each geometry factor, for the shift/mask decode path.
#[derive(Clone, Copy, Debug)]
struct DecodeShifts {
    access: u32,
    channels: u32,
    bank_groups: u32,
    cols_per_row: u32,
    ranks: u32,
    banks_per_group: u32,
}

fn log2_exact(x: u64) -> Option<u32> {
    (x.is_power_of_two()).then(|| x.trailing_zeros())
}

impl DramSystem {
    /// Creates an idle DRAM system reporting to the process-global
    /// recorder (a no-op unless observability is enabled).
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_recorder(cfg, Recorder::global().clone())
    }

    /// Creates an idle DRAM system whose channels report per-channel
    /// metrics (`dram.chan{i}.*`) to `recorder`.
    pub fn with_recorder(cfg: DramConfig, recorder: Recorder) -> Self {
        let channels = (0..cfg.channels)
            .map(|i| Channel::with_observer(cfg, recorder.clone(), i))
            .collect();
        let shifts = (|| {
            Some(DecodeShifts {
                access: log2_exact(cfg.access_bytes)?,
                channels: log2_exact(cfg.channels as u64)?,
                bank_groups: log2_exact(cfg.bank_groups as u64)?,
                cols_per_row: log2_exact(cfg.row_bytes / cfg.access_bytes)?,
                ranks: log2_exact(cfg.ranks as u64)?,
                banks_per_group: log2_exact(cfg.banks_per_group as u64)?,
            })
        })();
        Self {
            cfg,
            channels,
            shifts,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Enqueues one transaction of `cfg.access_bytes` at `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) {
        let (channel, req) = self.route(addr, is_write);
        self.channels[channel].push(req);
    }

    /// Drains all queues and returns merged statistics. Total cycles is the
    /// max across channels (they run in parallel).
    pub fn finish(mut self) -> DramStats {
        self.drain_stats()
    }

    /// Drains all queues and returns merged statistics without consuming
    /// the system; bank and timing state persist, so this can checkpoint
    /// progress between phases of a longer simulation.
    pub fn drain_stats(&mut self) -> DramStats {
        let mut merged = DramStats::default();
        for ch in &mut self.channels {
            merged.merge(&ch.drain());
        }
        merged
    }

    /// Decodes `addr` into its channel index and channel-local request —
    /// the demux step the per-channel-threaded front end runs on the
    /// producing thread.
    #[inline]
    pub(crate) fn route(&self, addr: u64, is_write: bool) -> (usize, Request) {
        let cfg = &self.cfg;
        // Bank-address hashing (XOR with low row bits): decorrelates
        // concurrently streamed regions so they do not ping-pong one bank's
        // row buffer — standard in modern controllers and Ramulator maps.
        if let Some(s) = &self.shifts {
            // All geometry factors are powers of two: pure shift/mask.
            let block = addr >> s.access;
            let channel = (block & ((1 << s.channels) - 1)) as usize;
            let rest = block >> s.channels;
            let bank_group = (rest & ((1 << s.bank_groups) - 1)) as usize;
            let rest = (rest >> s.bank_groups) >> s.cols_per_row; // column bits consumed
            let rank = rest & ((1 << s.ranks) - 1);
            let rest = rest >> s.ranks;
            let bank_in_group = rest & ((1 << s.banks_per_group) - 1);
            let row = rest >> s.banks_per_group;
            let bank_in_group = (bank_in_group ^ (row & ((1 << s.banks_per_group) - 1))) as usize;
            let rank = (rank ^ ((row >> s.banks_per_group) & ((1 << s.ranks) - 1))) as usize;
            let bank =
                ((rank * cfg.bank_groups) + bank_group) * cfg.banks_per_group + bank_in_group;
            return (
                channel,
                Request {
                    bank,
                    bank_group,
                    row,
                    is_write,
                },
            );
        }
        let block = addr / cfg.access_bytes;
        let channel = (block % cfg.channels as u64) as usize;
        let rest = block / cfg.channels as u64;
        let bank_group = (rest % cfg.bank_groups as u64) as usize;
        let rest = rest / cfg.bank_groups as u64;
        let cols_per_row = cfg.row_bytes / cfg.access_bytes;
        let rest = rest / cols_per_row; // column bits consumed
        let rank = (rest % cfg.ranks as u64) as usize;
        let rest = rest / cfg.ranks as u64;
        let bank_in_group = (rest % cfg.banks_per_group as u64) as usize;
        let row = rest / cfg.banks_per_group as u64;
        let bank_in_group = (bank_in_group as u64 ^ (row % cfg.banks_per_group as u64)) as usize;
        let rank = (rank as u64 ^ ((row / cfg.banks_per_group as u64) % cfg.ranks as u64)) as usize;
        let bank = ((rank * cfg.bank_groups) + bank_group) * cfg.banks_per_group + bank_in_group;
        (
            channel,
            Request {
                bank,
                bank_group,
                row,
                is_write,
            },
        )
    }
}

impl DramSink for DramSystem {
    fn access(&mut self, addr: u64, is_write: bool) {
        DramSystem::access(self, addr, is_write);
    }

    /// Decodes the first block of each row page in full and steps the
    /// rest: within a page only the channel, bank-group and
    /// column bits change, never rank, bank or row. Without a shift plan,
    /// or with a granule other than 64 B, it issues one access per block.
    fn access_range(&mut self, first_addr: u64, blocks: u64, is_write: bool) {
        let Some(s) = self.shifts.filter(|s| 1 << s.access == BLOCK_BYTES) else {
            for k in 0..blocks {
                self.access(first_addr + k * BLOCK_BYTES, is_write);
            }
            return;
        };
        let page_shift = s.channels + s.bank_groups + s.cols_per_row;
        let channel_mask = (1 << s.channels) - 1;
        let group_mask = (1 << s.bank_groups) - 1;
        let per_group = self.cfg.banks_per_group;
        let mut block = first_addr >> s.access;
        let end = block + blocks;
        while block < end {
            let page_end = end.min(((block >> page_shift) + 1) << page_shift);
            let (_, first) = self.route(block << s.access, is_write);
            let group0_bank = first.bank - first.bank_group * per_group;
            for b in block..page_end {
                let bank_group = (b >> s.channels & group_mask) as usize;
                self.channels[(b & channel_mask) as usize].push(Request {
                    bank: group0_bank + bank_group * per_group,
                    bank_group,
                    row: first.row,
                    is_write,
                });
            }
            block = page_end;
        }
    }

    fn drain_stats(&mut self) -> DramStats {
        DramSystem::drain_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_addresses_stripe_channels() {
        let cfg = DramConfig::ddr4_2400_16gb();
        let sys = DramSystem::new(cfg);
        let (c0, _) = sys.route(0, false);
        let (c1, _) = sys.route(64, false);
        assert_ne!(c0, c1);
        let (c2, _) = sys.route(128, false);
        assert_eq!(c0, c2);
    }

    #[test]
    fn shift_decode_matches_div_mod_decode() {
        // Every shipped config is power-of-two, so normal operation only
        // exercises the shift/mask path; pin it against the div/mod
        // fallback so the two decoders cannot silently diverge.
        for cfg in [
            DramConfig::ddr4_2400_16gb(),
            DramConfig::test_single_channel(),
        ] {
            let fast = DramSystem::new(cfg);
            assert!(fast.shifts.is_some(), "shipped configs are power-of-two");
            let mut slow = fast.clone();
            slow.shifts = None;
            let mut addr = 0u64;
            for i in 0..20_000u64 {
                // Mix dense strides with wild jumps across the 16 GB space.
                addr = addr.wrapping_add(64 + (i % 7) * 8192 + (i % 11) * (1 << 27));
                let a = addr % (1 << 34);
                assert_eq!(fast.route(a, false), slow.route(a, false), "addr {a:#x}");
            }
        }
    }

    #[test]
    fn same_row_until_rotation_boundary() {
        let cfg = DramConfig::test_single_channel();
        let sys = DramSystem::new(cfg);
        // With bank-group interleaving a contiguous region of
        // bank_groups × row_bytes shares row state across the four groups.
        let span = cfg.bank_groups as u64 * cfg.row_bytes;
        let (_, r0) = sys.route(0, false);
        let (_, r_same) = sys.route(4 * 64, false); // same group, next column
        assert_eq!((r0.bank, r0.row), (r_same.bank, r_same.row));
        let (_, r_other_group) = sys.route(64, false);
        assert_ne!(r0.bank_group, r_other_group.bank_group);
        let (_, r_far) = sys.route(span, false);
        assert_ne!((r0.bank, r0.row), (r_far.bank, r_far.row));
    }

    #[test]
    fn streaming_gets_high_bandwidth() {
        let cfg = DramConfig::ddr4_2400_16gb();
        let mut sys = DramSystem::new(cfg);
        sys.access_range(0, (1 << 20) / 64, false); // 1 MiB stream
        let stats = sys.finish();
        let bpc = stats.bytes_per_cycle(64);
        // 2 channels → up to 32 B/cycle; streaming should reach >75%.
        assert!(bpc > 24.0, "got {bpc}");
        assert!(
            stats.row_hit_rate() > 0.9,
            "hit rate {}",
            stats.row_hit_rate()
        );
    }

    #[test]
    fn random_accesses_get_low_bandwidth() {
        let cfg = DramConfig::ddr4_2400_16gb();
        let mut sys = DramSystem::new(cfg);
        // Stride by a prime number of rows to defeat the row buffer.
        let stride = cfg.row_bytes * 17 + 64;
        let mut addr = 0u64;
        for _ in 0..16_384 {
            sys.access(addr % (1 << 34), false);
            addr += stride;
        }
        let stats = sys.finish();
        let bpc = stats.bytes_per_cycle(64);
        assert!(
            bpc < 16.0,
            "scattered traffic must be far from peak, got {bpc}"
        );
    }

    #[test]
    fn access_range_covers_partial_blocks() {
        let cfg = DramConfig::test_single_channel();
        let mut sys = DramSystem::new(cfg);
        sys.access_range(10, 2, true); // addresses 10 and 74: blocks 0 and 1
        let stats = sys.finish();
        assert_eq!(stats.writes, 2);
    }

    /// Random block runs: most cross row pages (and every run of two or
    /// more blocks crosses channels), some are short, some empty, and the
    /// start address is rarely block-aligned.
    fn random_runs(cfg: &DramConfig, seed: u64, n: usize) -> Vec<(u64, u64, bool)> {
        let page_blocks = cfg.channels as u64 * cfg.bank_groups as u64 * cfg.row_bytes / 64;
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let r = next();
                let blocks = if r % 4 == 0 {
                    r % 17
                } else {
                    r % (3 * page_blocks)
                };
                (next() % (1 << 34), blocks, r >> 63 == 1)
            })
            .collect()
    }

    #[test]
    fn access_range_matches_per_block_accesses() {
        // Every registry geometry (1, 2 or 8 channels; 1 or 2 ranks; 1 or
        // 4 bank groups; 2 or 8 KiB rows), plus one that is not a power of
        // two, so the div/mod decode runs. Statistics are compared at
        // every drain.
        let mut cfgs: Vec<DramConfig> = guardnn_targets::builtin_targets()
            .iter()
            .map(DramConfig::from_target)
            .collect();
        cfgs.push(DramConfig {
            channels: 3,
            bank_groups: 3,
            row_bytes: 3 << 10,
            ..DramConfig::ddr4_2400_16gb()
        });
        for cfg in cfgs {
            let mut ranged = DramSystem::new(cfg);
            let mut single = DramSystem::new(cfg);
            for (i, (first_addr, blocks, write)) in
                random_runs(&cfg, 0x5EED, 240).into_iter().enumerate()
            {
                ranged.access_range(first_addr, blocks, write);
                for k in 0..blocks {
                    single.access(first_addr + k * 64, write);
                }
                if i % 40 == 39 {
                    assert_eq!(
                        ranged.drain_stats(),
                        single.drain_stats(),
                        "{cfg:?} run {i}"
                    );
                }
            }
        }
        // An empty run issues nothing, whatever its alignment.
        let mut sys = DramSystem::new(DramConfig::test_single_channel());
        sys.access_range(10, 0, true);
        assert_eq!(sys.finish(), DramStats::default());
    }

    #[test]
    fn tampering_sink_counts_range_accesses() {
        // A wrapper that keeps the default `access_range` sees one access
        // per block, so a fault strikes the same access index whether the
        // driver hands it runs or single blocks.
        use crate::tamper::{StreamFault, TamperingSink};
        let cfg = DramConfig::ddr4_2400_16gb();
        let runs = random_runs(&cfg, 0xFA17, 40);
        for fault in [
            StreamFault::AddrFlip {
                at: 5_000,
                count: 64,
                xor: 1 << 20,
            },
            StreamFault::Replay {
                start: 1_000,
                len: 300,
                at: 9_001,
            },
            StreamFault::Drop { at: 777, count: 33 },
        ] {
            let mut ranged = TamperingSink::new(DramSystem::new(cfg), fault);
            let mut single = TamperingSink::new(DramSystem::new(cfg), fault);
            for &(first_addr, blocks, write) in &runs {
                ranged.access_range(first_addr, blocks, write);
                for k in 0..blocks {
                    single.access(first_addr + k * 64, write);
                }
            }
            assert!(ranged.fired(), "{fault:?}");
            assert_eq!(ranged.drain_stats(), single.drain_stats(), "{fault:?}");
        }
    }

    #[test]
    fn two_channels_nearly_double_bandwidth() {
        let run = |channels: usize| {
            let cfg = DramConfig {
                channels,
                ..DramConfig::ddr4_2400_16gb()
            };
            let mut sys = DramSystem::new(cfg);
            sys.access_range(0, (4 << 20) / 64, false);
            let stats = sys.finish();
            stats.bytes_per_cycle(64)
        };
        let one = run(1);
        let two = run(2);
        assert!(two > 1.8 * one, "1ch {one} vs 2ch {two}");
    }

    #[test]
    fn bank_hash_decorrelates_far_regions() {
        // Two regions 1 GiB apart stream concurrently; with bank-address
        // hashing their banks keep rotating so sustained collisions are
        // rare and throughput stays high.
        let cfg = DramConfig::test_single_channel();
        let mut sys = DramSystem::new(cfg);
        for i in 0..8192u64 {
            sys.access(i * 64, false);
            sys.access((1 << 30) + i * 64, false);
        }
        let stats = sys.finish();
        assert!(
            stats.row_hit_rate() > 0.9,
            "hit rate {}",
            stats.row_hit_rate()
        );
    }

    #[test]
    fn writes_and_reads_counted() {
        let mut sys = DramSystem::new(DramConfig::ddr4_2400_16gb());
        sys.access(0, false);
        sys.access(64, true);
        sys.access(128, true);
        let stats = sys.finish();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 2);
    }
}
