//! Per-channel command scheduling with an FR-FCFS reordering window.
//!
//! Pending requests sit in a 128-entry ring indexed by arrival
//! position, and the window itself is a handful of `u128` bitmasks over
//! that ring: bit `i` of each mask stands for arrival position `base + i`.
//! `live` marks the unissued requests, `hit` those whose row is their
//! bank's open row, and one mask per bank marks that bank's requests. Each
//! FR-FCFS query is then a mask operation plus `trailing_zeros`: the
//! oldest request is the lowest bit of `live`, the oldest hit the lowest
//! bit of `hit`, the oldest non-hit (the background row-preparation
//! candidate) the lowest bit of `live & !hit`, and the victim check ("does
//! this bank still have pending hits?") is `hit & bank != 0`. When a row
//! opens, `hit` is recomputed over that bank's members only; a refresh
//! clears it.
//!
//! Every pick is a row hit. When some non-hit is pending, background
//! preparation either opens the oldest non-hit's row, which makes it a
//! hit, or is refused because that bank still has pending hits. Either
//! way a hit exists, so the issue path only computes column timing.
//!
//! When arrivals reach the end of the ring, the masks shift down to the
//! oldest live request; if that request is still at `base` (a non-hit
//! starved behind younger hits), the live requests are renumbered densely
//! in arrival order instead. A window of up to [`MAX_SCHED_WINDOW`]
//! requests leaves a free slot either way.

use crate::bank::{Bank, RowOutcome};
use crate::config::DramConfig;
use crate::stats::DramStats;
use guardnn_obs::Recorder;

/// A decoded transaction bound for one channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Flat bank index within the channel (rank × group × bank).
    pub bank: usize,
    /// Bank-group index (for tCCD_L vs tCCD_S).
    pub bank_group: usize,
    /// Row within the bank.
    pub row: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
}

/// Ring slots: one bit of a `u128` mask each.
const SLOTS: usize = u128::BITS as usize;

/// The largest FR-FCFS window a channel holds: a full window plus the
/// request being pushed must fit in the ring.
pub const MAX_SCHED_WINDOW: usize = SLOTS - 1;

/// One memory channel: banks, scheduler window, shared data bus.
#[derive(Clone, Debug)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Pending requests: arrival position `p` lives at `slots[p % SLOTS]`.
    slots: Box<[Request; SLOTS]>,
    /// Arrival position of mask bit 0.
    base: u64,
    /// Arrival position of the next push (at most `base + SLOTS`).
    next: u64,
    /// Unissued requests.
    live: u128,
    /// `live.count_ones()`, kept as a count: baseline x86-64 has no
    /// POPCNT instruction, and the count is read on every push.
    queued: usize,
    /// Live requests whose row is their bank's open row.
    hit: u128,
    /// Per bank, its live requests.
    bank_reqs: Vec<u128>,
    /// Current scheduling time (cycle of the last issued column command).
    now: u64,
    /// Cycle at which the data bus becomes free.
    bus_free: u64,
    /// Last column command cycle, per bank group (tCCD_L), `None` until a
    /// group has issued its first column command.
    last_col: Vec<Option<u64>>,
    /// Last column command cycle in any group (tCCD_S).
    last_col_any: Option<u64>,
    /// Whether the previous burst was a write (turnaround penalties).
    last_was_write: bool,
    /// Cycle the most recent write burst left the data bus (tWTR counts
    /// from here, not from the WRITE command).
    last_write_end: u64,
    /// Ring of the last four activates, each as the cycle it leaves the
    /// tFAW window (activate + tFAW; 0 until four have happened). The
    /// oldest, at `faw_next`, gates the next activate.
    faw_release: [u64; 4],
    faw_next: usize,
    /// Next scheduled refresh.
    next_refresh: u64,
    stats: DramStats,
    /// Metrics hook; `None` (the default) costs one branch per issue.
    /// Boxed so the disabled case adds no bulk to the scheduler's
    /// cache-resident state.
    obs: Option<Box<ChannelObs>>,
}

/// Issues between consecutive time-series samples. Sampling is on the
/// scheduler's hot path, so it is throttled rather than per-issue.
const OBS_SAMPLE_EVERY: u32 = 1024;

/// Per-channel observability state: bounded time-series of queue depth
/// and cumulative row hit-rate keyed by scheduler cycle, plus workspace
/// counter deltas exported at drain time. Purely passive — it reads
/// scheduler state and never influences a scheduling decision, so
/// observed and unobserved runs stay bit-identical.
#[derive(Clone, Debug)]
struct ChannelObs {
    rec: Recorder,
    /// Issues remaining until the next series sample.
    sample_left: u32,
    /// Stats already exported as counters; drain exports the delta.
    reported: DramStats,
    /// Cached series names (avoid a `format!` per sample).
    qd_name: String,
    hr_name: String,
}

impl ChannelObs {
    /// Samples queue depth and row hit-rate at scheduler cycle `now`.
    fn sample(&mut self, now: u64, queued: usize, stats: &DramStats) {
        self.rec.sample(&self.qd_name, now, queued as f64);
        let cols = stats.row_hits + stats.row_misses + stats.row_conflicts;
        if cols > 0 {
            self.rec
                .sample(&self.hr_name, now, stats.row_hits as f64 / cols as f64);
        }
    }

    /// Exports the counter delta since the previous drain.
    fn export(&mut self, stats: &DramStats) {
        let r = self.reported;
        self.rec.add("dram.reads", stats.reads - r.reads);
        self.rec.add("dram.writes", stats.writes - r.writes);
        self.rec.add("dram.row_hits", stats.row_hits - r.row_hits);
        self.rec
            .add("dram.row_misses", stats.row_misses - r.row_misses);
        self.rec
            .add("dram.row_conflicts", stats.row_conflicts - r.row_conflicts);
        self.rec
            .add("dram.refreshes", stats.refreshes - r.refreshes);
        self.reported = *stats;
    }
}

impl Channel {
    /// Creates an idle channel reporting to the process-global recorder
    /// (a no-op unless observability is enabled) as channel index 0.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.sched_window` exceeds [`MAX_SCHED_WINDOW`] (target
    /// validation rejects such windows with a typed error).
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_observer(cfg, Recorder::global().clone(), 0)
    }

    /// Creates an idle channel reporting metrics to `recorder` under the
    /// per-channel names `dram.chan{index}.*`.
    ///
    /// # Panics
    ///
    /// As [`Channel::new`].
    pub fn with_observer(cfg: DramConfig, recorder: Recorder, index: usize) -> Self {
        assert!(
            cfg.sched_window <= MAX_SCHED_WINDOW,
            "sched_window {} exceeds the scheduler's {MAX_SCHED_WINDOW}-request ring",
            cfg.sched_window
        );
        let obs = recorder.is_enabled().then(|| {
            Box::new(ChannelObs {
                rec: recorder,
                sample_left: OBS_SAMPLE_EVERY,
                reported: DramStats::default(),
                qd_name: format!("dram.chan{index}.queue_depth"),
                hr_name: format!("dram.chan{index}.row_hit_rate"),
            })
        });
        let empty = Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: false,
        };
        Self {
            next_refresh: cfg.timing.refi,
            banks: vec![Bank::new(); cfg.banks_per_channel()],
            slots: Box::new([empty; SLOTS]),
            base: 0,
            next: 0,
            live: 0,
            queued: 0,
            hit: 0,
            bank_reqs: vec![0; cfg.banks_per_channel()],
            now: 0,
            bus_free: 0,
            last_col: vec![None; cfg.bank_groups],
            last_col_any: None,
            last_was_write: false,
            last_write_end: 0,
            faw_release: [0; 4],
            faw_next: 0,
            stats: DramStats::default(),
            obs,
            cfg,
        }
    }

    /// Enqueues a transaction, issuing older ones when the scheduler window
    /// fills.
    #[inline]
    pub fn push(&mut self, req: Request) {
        if self.next - self.base == SLOTS as u64 {
            self.make_room();
        }
        let bit = 1u128 << (self.next - self.base);
        self.slots[self.next as usize % SLOTS] = req;
        self.next += 1;
        self.live |= bit;
        self.queued += 1;
        self.bank_reqs[req.bank] |= bit;
        if self.banks[req.bank].open_row() == Some(req.row) {
            self.hit |= bit;
        }
        while self.queued > self.cfg.sched_window {
            self.issue_one();
        }
    }

    /// Issues everything still queued and returns the statistics so far.
    pub fn drain(&mut self) -> DramStats {
        while self.live != 0 {
            self.issue_one();
        }
        if let Some(obs) = &mut self.obs {
            obs.export(&self.stats);
        }
        self.stats
    }

    /// Current statistics without draining.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The pending request at mask bit `i`.
    #[inline]
    fn slot(&self, i: u32) -> Request {
        self.slots[(self.base + u64::from(i)) as usize % SLOTS]
    }

    /// Frees ring slots once arrivals reach the end of the ring (see the
    /// module docs).
    fn make_room(&mut self) {
        match self.live.trailing_zeros() {
            0 => self.renumber(),
            // Nothing pending: restart the ring at the next arrival.
            u128::BITS => self.base = self.next,
            shift => {
                self.live >>= shift;
                self.hit >>= shift;
                for reqs in &mut self.bank_reqs {
                    *reqs >>= shift;
                }
                self.base += u64::from(shift);
            }
        }
    }

    /// Moves the live requests to consecutive positions from `base`, in
    /// arrival order, rebuilding the masks to match.
    fn renumber(&mut self) {
        let (old_live, old_hit) = (self.live, self.hit);
        self.live = 0;
        self.hit = 0;
        self.bank_reqs.fill(0);
        let mut rest = old_live;
        let mut dense = 0u32;
        // `dense <= i`: each request moves down, never onto one not yet moved.
        while rest != 0 {
            let i = rest.trailing_zeros();
            rest &= rest - 1;
            let req = self.slot(i);
            self.slots[(self.base + u64::from(dense)) as usize % SLOTS] = req;
            let bit = 1u128 << dense;
            self.live |= bit;
            self.bank_reqs[req.bank] |= bit;
            if old_hit >> i & 1 == 1 {
                self.hit |= bit;
            }
            dense += 1;
        }
        self.next = self.base + u64::from(dense);
    }

    /// Background row preparation for the non-hit at mask bit `i`: ACT/PRE
    /// its row — unless its bank still has pending hits on the open row
    /// (the victim) — then mark the bank's requests for that row as hits.
    fn try_prepare(&mut self, i: u32) {
        let req = self.slot(i);
        if self.hit & self.bank_reqs[req.bank] != 0 {
            return;
        }
        let t = self.cfg.timing;
        let issue_from = self.now.max(self.faw_release[self.faw_next]);
        let (outcome, _) = self.banks[req.bank].access_row(req.row, issue_from, &t);
        self.faw_release[self.faw_next] = self.banks[req.bank].activated_at() + t.faw;
        self.faw_next = (self.faw_next + 1) % 4;
        match outcome {
            RowOutcome::Hit => {}
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        // The bank had no hits, so only its requests for the new row join.
        let mut members = self.bank_reqs[req.bank];
        while members != 0 {
            let j = members.trailing_zeros();
            members &= members - 1;
            if self.slot(j).row == req.row {
                self.hit |= 1 << j;
            }
        }
    }

    /// Issues one request: background preparation for the oldest non-hit,
    /// then the oldest hit's column command.
    #[inline]
    fn issue_one(&mut self) {
        self.maybe_refresh();
        let waiting = self.live & !self.hit;
        if waiting != 0 {
            self.try_prepare(waiting.trailing_zeros());
        }
        debug_assert_ne!(self.hit, 0, "a pending request exists, so a hit does");
        let i = self.hit.trailing_zeros();
        let req = self.slot(i);
        let bit = 1u128 << i;
        self.live &= !bit;
        self.queued -= 1;
        self.hit &= !bit;
        self.bank_reqs[req.bank] &= !bit;
        let t = self.cfg.timing;
        let (outcome, row_ready) = self.banks[req.bank].access_row(req.row, self.now, &t);
        debug_assert_eq!(outcome, RowOutcome::Hit, "every pick is a row hit");

        // Column command: after row ready, tCCD_L since the last column in
        // the same group, tCCD_S since the last column in any group, and
        // bus turnaround. Write-to-read turnaround counts from the end of
        // the preceding write burst (DDR4 tWTR), not from its command.
        let ccd_l_gate = self.last_col[req.bank_group].map_or(0, |c| c + t.ccd_l);
        let ccd_s_gate = self.last_col_any.map_or(0, |c| c + t.ccd_s);
        let turnaround_gate = match (self.last_was_write, req.is_write) {
            (true, false) => self.last_write_end + t.wtr,
            (false, true) => self.now + t.rtw,
            _ => 0,
        };
        let mut cmd_at = row_ready
            .max(ccd_l_gate)
            .max(ccd_s_gate)
            .max(turnaround_gate)
            .max(self.now);
        // Data must find the bus free; CAS latency separates command from data.
        let data_start = (cmd_at + t.cl).max(self.bus_free);
        cmd_at = data_start - t.cl;
        let data_end = data_start + t.burst_cycles();

        self.last_col[req.bank_group] = Some(cmd_at);
        self.last_col_any = Some(cmd_at);
        self.bus_free = data_end;
        self.now = cmd_at;
        self.last_was_write = req.is_write;
        if req.is_write {
            self.last_write_end = data_end;
            self.banks[req.bank].note_write(data_end, &t);
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.row_hits += 1;
        self.stats.total_cycles = self.stats.total_cycles.max(data_end);
        if let Some(obs) = &mut self.obs {
            obs.sample_left -= 1;
            if obs.sample_left == 0 {
                obs.sample_left = OBS_SAMPLE_EVERY;
                obs.sample(self.now, self.queued, &self.stats);
            }
        }
    }

    #[inline]
    fn maybe_refresh(&mut self) {
        if self.now < self.next_refresh {
            return;
        }
        let t = self.cfg.timing;
        while self.now >= self.next_refresh {
            // All-bank refresh blocks the channel for tRFC.
            self.now = self.next_refresh + t.rfc;
            self.bus_free = self.bus_free.max(self.now);
            self.next_refresh += t.refi;
            self.stats.refreshes += 1;
        }
        for bank in &mut self.banks {
            bank.close();
        }
        self.hit = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DdrTiming;
    use std::collections::VecDeque;

    fn cfg() -> DramConfig {
        DramConfig::test_single_channel()
    }

    /// FR-FCFS windows of 1, 2, 7, 64 and the ring's cap, on the
    /// single-channel test geometry and the paper's 2-rank, 32-bank one.
    fn windows_and_geometries() -> impl Iterator<Item = DramConfig> {
        [cfg(), DramConfig::ddr4_2400_16gb()]
            .into_iter()
            .flat_map(|geometry| {
                [1, 2, 7, 64, MAX_SCHED_WINDOW].map(|sched_window| DramConfig {
                    sched_window,
                    ..geometry
                })
            })
    }

    /// The differential tests' configurations: [`windows_and_geometries`]
    /// plus a tREFI short enough that refreshes land while the window holds
    /// both hits and non-hits.
    fn oracle_configs() -> impl Iterator<Item = DramConfig> {
        let timing = DdrTiming {
            refi: 700,
            rfc: 60,
            ..DdrTiming::ddr4_2400()
        };
        windows_and_geometries().chain([DramConfig { timing, ..cfg() }])
    }

    /// Reference scheduler: the original flat-queue O(window) FR-FCFS
    /// algorithm with the same timing rules, used as a differential
    /// oracle for the bitmask window.
    struct FlatChannel {
        cfg: DramConfig,
        banks: Vec<Bank>,
        queue: VecDeque<Request>,
        now: u64,
        bus_free: u64,
        last_col: Vec<Option<u64>>,
        last_col_any: Option<u64>,
        last_was_write: bool,
        last_write_end: u64,
        recent_acts: VecDeque<u64>,
        next_refresh: u64,
        stats: DramStats,
    }

    impl FlatChannel {
        fn new(cfg: DramConfig) -> Self {
            Self {
                next_refresh: cfg.timing.refi,
                banks: vec![Bank::new(); cfg.banks_per_channel()],
                queue: VecDeque::new(),
                now: 0,
                bus_free: 0,
                last_col: vec![None; cfg.bank_groups],
                last_col_any: None,
                last_was_write: false,
                last_write_end: 0,
                recent_acts: VecDeque::new(),
                stats: DramStats::default(),
                cfg,
            }
        }

        fn push(&mut self, req: Request) {
            self.queue.push_back(req);
            while self.queue.len() > self.cfg.sched_window {
                self.issue_one();
            }
        }

        fn drain(&mut self) -> DramStats {
            while !self.queue.is_empty() {
                self.issue_one();
            }
            self.stats
        }

        fn issue_one(&mut self) {
            let t = self.cfg.timing;
            // Refresh.
            while self.now >= self.next_refresh {
                for bank in &mut self.banks {
                    bank.close();
                }
                self.now = self.next_refresh + t.rfc;
                self.bus_free = self.bus_free.max(self.now);
                self.next_refresh += t.refi;
                self.stats.refreshes += 1;
            }
            // Background row preparation.
            let candidate = self
                .queue
                .iter()
                .find(|r| self.banks[r.bank].open_row() != Some(r.row))
                .copied();
            if let Some(req) = candidate {
                let victim_wanted = self.queue.iter().any(|q| {
                    q.bank == req.bank
                        && q.row != req.row
                        && self.banks[q.bank].open_row() == Some(q.row)
                });
                if !victim_wanted {
                    let act_gate = if self.recent_acts.len() >= 4 {
                        self.recent_acts[self.recent_acts.len() - 4] + t.faw
                    } else {
                        0
                    };
                    let issue_from = self.now.max(act_gate);
                    let (outcome, _) = self.banks[req.bank].access_row(req.row, issue_from, &t);
                    let act_at = self.banks[req.bank].activated_at();
                    self.recent_acts.push_back(act_at);
                    while self.recent_acts.len() > 4 {
                        self.recent_acts.pop_front();
                    }
                    match outcome {
                        RowOutcome::Hit => {}
                        RowOutcome::Miss => self.stats.row_misses += 1,
                        RowOutcome::Conflict => self.stats.row_conflicts += 1,
                    }
                }
            }
            // FR-FCFS pick.
            let pick = self
                .queue
                .iter()
                .position(|r| self.banks[r.bank].open_row() == Some(r.row))
                .unwrap_or(0);
            let req = self.queue.remove(pick).expect("queue nonempty");
            // Column timing (same rules as the bitmask window).
            let needs_act = self.banks[req.bank].open_row() != Some(req.row);
            let act_gate = if needs_act && self.recent_acts.len() >= 4 {
                self.recent_acts[self.recent_acts.len() - 4] + t.faw
            } else {
                0
            };
            let issue_from = self.now.max(act_gate);
            let (outcome, row_ready) = self.banks[req.bank].access_row(req.row, issue_from, &t);
            if needs_act {
                let act_at = self.banks[req.bank].activated_at();
                self.recent_acts.push_back(act_at);
                while self.recent_acts.len() > 4 {
                    self.recent_acts.pop_front();
                }
            }
            let ccd_l_gate = self.last_col[req.bank_group].map_or(0, |c| c + t.ccd_l);
            let ccd_s_gate = self.last_col_any.map_or(0, |c| c + t.ccd_s);
            let turnaround_gate = match (self.last_was_write, req.is_write) {
                (true, false) => self.last_write_end + t.wtr,
                (false, true) => self.now + t.rtw,
                _ => 0,
            };
            let mut cmd_at = row_ready
                .max(ccd_l_gate)
                .max(ccd_s_gate)
                .max(turnaround_gate)
                .max(self.now);
            let data_start = (cmd_at + t.cl).max(self.bus_free);
            cmd_at = data_start - t.cl;
            let data_end = data_start + t.burst_cycles();
            self.last_col[req.bank_group] = Some(cmd_at);
            self.last_col_any = Some(cmd_at);
            self.bus_free = data_end;
            self.now = cmd_at;
            self.last_was_write = req.is_write;
            if req.is_write {
                self.last_write_end = data_end;
                self.banks[req.bank].note_write(data_end, &t);
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            match outcome {
                RowOutcome::Hit => self.stats.row_hits += 1,
                RowOutcome::Miss => self.stats.row_misses += 1,
                RowOutcome::Conflict => self.stats.row_conflicts += 1,
            }
            self.stats.total_cycles = self.stats.total_cycles.max(data_end);
        }
    }

    /// SplitMix64, for deterministic pseudorandom workloads.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn indexed_scheduler_matches_flat_reference() {
        // Differential oracle: mixed streaming/scatter/write workloads must
        // produce identical statistics to the flat O(window) scheduler.
        for (cfg, seed) in oracle_configs().flat_map(|cfg| (0..8u64).map(move |s| (cfg, s))) {
            let mut state = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1;
            let mut fast = Channel::new(cfg);
            let mut flat = FlatChannel::new(cfg);
            let mut stream_addr = 0u64;
            for i in 0..6000u64 {
                let r = splitmix(&mut state);
                let req = if r % 100 < 70 {
                    // Streaming phase: sequential blocks.
                    stream_addr += 1;
                    Request {
                        bank: ((stream_addr / 4) % 8) as usize,
                        bank_group: (stream_addr % 4) as usize,
                        row: stream_addr / 512,
                        is_write: r.is_multiple_of(10),
                    }
                } else {
                    // Scatter phase.
                    Request {
                        bank: (r >> 8) as usize % cfg.banks_per_channel(),
                        bank_group: (r >> 16) as usize % cfg.bank_groups,
                        row: (r >> 24) % 64,
                        is_write: r.is_multiple_of(3),
                    }
                };
                fast.push(req);
                flat.push(req);
                if i % 1024 == 1023 {
                    // Mid-run checkpoints drain both to idle.
                    assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}, step {i}");
                }
            }
            assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}");
        }
    }

    #[test]
    fn victim_blocked_pick_matches_flat_reference() {
        // A conflict storm on a few banks keeps the oldest request a
        // non-hit whose preparation is victim-blocked (the open row still
        // has pending hits behind younger conflicting requests), so most
        // issues pick the oldest hit past it. Schedules must stay
        // identical to the flat O(window) scan.
        for (cfg, seed) in oracle_configs().flat_map(|cfg| (0..6u64).map(move |s| (cfg, s))) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 3;
            let mut fast = Channel::new(cfg);
            let mut flat = FlatChannel::new(cfg);
            for i in 0..5000u64 {
                let r = splitmix(&mut state);
                // Two to three rows ping-ponging per bank over 2–4 banks:
                // maximal victim pressure inside the reorder window.
                let bank = (r % (2 + seed % 3)) as usize;
                let req = Request {
                    bank,
                    bank_group: bank % cfg.bank_groups,
                    row: (r >> 8) % (2 + (i % 2)),
                    is_write: r.is_multiple_of(7),
                };
                fast.push(req);
                flat.push(req);
                if i % 2048 == 2047 {
                    assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}, step {i}");
                }
            }
            assert_eq!(fast.drain(), flat.drain(), "{cfg:?} seed {seed}");
        }
    }

    #[test]
    fn starved_non_hit_matches_flat_reference() {
        // One non-hit held at the front of the window behind 400 younger
        // hits on its bank's open row: its preparation stays
        // victim-blocked, so the ring fills with it at `base` and must
        // renumber. The all-hits prefix before it fills the ring by
        // shifting. Two rounds, checked at each drain.
        let hit = Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: false,
        };
        for cfg in windows_and_geometries() {
            let mut fast = Channel::new(cfg);
            let mut flat = FlatChannel::new(cfg);
            let mut pushes = 0u64;
            for round in 0..2u64 {
                let starved = Request {
                    row: 1 + round,
                    is_write: round == 1,
                    ..hit
                };
                let stream = std::iter::repeat_n(hit, 200)
                    .chain([starved])
                    .chain(std::iter::repeat_n(hit, 400));
                for (i, req) in stream.enumerate() {
                    fast.push(req);
                    flat.push(req);
                    pushes += 1;
                    if i == 500 {
                        assert_eq!(fast.live & 1, 1, "{cfg:?}: the non-hit starves at base");
                    }
                }
                assert_eq!(fast.drain(), flat.drain(), "{cfg:?} round {round}");
            }
            assert!(fast.base > 0, "{cfg:?}: the ring never shifted");
            assert!(fast.next < pushes, "{cfg:?}: the ring never renumbered");
        }
    }

    #[test]
    fn ring_cap_matches_target_validation() {
        // Target validation and the ring agree on the largest window.
        let mut target = guardnn_targets::get("guardnn-paper").unwrap().clone();
        target.dram.sched_window = MAX_SCHED_WINDOW as u64;
        target.validate().unwrap();
        Channel::new(DramConfig::from_target(&target));
        target.dram.sched_window += 1;
        assert!(matches!(
            target.validate(),
            Err(guardnn_targets::TargetError::Invalid { path, .. }) if path == "dram.sched_window"
        ));
        let too_wide = DramConfig::from_target(&target);
        assert!(std::panic::catch_unwind(|| Channel::new(too_wide)).is_err());
    }

    fn stream(channel: &mut Channel, n: u64, same_row: bool) -> DramStats {
        for i in 0..n {
            channel.push(Request {
                bank: 0,
                bank_group: 0,
                row: if same_row { 0 } else { i },
                is_write: false,
            });
        }
        channel.drain()
    }

    #[test]
    fn row_hits_dominate_streaming() {
        // Command-level accounting: one activate (background-prepared),
        // then every column command hits the open row.
        let mut ch = Channel::new(cfg());
        let stats = stream(&mut ch, 100, true);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_hits, 100);
    }

    #[test]
    fn row_conflicts_hurt_throughput() {
        let mut hit_ch = Channel::new(cfg());
        let hit = stream(&mut hit_ch, 200, true);
        let mut miss_ch = Channel::new(cfg());
        let miss = stream(&mut miss_ch, 200, false);
        assert!(
            miss.total_cycles > 2 * hit.total_cycles,
            "conflicts {} vs hits {}",
            miss.total_cycles,
            hit.total_cycles
        );
    }

    #[test]
    fn streaming_approaches_bus_limit() {
        // Alternating bank groups (as the system address mapping produces)
        // is paced by the burst length, not tCCD_L.
        let mut ch = Channel::new(cfg());
        for i in 0..2000usize {
            ch.push(Request {
                bank: i % 4,
                bank_group: i % 4,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // BL8 occupies 4 cycles; perfect streaming is 16 B/cycle on one
        // channel. Allow for startup + refresh.
        let bpc = stats.bytes_per_cycle(64);
        assert!(bpc > 13.0, "got {bpc}");
    }

    #[test]
    fn single_bank_group_limited_by_ccd_l() {
        let mut ch = Channel::new(cfg());
        let stats = stream(&mut ch, 2000, true);
        let bpc = stats.bytes_per_cycle(64);
        // tCCD_L = 6 cycles per 64 B → ~10.7 B/cycle ceiling.
        assert!((9.0..11.5).contains(&bpc), "got {bpc}");
    }

    #[test]
    fn writes_then_reads_pay_turnaround() {
        let mut ch = Channel::new(cfg());
        for i in 0..100 {
            ch.push(Request {
                bank: 0,
                bank_group: 0,
                row: 0,
                is_write: i % 2 == 0,
            });
        }
        let alternating = ch.drain();
        let mut ch2 = Channel::new(cfg());
        let reads_only = stream(&mut ch2, 100, true);
        assert!(alternating.total_cycles > reads_only.total_cycles);
    }

    #[test]
    fn faw_throttles_activation_storms() {
        // Hammering different rows across many banks is limited by the
        // four-activate window; compare against hammering with generous
        // spacing (hits interleaved).
        let mut storm = Channel::new(cfg());
        for i in 0..256usize {
            storm.push(Request {
                bank: i % 16,
                bank_group: i % 4,
                row: i as u64,
                is_write: false,
            });
        }
        let storm_stats = storm.drain();
        let mut gentle = Channel::new(cfg());
        for i in 0..256usize {
            gentle.push(Request {
                bank: i % 4,
                bank_group: i % 4,
                row: 0,
                is_write: false,
            });
        }
        let gentle_stats = gentle.drain();
        assert!(
            storm_stats.total_cycles > gentle_stats.total_cycles,
            "storm {} vs gentle {}",
            storm_stats.total_cycles,
            gentle_stats.total_cycles
        );
    }

    #[test]
    fn background_activation_hides_row_misses() {
        // Alternating between two rows in two different banks: background
        // prep should overlap the second bank's activation with the first
        // bank's data, beating a strictly serial estimate.
        let mut ch = Channel::new(cfg());
        let n = 512usize;
        for i in 0..n {
            // Two banks, long runs per bank so rows stay open.
            let bank = (i / 64) % 2;
            ch.push(Request {
                bank,
                bank_group: bank,
                row: (i / 64) as u64,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // Serial worst case: every 64-burst run pays full open latency on
        // top of the tCCD_L-paced column stream (all requests in a run
        // share a bank group).
        let t = cfg().timing;
        let serial_estimate = (n as u64 / 64) * (t.rp + t.rcd) + n as u64 * t.ccd_l;
        assert!(
            stats.total_cycles < serial_estimate,
            "got {} vs serial {}",
            stats.total_cycles,
            serial_estimate
        );
    }

    #[test]
    fn refresh_fires_on_long_runs() {
        let mut ch = Channel::new(cfg());
        let stats = stream(&mut ch, 60_000, false);
        assert!(stats.refreshes > 0, "long run must hit tREFI: {stats:?}");
    }

    #[test]
    fn fr_fcfs_prefers_open_rows() {
        let mut ch = Channel::new(cfg());
        // Open row 0 in bank 0, then interleave a conflicting request with
        // hits; the window should reorder hits ahead.
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: false,
        });
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 7,
            is_write: false,
        });
        for _ in 0..6 {
            ch.push(Request {
                bank: 0,
                bank_group: 0,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // Command-level accounting: 1 activate for row 0, then 7 column
        // hits on row 0, one conflict-activate for row 7 plus its column
        // hit.
        assert_eq!(stats.row_hits, 8);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_conflicts, 1);
    }

    #[test]
    fn cross_group_paced_by_ccd_s() {
        // With a synthetic tCCD_S above the burst length, alternating bank
        // groups is paced by tCCD_S: faster than the tCCD_L ceiling but
        // slower than the BL8 bus limit. This pins the tCCD_S gate — with
        // the field unread, the stream would sit at the bus limit.
        let timing = DdrTiming {
            ccd_s: 5,
            ..DdrTiming::ddr4_2400()
        };
        let mut ch = Channel::new(DramConfig { timing, ..cfg() });
        let n = 2000usize;
        for i in 0..n {
            ch.push(Request {
                bank: i % 4,
                bank_group: i % 4,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        let bpc = stats.bytes_per_cycle(64);
        // 64 B / 5 cycles = 12.8 B/cycle; the bus limit is 16 and the
        // tCCD_L ceiling ~10.7. Allow startup + refresh slack.
        assert!((11.5..13.0).contains(&bpc), "got {bpc}");
    }

    #[test]
    fn cycle_zero_column_still_gates_successor() {
        // A legitimate column command at cycle 0 (zeroed row-open timings)
        // must still gate the next same-group column by tCCD_L. The old
        // `last_col == 0` sentinel erased this gate.
        let timing = DdrTiming {
            cl: 1,
            rcd: 0,
            rp: 1,
            ras: 1,
            ccd_l: 6,
            ccd_s: 4,
            rrd: 1,
            faw: 1,
            wr: 1,
            wtr: 1,
            rtw: 1,
            rfc: 1,
            refi: 1 << 40,
            bl: 8,
        };
        let mut ch = Channel::new(DramConfig { timing, ..cfg() });
        for _ in 0..2 {
            ch.push(Request {
                bank: 0,
                bank_group: 0,
                row: 0,
                is_write: false,
            });
        }
        let stats = ch.drain();
        // First column command lands at cycle 0 (tRCD = 0). The second is
        // gated to cycle tCCD_L; its data ends at tCCD_L + CL + BL/2.
        assert_eq!(
            stats.total_cycles,
            timing.ccd_l + timing.cl + timing.burst_cycles()
        );
    }

    #[test]
    fn wtr_counts_from_write_burst_end() {
        // One write then one read to the open row: the read command waits
        // until tWTR after the write burst has left the bus, not tWTR
        // after the write *command* (which would overlap the burst).
        let t = cfg().timing;
        let mut ch = Channel::new(cfg());
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: true,
        });
        ch.push(Request {
            bank: 0,
            bank_group: 0,
            row: 0,
            is_write: false,
        });
        let stats = ch.drain();
        // Write: ACT in prep, command at tRCD, burst ends at
        // tRCD + CL + BL/2. Read: command tWTR after that, data ends
        // CL + BL/2 later.
        let write_end = t.rcd + t.cl + t.burst_cycles();
        assert_eq!(
            stats.total_cycles,
            write_end + t.wtr + t.cl + t.burst_cycles()
        );
    }

    #[test]
    fn deep_window_reordering_matches_flat_scan() {
        // A pathological mix (interleaved conflicting rows on a few banks,
        // reads and writes) must drain completely with every request
        // issued exactly once, exercising preparation, victim-blocked
        // picks and the ring's shifts and renumbering together.
        let mut ch = Channel::new(cfg());
        let n = 4096usize;
        for i in 0..n {
            ch.push(Request {
                bank: i % 3,
                bank_group: i % 3,
                row: (i % 7) as u64,
                is_write: i % 5 == 0,
            });
        }
        let stats = ch.drain();
        assert_eq!(stats.accesses(), n as u64);
        assert_eq!(stats.reads, (0..n).filter(|i| i % 5 != 0).count() as u64);
        assert!(stats.row_hits + stats.row_misses + stats.row_conflicts >= n as u64);
    }
}
