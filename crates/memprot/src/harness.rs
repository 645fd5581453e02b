//! Trace → protection engine → DRAM simulation driver.
//!
//! Runs an accelerator trace through a protection engine, feeds data +
//! metadata accesses into the DDR4 model, and produces the quantities the
//! paper reports: memory-traffic increase and normalized execution time.
//!
//! One driver pulls [`TraceItem`]s and issues them into a [`DramSink`]: it
//! splits each event into block ranges of at most 1,024 blocks, hands each
//! range to [`ProtectionEngine::on_range`], and issues the data blocks with
//! the engine's tagged metadata placed behind the block each access
//! follows (reads inline, writes coalesced into sorted batches). Each run
//! of data blocks between two metadata accesses goes to the sink in one
//! [`DramSink::access_range`] call. Two entry points feed it:
//!
//! * [`run_protected_streaming`] (and its `_observed` / `_into` variants)
//!   — the production path: pulls a [`TraceSource`] (e.g.
//!   [`guardnn_systolic::TraceStream`]) into the DDR4 model, optionally
//!   with one worker thread per DRAM channel ([`ChannelMode::Threaded`]).
//!   Peak memory is O(1) in the trace length.
//! * [`run_protected`] — the materialized oracle: replays a fully built
//!   [`PlanTrace`], pinned bit-identical to the streaming path by
//!   differential tests.

use crate::{MetaAccess, ProtectionEngine, TaggedMeta, BLOCK_BYTES};
use guardnn_dram::{
    with_channel_workers_observed, ChannelMode, DramConfig, DramSink, DramStats, DramSystem,
};
use guardnn_obs::Recorder;
use guardnn_systolic::{MemEvent, PlanTrace, TraceItem, TraceSource};

/// Result of one protected run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Engine name (`"NP"`, `"BP"`, `"GuardNN_C"`, `"GuardNN_CI"`).
    pub scheme: &'static str,
    /// Data bytes moved (same for every scheme on the same trace).
    pub data_bytes: u64,
    /// Metadata bytes the protection scheme added.
    pub meta_bytes: u64,
    /// Merged DRAM statistics.
    pub dram: DramStats,
    /// Accelerator compute cycles (from the systolic model).
    pub compute_cycles: u64,
    /// End-to-end execution time in nanoseconds: per-pass
    /// `max(compute, memory)` under double buffering.
    pub exec_ns: f64,
    /// Peak bytes of trace data buffered by the driver: the whole
    /// materialized trace for [`run_protected`], the generator's
    /// constant-size segment buffer for [`run_protected_streaming`].
    pub trace_buffer_bytes: u64,
}

impl RunSummary {
    /// Memory-traffic increase relative to the data traffic
    /// (`0.353` ⇒ "+35.3%", the paper's §III-C metric).
    pub fn traffic_increase(&self) -> f64 {
        if self.data_bytes == 0 {
            0.0
        } else {
            self.meta_bytes as f64 / self.data_bytes as f64
        }
    }

    /// Execution time normalized to a baseline run (Figure 3's y-axis).
    pub fn normalized_to(&self, baseline: &RunSummary) -> f64 {
        self.exec_ns / baseline.exec_ns
    }
}

/// Metadata write-backs buffered before draining to DRAM in one batch.
/// Memory controllers drain writes opportunistically in bursts; issuing
/// each dirty metadata eviction inline would charge an unrealistic bus
/// turnaround per line.
const META_WRITE_BATCH: usize = 32;

/// Most data blocks the driver hands an engine in one
/// [`ProtectionEngine::on_range`] call: longer events are split, so the
/// tagged-metadata buffer stays O(1) in the event length.
const RANGE_BLOCKS: u64 = 1024;

/// Requests issued so far, by kind.
#[derive(Clone, Copy, Debug, Default)]
struct Issued {
    data: u64,
    meta_reads: u64,
    meta_writes: u64,
}

impl Issued {
    /// The requests issued since `mark`; moves `mark` up to `self`.
    fn since(self, mark: &mut Issued) -> Issued {
        let delta = Issued {
            data: self.data - mark.data,
            meta_reads: self.meta_reads - mark.meta_reads,
            meta_writes: self.meta_writes - mark.meta_writes,
        };
        *mark = self;
        delta
    }

    fn export(self, rec: &Recorder) {
        rec.add("memprot.blocks_data", self.data);
        rec.add("memprot.meta_reads", self.meta_reads);
        rec.add("memprot.meta_writes", self.meta_writes);
    }
}

/// Issues a protected access stream into a DRAM sink, in the order the
/// per-block model defines: each data block, then the metadata the engine
/// tagged with it — reads inline (they gate decryption), writes coalesced
/// into sorted [`META_WRITE_BATCH`]-entry batches.
struct Issuer<'a, S> {
    engine: &'a mut dyn ProtectionEngine,
    dram: &'a mut S,
    /// The engine's tagged metadata for the range being issued (reused,
    /// so at most one range's worth).
    metas: Vec<TaggedMeta>,
    pending_writes: Vec<u64>,
    issued: Issued,
}

impl<S: DramSink> Issuer<'_, S> {
    fn event(&mut self, ev: MemEvent) {
        let end = (ev.addr + ev.bytes).div_ceil(BLOCK_BYTES);
        let mut block = ev.addr / BLOCK_BYTES;
        while block < end {
            let range_end = end.min(block + RANGE_BLOCKS);
            self.metas.clear();
            self.engine
                .on_range(block..range_end, ev.write, &mut self.metas);
            self.issued.data += range_end - block;
            for i in 0..self.metas.len() {
                let TaggedMeta { block: tag, meta } = self.metas[i];
                // Empty when `tag` already led an earlier metadata access.
                self.dram
                    .access_range(block * BLOCK_BYTES, tag + 1 - block, ev.write);
                block = tag + 1;
                self.meta(meta);
            }
            self.dram
                .access_range(block * BLOCK_BYTES, range_end - block, ev.write);
            block = range_end;
        }
    }

    fn meta(&mut self, m: MetaAccess) {
        if m.write {
            self.issued.meta_writes += 1;
            self.pending_writes.push(m.addr);
            if self.pending_writes.len() >= META_WRITE_BATCH {
                self.drain_writes();
            }
        } else {
            self.issued.meta_reads += 1;
            self.dram.access(m.addr, false);
        }
    }

    /// Drains the buffered metadata write-backs in address order.
    fn drain_writes(&mut self) {
        self.pending_writes.sort_unstable();
        for addr in self.pending_writes.drain(..) {
            self.dram.access(addr, true);
        }
    }
}

/// The driver behind every entry point: runs `trace` under `engine` into
/// `dram`, with the accelerator clocked at `accel_mhz`.
///
/// Each pass overlaps compute with memory (double buffering): its wall time
/// is the max of its compute time and its share of DRAM time, checkpointed
/// at every pass boundary, where the metadata write buffer drains too. The
/// engine's end-of-run flush follows the last pass. With an enabled `rec`
/// the driver reports per-pass protection traffic. The returned summary's
/// `trace_buffer_bytes` is left 0 for the caller to fill in.
fn drive<I: Iterator<Item = TraceItem>, S: DramSink>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram: &mut S,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    rec: &Recorder,
) -> RunSummary {
    let scheme = engine.name();
    let mut io = Issuer {
        engine,
        dram,
        metas: Vec::new(),
        pending_writes: Vec::with_capacity(META_WRITE_BATCH),
        issued: Issued::default(),
    };
    let mut compute_cycles = 0u64;
    let mut exec_ns = 0.0f64;
    let mut prev_cycles = 0u64;
    let dram_ns_per_cycle = 1e3 / dram_cfg.clock_mhz as f64;
    let accel_ns_per_cycle = 1e3 / accel_mhz as f64;
    // Per-pass protection traffic is exported (counters + one journal
    // event) only at pass boundaries and only when observed.
    let observe = rec.is_enabled();
    let mut at_boundary = Issued::default();
    // Whether `on_pass_begin` has run for the pass in progress.
    let mut pass_started = false;

    for item in trace {
        match item {
            TraceItem::Event(ev) => {
                if !pass_started {
                    io.engine.on_pass_begin();
                    pass_started = true;
                }
                io.event(ev);
            }
            TraceItem::PassEnd { pass, perf } => {
                // An empty pass still begins (engines advance per-pass
                // counters in `on_pass_begin`).
                if !pass_started {
                    io.engine.on_pass_begin();
                }
                pass_started = false;
                io.drain_writes();
                let stats = io.dram.drain_stats();
                let mem_cycles = stats.total_cycles - prev_cycles;
                prev_cycles = stats.total_cycles;
                let mem_ns = mem_cycles as f64 * dram_ns_per_cycle;
                let compute_ns = perf.compute_cycles as f64 * accel_ns_per_cycle;
                exec_ns += mem_ns.max(compute_ns);
                compute_cycles += perf.compute_cycles;
                if observe {
                    let delta = io.issued.since(&mut at_boundary);
                    delta.export(rec);
                    rec.event(
                        "memprot.pass",
                        &[
                            ("pass", &pass.to_string()),
                            ("data_blocks", &delta.data.to_string()),
                            ("meta_reads", &delta.meta_reads.to_string()),
                            ("meta_writes", &delta.meta_writes.to_string()),
                            ("mem_cycles", &mem_cycles.to_string()),
                        ],
                    );
                }
            }
        }
    }

    // End-of-run tail: the engine's flushed write-backs.
    for m in io.engine.flush() {
        io.meta(m);
    }
    io.drain_writes();
    let stats = io.dram.drain_stats();
    exec_ns += (stats.total_cycles - prev_cycles) as f64 * dram_ns_per_cycle;
    if observe {
        io.issued.since(&mut at_boundary).export(rec);
    }
    let Issued {
        data,
        meta_reads,
        meta_writes,
    } = io.issued;
    RunSummary {
        scheme,
        data_bytes: data * BLOCK_BYTES,
        meta_bytes: (meta_reads + meta_writes) * BLOCK_BYTES,
        dram: stats,
        compute_cycles,
        exec_ns,
        trace_buffer_bytes: 0,
    }
}

/// A materialized trace as the item sequence a [`TraceSource`] yields:
/// each pass's events, then its boundary.
fn plan_items(trace: &PlanTrace) -> impl Iterator<Item = TraceItem> + '_ {
    let events = trace.events();
    trace
        .passes()
        .iter()
        .enumerate()
        .flat_map(move |(pass, &perf)| {
            let first = events.partition_point(|e| e.pass < pass);
            let last = events.partition_point(|e| e.pass <= pass);
            events[first..last]
                .iter()
                .map(|&ev| TraceItem::Event(ev))
                .chain(std::iter::once(TraceItem::PassEnd { pass, perf }))
        })
}

/// Runs `trace` under `engine` against the DDR4 model `dram_cfg`, with the
/// accelerator clocked at `accel_mhz` (timing rules: see the module docs).
///
/// This is the materialized differential oracle for
/// [`run_protected_streaming`], which produces bit-identical results
/// without ever holding the trace.
pub fn run_protected(
    trace: &PlanTrace,
    engine: &mut dyn ProtectionEngine,
    dram_cfg: DramConfig,
    accel_mhz: u64,
) -> RunSummary {
    let mut dram = DramSystem::new(dram_cfg);
    let summary = drive(
        plan_items(trace),
        engine,
        &mut dram,
        dram_cfg,
        accel_mhz,
        &Recorder::disabled(),
    );
    RunSummary {
        trace_buffer_bytes: trace.buffer_bytes(),
        ..summary
    }
}

/// Streaming counterpart of [`run_protected`]: pulls `trace` through
/// `engine` into the DDR4 model without materializing anything — peak
/// memory is the generator's constant-size state plus one range's
/// metadata and one metadata write batch. With [`ChannelMode::Threaded`]
/// the independent DRAM channels are simulated on one scoped worker thread
/// each, fed by bounded per-channel demux queues. Results are
/// bit-identical to [`run_protected`] on the same trace in either mode.
pub fn run_protected_streaming<I: TraceSource>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    channels: ChannelMode,
) -> RunSummary {
    run_protected_streaming_observed(
        trace,
        engine,
        dram_cfg,
        accel_mhz,
        channels,
        Recorder::global().clone(),
    )
}

/// [`run_protected_streaming`] with an explicit metrics recorder: DRAM
/// channels report per-channel scheduler series and the ingest loop
/// reports per-pass protection traffic. The recorder observes and never
/// steers, so the returned [`RunSummary`] is bit-identical to the
/// unobserved run (pinned by the `obs_differential` suite).
pub fn run_protected_streaming_observed<I: TraceSource>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    channels: ChannelMode,
    recorder: Recorder,
) -> RunSummary {
    match channels {
        ChannelMode::Serial => {
            let mut dram = DramSystem::with_recorder(dram_cfg, recorder.clone());
            stream_into(trace, engine, &mut dram, dram_cfg, accel_mhz, &recorder)
        }
        ChannelMode::Threaded => {
            with_channel_workers_observed(dram_cfg, recorder.clone(), |dram| {
                stream_into(trace, engine, dram, dram_cfg, accel_mhz, &recorder)
            })
        }
    }
}

/// Sink-generic variant of [`run_protected_streaming`]: drives the same
/// streaming pipeline into a caller-supplied [`DramSink`]. This is the
/// interposition point for the chaos harness, which wraps the sink in
/// `guardnn_dram::tamper::TamperingSink` to inject mid-stream faults —
/// and it is also what the channel-mode dispatch above is built on, so
/// the wrapped and unwrapped paths cannot diverge. (`dram_cfg` is still
/// needed for the DRAM-clock → nanosecond conversion.)
pub fn run_protected_streaming_into<I: TraceSource, S: DramSink>(
    trace: I,
    engine: &mut dyn ProtectionEngine,
    dram: &mut S,
    dram_cfg: DramConfig,
    accel_mhz: u64,
) -> RunSummary {
    stream_into(trace, engine, dram, dram_cfg, accel_mhz, Recorder::global())
}

/// Shared body of the streaming entry points above.
fn stream_into<I: TraceSource, S: DramSink>(
    mut trace: I,
    engine: &mut dyn ProtectionEngine,
    dram: &mut S,
    dram_cfg: DramConfig,
    accel_mhz: u64,
    rec: &Recorder,
) -> RunSummary {
    let summary = drive(&mut trace, engine, dram, dram_cfg, accel_mhz, rec);
    RunSummary {
        trace_buffer_bytes: trace.buffer_bytes(),
        ..summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineMee;
    use crate::guardnn::GuardNnEngine;
    use crate::none::NoProtection;
    use guardnn_models::graph::ExecutionPlan;
    use guardnn_models::layer::{conv, fc};
    use guardnn_models::Network;
    use guardnn_systolic::{ArrayConfig, TraceBuilder};

    fn small_net() -> Network {
        Network::new(
            "small",
            vec![
                conv("c1", 32, 8, 16, 3, 1, 1),
                conv("c2", 32, 16, 16, 3, 1, 1),
                fc("f1", 1, 16 * 32 * 32, 100),
            ],
        )
    }

    fn small_trace() -> guardnn_systolic::PlanTrace {
        let plan = ExecutionPlan::inference(&small_net());
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        tb.build(&plan)
    }

    #[test]
    fn np_has_zero_metadata() {
        let trace = small_trace();
        let summary = run_protected(
            &trace,
            &mut NoProtection::new(),
            DramConfig::ddr4_2400_16gb(),
            700,
        );
        assert_eq!(summary.meta_bytes, 0);
        assert_eq!(summary.traffic_increase(), 0.0);
        assert!(summary.exec_ns > 0.0);
    }

    #[test]
    fn ordering_np_le_guardnn_le_bp() {
        let trace = small_trace();
        let cfg = DramConfig::ddr4_2400_16gb();
        let footprint = 1u64 << 30;
        let np = run_protected(&trace, &mut NoProtection::new(), cfg, 700);
        let gc = run_protected(
            &trace,
            &mut GuardNnEngine::confidentiality_only(footprint),
            cfg,
            700,
        );
        let gci = run_protected(
            &trace,
            &mut GuardNnEngine::confidentiality_and_integrity(footprint),
            cfg,
            700,
        );
        let bp = run_protected(&trace, &mut BaselineMee::with_defaults(footprint), cfg, 700);

        assert_eq!(gc.meta_bytes, 0);
        assert!(gci.meta_bytes > 0);
        assert!(bp.meta_bytes > gci.meta_bytes);
        assert!(np.exec_ns <= gci.exec_ns + 1e-6);
        assert!(gci.exec_ns <= bp.exec_ns);
        assert!(bp.traffic_increase() > gci.traffic_increase());
    }

    #[test]
    fn data_bytes_identical_across_schemes() {
        let trace = small_trace();
        let cfg = DramConfig::ddr4_2400_16gb();
        let np = run_protected(&trace, &mut NoProtection::new(), cfg, 700);
        let bp = run_protected(&trace, &mut BaselineMee::with_defaults(1 << 30), cfg, 700);
        assert_eq!(np.data_bytes, bp.data_bytes);
    }

    #[test]
    fn normalization() {
        let trace = small_trace();
        let cfg = DramConfig::ddr4_2400_16gb();
        let np = run_protected(&trace, &mut NoProtection::new(), cfg, 700);
        assert!((np.normalized_to(&np) - 1.0).abs() < 1e-12);
    }

    /// Full-field bit-identity, including the float's exact bits.
    fn assert_identical(a: &RunSummary, b: &RunSummary) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.data_bytes, b.data_bytes);
        assert_eq!(a.meta_bytes, b.meta_bytes);
        assert_eq!(a.dram, b.dram);
        assert_eq!(a.compute_cycles, b.compute_cycles);
        assert_eq!(a.exec_ns.to_bits(), b.exec_ns.to_bits(), "exec_ns differs");
    }

    #[test]
    fn streaming_matches_materialized_all_schemes() {
        let net = small_net();
        let cfg = DramConfig::ddr4_2400_16gb();
        let footprint = 1u64 << 30;
        for plan in [
            ExecutionPlan::inference(&net),
            ExecutionPlan::training(&net, 2),
        ] {
            let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
            let trace = tb.build(&plan);
            type MkEngine = fn(u64) -> Box<dyn ProtectionEngine>;
            let engines: [MkEngine; 4] = [
                |_| Box::new(NoProtection::new()),
                |f| Box::new(GuardNnEngine::confidentiality_only(f)),
                |f| Box::new(GuardNnEngine::confidentiality_and_integrity(f)),
                |f| Box::new(BaselineMee::with_defaults(f)),
            ];
            for mk in engines {
                let materialized = run_protected(&trace, mk(footprint).as_mut(), cfg, 700);
                for mode in [ChannelMode::Serial, ChannelMode::Threaded] {
                    let streamed = run_protected_streaming(
                        tb.stream(&plan),
                        mk(footprint).as_mut(),
                        cfg,
                        700,
                        mode,
                    );
                    assert_identical(&materialized, &streamed);
                }
            }
        }
    }

    #[test]
    fn streaming_buffers_less_than_materialized() {
        let plan = ExecutionPlan::inference(&small_net());
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let cfg = DramConfig::ddr4_2400_16gb();
        let materialized = run_protected(&tb.build(&plan), &mut NoProtection::new(), cfg, 700);
        let streamed = run_protected_streaming(
            tb.stream(&plan),
            &mut NoProtection::new(),
            cfg,
            700,
            ChannelMode::Serial,
        );
        assert!(streamed.trace_buffer_bytes < 4096);
        assert!(materialized.trace_buffer_bytes > streamed.trace_buffer_bytes);
    }

    /// A sink that logs every request, and the log length at every
    /// `drain_stats`, before forwarding to a DRAM model.
    struct Recording {
        dram: DramSystem,
        log: Vec<(u64, bool)>,
        drains: Vec<usize>,
    }

    impl Recording {
        fn new(cfg: DramConfig) -> Self {
            Self {
                dram: DramSystem::new(cfg),
                log: Vec::new(),
                drains: Vec::new(),
            }
        }
    }

    impl DramSink for Recording {
        fn access(&mut self, addr: u64, is_write: bool) {
            self.log.push((addr, is_write));
            self.dram.access(addr, is_write);
        }

        fn drain_stats(&mut self) -> DramStats {
            self.drains.push(self.log.len());
            self.dram.drain_stats()
        }
    }

    /// The request order of the per-block model, built from the reference
    /// engine: each data block, then its metadata — reads inline, writes in
    /// sorted batches of 32 drained at every pass end — and the flushed
    /// write-backs after the last pass.
    fn per_block_requests(trace: &PlanTrace, engine: &mut BaselineMee) -> Recording {
        use crate::reference::PerBlock;
        fn meta(m: MetaAccess, log: &mut Vec<(u64, bool)>, pending: &mut Vec<u64>) {
            if m.write {
                pending.push(m.addr);
                if pending.len() == META_WRITE_BATCH {
                    drain(log, pending);
                }
            } else {
                log.push((m.addr, false));
            }
        }
        fn drain(log: &mut Vec<(u64, bool)>, pending: &mut Vec<u64>) {
            pending.sort_unstable();
            log.extend(pending.drain(..).map(|addr| (addr, true)));
        }
        let mut out = Recording::new(DramConfig::ddr4_2400_16gb());
        let mut pending = Vec::new();
        for pass in 0..trace.passes().len() {
            engine.on_pass_begin();
            for ev in trace.events().iter().filter(|e| e.pass == pass) {
                for block in ev.addr / BLOCK_BYTES..(ev.addr + ev.bytes).div_ceil(BLOCK_BYTES) {
                    out.log.push((block * BLOCK_BYTES, ev.write));
                    for m in engine.access_block(block * BLOCK_BYTES, ev.write) {
                        meta(m, &mut out.log, &mut pending);
                    }
                }
            }
            drain(&mut out.log, &mut pending);
            out.drains.push(out.log.len());
        }
        for m in engine.flush() {
            meta(m, &mut out.log, &mut pending);
        }
        drain(&mut out.log, &mut pending);
        out.drains.push(out.log.len());
        out
    }

    #[test]
    fn request_order_matches_per_block_model() {
        let net = small_net();
        let plan = ExecutionPlan::training(&net, 2);
        let tb = TraceBuilder::new(ArrayConfig::test_small(), &plan);
        let trace = tb.build(&plan);
        let cfg = DramConfig::ddr4_2400_16gb();
        let footprint = 1u64 << 30;

        let mut streamed = Recording::new(cfg);
        let summary = run_protected_streaming_into(
            tb.stream(&plan),
            &mut BaselineMee::with_defaults(footprint),
            &mut streamed,
            cfg,
            700,
        );
        let mut materialized = Recording::new(cfg);
        drive(
            plan_items(&trace),
            &mut BaselineMee::with_defaults(footprint),
            &mut materialized,
            cfg,
            700,
            &Recorder::disabled(),
        );
        let oracle = per_block_requests(&trace, &mut BaselineMee::with_defaults(footprint));

        assert_eq!(streamed.drains.len(), plan.passes().len() + 1);
        for run in [&streamed, &materialized] {
            assert!(run.log == oracle.log, "request order diverged");
            assert_eq!(run.drains, oracle.drains, "pass boundaries moved");
        }
        // The run ends with the flushed write-backs.
        let tail = &streamed.log[streamed.drains[plan.passes().len() - 1]..];
        assert!(!tail.is_empty() && tail.iter().all(|&(_, write)| write));
        assert_eq!(
            streamed.log.len() as u64 * BLOCK_BYTES,
            summary.data_bytes + summary.meta_bytes
        );

        // The observed run's per-pass counters add up to the summary.
        let rec = Recorder::enabled();
        let observed = run_protected_streaming_observed(
            tb.stream(&plan),
            &mut BaselineMee::with_defaults(footprint),
            cfg,
            700,
            ChannelMode::Serial,
            rec.clone(),
        );
        assert_identical(&summary, &observed);
        let counters = rec.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0) * BLOCK_BYTES;
        assert_eq!(count("memprot.blocks_data"), summary.data_bytes);
        assert_eq!(
            count("memprot.meta_reads") + count("memprot.meta_writes"),
            summary.meta_bytes
        );
        assert!(count("memprot.meta_writes") > 0);
    }
}
