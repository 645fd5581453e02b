//! The Fig. 3 timing pipeline: `TraceStream` → `ProtectedStream` →
//! `DramSystem`, driven one job at a time on the calling thread.
//!
//! The timed path calls `perf::evaluate`. The traced path rebuilds the
//! same composition from public parts, with a timing [`TraceSource`]
//! wrapper and a batching [`DramSink`] wrapper around
//! `run_protected_streaming_into`, so each layer's host time is measured
//! from the benchmark's side of its API.

use std::collections::HashMap;
use std::time::Instant;

use guardnn::perf::{self, EvalConfig, Mode, Parallelism, Scheme, SIMULATED_SCHEMES};
use guardnn_dram::{ChannelMode, DramSink, DramStats, DramSystem};
use guardnn_memprot::harness::{run_protected_streaming_into, RunSummary};
use guardnn_memprot::{BaselineMee, GuardNnEngine, NoProtection, ProtectionEngine, BLOCK_BYTES};
use guardnn_models::graph::ExecutionPlan;
use guardnn_models::{zoo, Network};
use guardnn_obs::Recorder;
use guardnn_systolic::{TraceBuilder, TraceItem, TraceSource};

use crate::report::{Metrics, Tally};
use crate::stats::{geomean, min, Rng};

/// The set of Fig. 3 points a run simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// Fig. 3a: all nine networks, inference.
    Inference,
    /// Fig. 3b subset: GoogleNet and MobileNet, training with batch 4.
    TrainingSubset,
    /// The two Fig. 3a networks with the fewest MACs, inference.
    InferencePair,
}

impl Suite {
    fn mode(self) -> Mode {
        match self {
            Suite::Inference | Suite::InferencePair => Mode::Inference,
            Suite::TrainingSubset => Mode::Training { batch: 4 },
        }
    }

    fn networks(self) -> Vec<Network> {
        match self {
            Suite::Inference => zoo::figure3_inference_suite(),
            Suite::TrainingSubset => vec![zoo::googlenet(), zoo::mobilenet_v1()],
            Suite::InferencePair => {
                let mut nets = zoo::figure3_inference_suite();
                nets.sort_by_key(Network::total_macs);
                nets.truncate(2);
                nets
            }
        }
    }

    /// The paper's geomean overheads for this suite's mode, in percent:
    /// (GuardNN_CI, BP).
    fn paper_overheads_pct(self) -> (f64, f64) {
        match self.mode() {
            Mode::Inference => (1.05, 25.0),
            Mode::Training { .. } => (1.07, 29.0),
        }
    }
}

/// Committed golden outputs, one line per (network, mode, scheme).
const GOLDEN_INFERENCE: &str = include_str!("../golden/fig3a-inference.golden");
const GOLDEN_TRAINING: &str = include_str!("../golden/fig3b-training.golden");

fn mode_label(mode: Mode) -> &'static str {
    match mode {
        Mode::Inference => "inference",
        Mode::Training { .. } => "training",
    }
}

/// The golden line of one simulation point: every field of the summary
/// that the model determines, with `exec_ns` as its exact bits.
pub fn golden_line(network: &str, mode: Mode, scheme: Scheme, r: &RunSummary) -> String {
    let d = &r.dram;
    format!(
        "{network} {mode} {scheme} data_bytes={} meta_bytes={} reads={} writes={} row_hits={} \
         row_misses={} row_conflicts={} refreshes={} total_cycles={} compute_cycles={} \
         exec_ns=0x{:016x}",
        r.data_bytes,
        r.meta_bytes,
        d.reads,
        d.writes,
        d.row_hits,
        d.row_misses,
        d.row_conflicts,
        d.refreshes,
        d.total_cycles,
        r.compute_cycles,
        r.exec_ns.to_bits(),
        mode = mode_label(mode),
        scheme = scheme.label(),
    )
}

fn golden_key(line: &str) -> String {
    line.split(' ').take(3).collect::<Vec<_>>().join(" ")
}

/// The simulator configuration, networks and golden table of one run.
pub struct SimSetup {
    suite: Suite,
    cfg: EvalConfig,
    networks: Vec<Network>,
    golden: HashMap<String, String>,
}

/// Builds the run's configuration with every execution knob pinned, so no
/// `GUARDNN_*` environment variable changes what is measured.
pub fn setup(suite: Suite) -> SimSetup {
    let mut cfg = EvalConfig::for_target("guardnn-paper").expect("the registry has guardnn-paper");
    cfg.parallelism = Parallelism::Serial;
    cfg.channel_mode = ChannelMode::Serial;
    let golden = GOLDEN_INFERENCE
        .lines()
        .chain(GOLDEN_TRAINING.lines())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| (golden_key(l), l.to_string()))
        .collect();
    SimSetup {
        suite,
        cfg,
        networks: suite.networks(),
        golden,
    }
}

/// The NP / GuardNN_CI / BP results of one network, in
/// [`SIMULATED_SCHEMES`] order.
type NetResults = [RunSummary; 3];

impl SimSetup {
    fn jobs(&self) -> Vec<(usize, Scheme)> {
        (0..self.networks.len())
            .flat_map(|n| SIMULATED_SCHEMES.into_iter().map(move |s| (n, s)))
            .collect()
    }

    /// Checks one network's results: every simulated point and the
    /// GuardNN_C point `perf` derives from NP against the golden table,
    /// GuardNN_C ≡ NP, and NP ≤ GuardNN_CI ≤ BP in execution time. Each of
    /// the four points counts as one operation.
    fn check(&self, net: &Network, results: &NetResults, tally: &mut Tally) {
        let mode = self.suite.mode();
        let [np, gci, bp] = results;
        let matches = |scheme: Scheme, r: &RunSummary| {
            let line = golden_line(net.name(), mode, scheme, r);
            self.golden.get(&golden_key(&line)) == Some(&line)
        };
        // perf reports GuardNN_C as NP relabelled; the golden GuardNN_C
        // line comes from simulating GuardNN_C on its own.
        let gc_ok = matches(Scheme::GuardNnC, np);
        tally.record(matches(Scheme::NoProtection, np));
        tally.record(gc_ok);
        tally.record(matches(Scheme::GuardNnCi, gci) && gci.exec_ns >= np.exec_ns - 1e-9);
        tally.record(matches(Scheme::Baseline, bp) && bp.exec_ns >= gci.exec_ns);
    }

    /// |simulated geomean overhead − the paper's| in percentage points,
    /// for GuardNN_CI and BP.
    fn paper_error_pp(&self, results: &[NetResults]) -> (f64, f64) {
        let over = |i: usize| {
            let ratios: Vec<f64> = results.iter().map(|r| r[i].normalized_to(&r[0])).collect();
            (geomean(&ratios) - 1.0) * 100.0
        };
        let (paper_gci, paper_bp) = self.suite.paper_overheads_pct();
        ((over(1) - paper_gci).abs(), (over(2) - paper_bp).abs())
    }

    fn collect(&self, results: Vec<Option<RunSummary>>) -> Vec<NetResults> {
        let mut it = results.into_iter().map(|r| r.expect("every job ran"));
        (0..self.networks.len())
            .map(|_| {
                [
                    it.next().expect("NP"),
                    it.next().expect("GuardNN_CI"),
                    it.next().expect("BP"),
                ]
            })
            .collect()
    }

    /// One sweep over every job, in a seeded order, through
    /// `perf::evaluate`. Returns the results and the host seconds of each
    /// job, both in job order.
    fn sweep(&self, rng: &mut Rng) -> (Vec<NetResults>, Vec<f64>) {
        let jobs = self.jobs();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        let mut results: Vec<Option<RunSummary>> = vec![None; jobs.len()];
        let mut secs = vec![0.0; jobs.len()];
        for i in order {
            let (n, scheme) = jobs[i];
            let start = Instant::now();
            results[i] = Some(perf::evaluate(
                &self.networks[n],
                self.suite.mode(),
                scheme,
                &self.cfg,
            ));
            secs[i] = start.elapsed().as_secs_f64();
        }
        (self.collect(results), secs)
    }
}

/// The timed sweeps of a run: each job's host seconds per sweep, and the
/// first sweep's results.
#[derive(Debug, Default)]
pub struct SimTimings {
    job_secs: Vec<Vec<f64>>,
    results: Option<Vec<NetResults>>,
}

impl SimTimings {
    /// Runs one timed sweep and checks it against the golden table.
    pub fn sweep(&mut self, s: &SimSetup, rng: &mut Rng, tally: &mut Tally) {
        let (results, secs) = s.sweep(rng);
        self.job_secs.resize_with(secs.len(), Vec::new);
        for (samples, t) in self.job_secs.iter_mut().zip(secs) {
            samples.push(t);
        }
        for (net, r) in s.networks.iter().zip(&results) {
            s.check(net, r, tally);
        }
        self.results.get_or_insert(results);
    }

    pub fn sweeps(&self) -> usize {
        self.job_secs.first().map_or(0, Vec::len)
    }

    /// Throughput is one sweep's requests over the sum of each job's
    /// fastest host time across the run's sweeps (min-of-N): other tenants
    /// of a shared host slow jobs in bursts, and a job's fastest run is the
    /// one they disturbed least. Also reports the model's error against the
    /// paper.
    pub fn report(&self, s: &SimSetup, metrics: &mut Metrics) {
        let results = self.results.as_ref().expect("at least one sweep");
        let requests: u64 = results.iter().flatten().map(|r| r.dram.accesses()).sum();
        let secs: f64 = self.job_secs.iter().map(|t| min(t)).sum();
        let (gci_err, bp_err) = s.paper_error_pp(results);
        metrics.set("sim_mreq_per_s", requests as f64 / secs / 1e6, "Mreq/s");
        metrics.set("fig3_gci_err_pp", gci_err, "pp");
        metrics.set("fig3_bp_err_pp", bp_err, "pp");
    }
}

// ---------------------------------------------------------------------
// Traced composition
// ---------------------------------------------------------------------

/// What the trace wrapper saw: generation time and the data blocks the
/// events cover.
#[derive(Debug, Default)]
struct SourceTally {
    ns: u64,
    events: u64,
    read_blocks: u64,
    write_blocks: u64,
}

/// Times every `next` of the wrapped trace generator.
struct TimedSource<'a, I> {
    inner: I,
    tally: &'a mut SourceTally,
}

impl<I: TraceSource> Iterator for TimedSource<'_, I> {
    type Item = TraceItem;

    fn next(&mut self) -> Option<TraceItem> {
        let start = Instant::now();
        let item = self.inner.next();
        self.tally.ns += start.elapsed().as_nanos() as u64;
        if let Some(TraceItem::Event(ev)) = &item {
            let blocks = (ev.addr + ev.bytes).div_ceil(BLOCK_BYTES) - ev.addr / BLOCK_BYTES;
            self.tally.events += 1;
            if ev.write {
                self.tally.write_blocks += blocks;
            } else {
                self.tally.read_blocks += blocks;
            }
        }
        item
    }
}

impl<I: TraceSource> TraceSource for TimedSource<'_, I> {
    fn buffer_bytes(&self) -> u64 {
        self.inner.buffer_bytes()
    }
}

/// Requests forwarded to the DRAM model per timed batch: a timer per
/// request would cost as much as the ≈25 ns request itself.
const SINK_BATCH: usize = 4096;

/// Buffers requests and forwards them to a [`DramSystem`] in batches,
/// timing each batch and each `drain_stats`.
struct BatchedSink<'a> {
    dram: DramSystem,
    pending: Vec<(u64, bool)>,
    ns: &'a mut u64,
}

impl<'a> BatchedSink<'a> {
    fn new(dram: DramSystem, ns: &'a mut u64) -> Self {
        Self {
            dram,
            pending: Vec::with_capacity(SINK_BATCH),
            ns,
        }
    }

    fn flush(&mut self) {
        let start = Instant::now();
        for &(addr, write) in &self.pending {
            self.dram.access(addr, write);
        }
        *self.ns += start.elapsed().as_nanos() as u64;
        self.pending.clear();
    }
}

impl DramSink for BatchedSink<'_> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.pending.push((addr, is_write));
        if self.pending.len() == SINK_BATCH {
            self.flush();
        }
    }

    fn drain_stats(&mut self) -> DramStats {
        self.flush();
        let start = Instant::now();
        let stats = self.dram.drain_stats();
        *self.ns += start.elapsed().as_nanos() as u64;
        stats
    }
}

/// Host time of one traced job, split by layer.
#[derive(Debug, Default)]
struct JobSplit {
    perf_ns: u64,
    gen: SourceTally,
    dram_ns: u64,
    run_ns: u64,
}

/// The parts `perf::evaluate` builds for one job: the array with the
/// mode-dependent element width, the plan, the trace builder, the engine
/// and a DRAM model that reports to no recorder.
fn compose(
    net: &Network,
    mode: Mode,
    scheme: Scheme,
    cfg: &EvalConfig,
) -> (
    u64,
    ExecutionPlan,
    TraceBuilder,
    Box<dyn ProtectionEngine>,
    DramSystem,
) {
    let mut array = cfg.array;
    array.bytes_per_elem = match mode {
        Mode::Inference => 1,
        Mode::Training { .. } => 2,
    };
    let plan = perf::plan_for(net, mode);
    let tb = TraceBuilder::new(array, &plan);
    let footprint = tb.footprint();
    let engine: Box<dyn ProtectionEngine> = match scheme {
        Scheme::NoProtection => Box::new(NoProtection::new()),
        Scheme::Baseline => Box::new(BaselineMee::new(footprint, cfg.mee)),
        Scheme::GuardNnC => Box::new(GuardNnEngine::confidentiality_only(footprint)),
        Scheme::GuardNnCi => Box::new(GuardNnEngine::confidentiality_and_integrity(footprint)),
    };
    let dram = DramSystem::with_recorder(cfg.dram, Recorder::disabled());
    (array.clock_mhz, plan, tb, engine, dram)
}

/// One job through the composition without wrappers: the reference the
/// tracing overhead is measured against.
fn plain_job(net: &Network, mode: Mode, scheme: Scheme, cfg: &EvalConfig) -> RunSummary {
    let (clock_mhz, plan, tb, mut engine, mut dram) = compose(net, mode, scheme, cfg);
    run_protected_streaming_into(
        tb.stream(&plan),
        engine.as_mut(),
        &mut dram,
        cfg.dram,
        clock_mhz,
    )
}

/// One job through the traced composition: `run_protected_streaming_into`
/// with both wrappers.
fn traced_job(
    net: &Network,
    mode: Mode,
    scheme: Scheme,
    cfg: &EvalConfig,
    split: &mut JobSplit,
) -> RunSummary {
    let start = Instant::now();
    let (clock_mhz, plan, tb, mut engine, dram) = compose(net, mode, scheme, cfg);
    split.perf_ns += start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let source = TimedSource {
        inner: tb.stream(&plan),
        tally: &mut split.gen,
    };
    let mut sink = BatchedSink::new(dram, &mut split.dram_ns);
    let summary =
        run_protected_streaming_into(source, engine.as_mut(), &mut sink, cfg.dram, clock_mhz);
    split.run_ns += start.elapsed().as_nanos() as u64;
    summary
}

/// Per-scheme totals of the traced sweep.
#[derive(Debug, Default)]
struct SchemeTotals {
    data_blocks: u64,
    meta_reads: u64,
    meta_writes: u64,
    memprot_ns: u64,
    dram_ns: u64,
    requests: u64,
    row_hits: u64,
    row_accesses: u64,
    row_conflicts: u64,
}

/// Untraced and traced sweeps alternate this many times in a traced run;
/// each kind's fastest sweep is reported (min-of-N, as the timed run).
pub const TRACE_PAIRS: usize = 2;

/// One traced sweep: its wall time and per-layer split.
#[derive(Debug, Default)]
struct TracedSweep {
    wall_s: f64,
    perf_ns: u64,
    gen_ns: u64,
    events: u64,
    totals: [SchemeTotals; 3],
}

impl SimSetup {
    /// One sweep through the traced composition, checked against the
    /// golden table like a timed sweep: it must reproduce `perf::evaluate`
    /// bit for bit.
    fn traced_sweep(&self, rng: &mut Rng, tally: &mut Tally) -> TracedSweep {
        let mode = self.suite.mode();
        let jobs = self.jobs();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        let mut results: Vec<Option<RunSummary>> = vec![None; jobs.len()];
        let mut sweep = TracedSweep::default();
        let mut split_ok = true;
        let start = Instant::now();
        for i in order {
            let (n, scheme) = jobs[i];
            let mut split = JobSplit::default();
            let r = traced_job(&self.networks[n], mode, scheme, &self.cfg, &mut split);
            let k = SIMULATED_SCHEMES
                .iter()
                .position(|x| *x == scheme)
                .expect("simulated scheme");
            let t = &mut sweep.totals[k];
            let data_blocks = split.gen.read_blocks + split.gen.write_blocks;
            let meta_reads = r.dram.reads - split.gen.read_blocks;
            let meta_writes = r.dram.writes - split.gen.write_blocks;
            split_ok &= data_blocks * BLOCK_BYTES == r.data_bytes
                && (meta_reads + meta_writes) * BLOCK_BYTES == r.meta_bytes;
            t.data_blocks += data_blocks;
            t.meta_reads += meta_reads;
            t.meta_writes += meta_writes;
            t.memprot_ns += split.run_ns - split.gen.ns - split.dram_ns;
            t.dram_ns += split.dram_ns;
            t.requests += r.dram.accesses();
            t.row_hits += r.dram.row_hits;
            t.row_accesses += r.dram.row_hits + r.dram.row_misses + r.dram.row_conflicts;
            t.row_conflicts += r.dram.row_conflicts;
            sweep.perf_ns += split.perf_ns;
            sweep.gen_ns += split.gen.ns;
            sweep.events += split.gen.events;
            results[i] = Some(r);
        }
        sweep.wall_s = start.elapsed().as_secs_f64();
        for (net, r) in self.networks.iter().zip(&self.collect(results)) {
            self.check(net, r, tally);
        }
        tally.record(split_ok);
        sweep
    }
}

/// The traced simulation phase: sweeps of the composition without and with
/// the wrappers alternate [`TRACE_PAIRS`] times. The fastest traced
/// sweep's per-layer self times account for its wall time; the overhead is
/// its wall time minus the fastest untraced sweep's.
pub fn traced(s: &SimSetup, rng: &mut Rng, tally: &mut Tally, metrics: &mut Metrics) {
    let mut untraced_s = f64::INFINITY;
    let mut best: Option<TracedSweep> = None;
    let mode = s.suite.mode();
    for _ in 0..TRACE_PAIRS {
        let start = Instant::now();
        for (n, scheme) in s.jobs() {
            std::hint::black_box(plain_job(&s.networks[n], mode, scheme, &s.cfg));
        }
        untraced_s = untraced_s.min(start.elapsed().as_secs_f64());
        let sweep = s.traced_sweep(rng, tally);
        if best.as_ref().is_none_or(|b| sweep.wall_s < b.wall_s) {
            best = Some(sweep);
        }
    }
    let TracedSweep {
        wall_s: traced_s,
        perf_ns,
        gen_ns,
        events,
        totals,
    } = best.expect("at least one traced sweep");

    let secs = |ns: u64| ns as f64 / 1e9;
    let memprot_ns: u64 = totals.iter().map(|t| t.memprot_ns).sum();
    let dram_ns: u64 = totals.iter().map(|t| t.dram_ns).sum();
    metrics.set("systolic.events", events as f64, "count");
    metrics.set(
        "systolic.gen_ns_per_event",
        gen_ns as f64 / events as f64,
        "ns",
    );
    metrics.set("memprot.data_blocks", totals[0].data_blocks as f64, "count");
    for (scheme, t) in SIMULATED_SCHEMES.iter().zip(&totals) {
        let l = scheme.label();
        metrics.set(
            format!("memprot.meta_reads.{l}"),
            t.meta_reads as f64,
            "count",
        );
        metrics.set(
            format!("memprot.meta_writes.{l}"),
            t.meta_writes as f64,
            "count",
        );
        metrics.set(
            format!("memprot.ns_per_block.{l}"),
            t.memprot_ns as f64 / t.data_blocks as f64,
            "ns",
        );
        metrics.set(format!("dram.requests.{l}"), t.requests as f64, "count");
        metrics.set(
            format!("dram.ns_per_req.{l}"),
            t.dram_ns as f64 / t.requests as f64,
            "ns",
        );
        metrics.set(
            format!("dram.row_hit_rate.{l}"),
            t.row_hits as f64 / t.row_accesses as f64,
            "ratio",
        );
        metrics.set(
            format!("dram.row_conflicts.{l}"),
            t.row_conflicts as f64,
            "count",
        );
    }
    let accounted = perf_ns + gen_ns + memprot_ns + dram_ns;
    metrics.set("sim.perf_s", secs(perf_ns), "s");
    metrics.set("sim.systolic_s", secs(gen_ns), "s");
    metrics.set("sim.memprot_s", secs(memprot_ns), "s");
    metrics.set("sim.dram_s", secs(dram_ns), "s");
    metrics.set("sim.residual_s", traced_s - secs(accounted), "s");
    metrics.set("sim.traced_wall_s", traced_s, "s");
    metrics.set("sim.untraced_wall_s", untraced_s, "s");
    metrics.set("sim.trace_overhead_s", traced_s - untraced_s, "s");
}

/// Simulates every point of the Fig. 3a suite and the Fig. 3b subset
/// under all four schemes — GuardNN_C on its own, not derived from NP —
/// and returns the golden table text for each.
pub fn golden_tables() -> [(&'static str, String); 2] {
    let cfg = setup(Suite::Inference).cfg;
    let table = |suite: Suite| {
        let mut text = String::from(
            "# network mode scheme: RunSummary fields of perf::evaluate on guardnn-paper\n",
        );
        for net in suite.networks() {
            for scheme in Scheme::all() {
                let r = perf::evaluate(&net, suite.mode(), scheme, &cfg);
                text.push_str(&golden_line(net.name(), suite.mode(), scheme, &r));
                text.push('\n');
            }
        }
        text
    };
    [
        ("fig3a-inference.golden", table(Suite::Inference)),
        ("fig3b-training.golden", table(Suite::TrainingSubset)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardnn_models::layer::{conv, fc};

    fn small_net() -> Network {
        Network::new(
            "perfbench-small",
            vec![
                conv("c1", 16, 4, 8, 3, 1, 1),
                conv("c2", 16, 8, 8, 3, 1, 1),
                fc("f1", 1, 8 * 16 * 16, 64),
            ],
        )
    }

    #[test]
    fn traced_composition_matches_perf_evaluate_bit_for_bit() {
        let cfg = setup(Suite::InferencePair).cfg;
        let net = small_net();
        for mode in [Mode::Inference, Mode::Training { batch: 2 }] {
            for scheme in Scheme::all() {
                let direct = perf::evaluate(&net, mode, scheme, &cfg);
                let mut split = JobSplit::default();
                let traced = traced_job(&net, mode, scheme, &cfg, &mut split);
                let plain = plain_job(&net, mode, scheme, &cfg);
                let line = golden_line(net.name(), mode, scheme, &direct);
                assert_eq!(
                    golden_line(net.name(), mode, scheme, &traced),
                    line,
                    "{mode:?}/{scheme:?}"
                );
                assert_eq!(
                    golden_line(net.name(), mode, scheme, &plain),
                    line,
                    "{mode:?}/{scheme:?}"
                );
                assert_eq!(traced.scheme, direct.scheme);
                assert_eq!(traced.trace_buffer_bytes, direct.trace_buffer_bytes);
                assert!(split.gen.events > 0);
                assert!(split.run_ns >= split.gen.ns + split.dram_ns);
            }
        }
    }

    #[test]
    fn batched_sink_forwards_every_request_in_order() {
        let cfg = setup(Suite::InferencePair).cfg;
        let mut direct = DramSystem::with_recorder(cfg.dram, Recorder::disabled());
        let mut ns = 0;
        let mut sink = BatchedSink::new(
            DramSystem::with_recorder(cfg.dram, Recorder::disabled()),
            &mut ns,
        );
        for i in 0..(3 * SINK_BATCH as u64 + 17) {
            let addr = (i * 7919 % 100_000) * 64;
            direct.access(addr, i % 5 == 0);
            sink.access(addr, i % 5 == 0);
        }
        assert_eq!(sink.drain_stats(), direct.drain_stats());
    }

    #[test]
    fn golden_table_covers_every_point_of_every_suite() {
        let s = setup(Suite::Inference);
        for suite in [
            Suite::Inference,
            Suite::TrainingSubset,
            Suite::InferencePair,
        ] {
            for net in suite.networks() {
                for scheme in Scheme::all() {
                    let key = format!(
                        "{} {} {}",
                        net.name(),
                        mode_label(suite.mode()),
                        scheme.label()
                    );
                    assert!(s.golden.contains_key(&key), "no golden line for {key}");
                }
            }
        }
    }
}
