//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <fig3a-inference|fig3b-training|serve-churn>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench --write-golden
//! ```

mod report;
mod serve;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use guardnn_obs::Recorder;

use report::{Manifest, Metrics, Tally};
use sim::Suite;
use stats::{median, Rng};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// A timed run repeats rounds of one serving window and one simulation
/// sweep until `--seconds` have passed, and runs at least this many, so
/// every median has three samples or more.
const MIN_ROUNDS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Fig3aInference,
    Fig3bTraining,
    ServeChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fig3a-inference" => Some(Self::Fig3aInference),
            "fig3b-training" => Some(Self::Fig3bTraining),
            "serve-churn" => Some(Self::ServeChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Fig3aInference => "fig3a-inference",
            Self::Fig3bTraining => "fig3b-training",
            Self::ServeChurn => "serve-churn",
        }
    }

    /// The Fig. 3 points the run simulates: its sweep sets how a round's
    /// time divides between simulation and serving.
    fn suite(self) -> Suite {
        match self {
            Self::Fig3aInference => Suite::Inference,
            Self::Fig3bTraining => Suite::TrainingSubset,
            Self::ServeChurn => Suite::InferencePair,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

fn write_golden() -> ExitCode {
    for (file, text) in sim::golden_tables() {
        let path = format!("{}/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--write-golden") {
        return write_golden();
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig3a-inference|fig3b-training|serve-churn> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The crypto counters of the traced run come from the process-wide
    // recorder, which latches on first use; a timed run must never pay
    // for it.
    if args.trace {
        if !Recorder::install_global(Recorder::enabled()) {
            eprintln!("perfbench: the process-wide recorder was already initialised");
            return ExitCode::FAILURE;
        }
    } else if std::env::var_os(guardnn_obs::ENV_OBS).is_some() {
        eprintln!(
            "perfbench: refusing a timed run while {} is set",
            guardnn_obs::ENV_OBS
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut rng = Rng::new(args.seed);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut samples = BTreeMap::new();

    // Set-up: target registry and pinned configuration, networks, golden
    // table, device provisioning, the serving model and its references.
    // The first repetition also pays for lazy statics.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut made = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let sim = sim::setup(w.suite());
        let serve = serve::setup(args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        made = Some((sim, serve));
    }
    let (sim_setup, mut serve_setup) = made.expect("at least one set-up");
    samples.insert("setup_reps", SETUP_REPS);

    if args.trace {
        let fleet_recorder = Recorder::enabled();
        serve_setup.fleet.set_recorder(fleet_recorder.clone());
        let out = serve::traced(&mut serve_setup, &fleet_recorder, &mut tally, &mut metrics);
        samples.insert("serve_trace_pairs", serve::TRACE_PAIRS);
        samples.insert("serve_slice_sessions", out.session_ms.len());
        samples.insert("serve_slice_inferences", out.infer_ms.len());
        sim::traced(&sim_setup, &mut rng, &mut tally, &mut metrics);
        samples.insert("sim_trace_pairs", sim::TRACE_PAIRS);
    } else {
        metrics.set("setup_s", median(&setup_s), "s");
        let mut churn = serve::Churn::new();
        let mut served = serve::ServeOutcome::default();
        let mut sims = sim::SimTimings::default();
        serve::warm_up(&mut serve_setup, &mut churn, &mut tally);
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || start.elapsed().as_secs() < args.seconds {
            serve::window(&mut serve_setup, &mut churn, &mut tally, &mut served);
            sims.sweep(&sim_setup, &mut rng, &mut tally);
            rounds += 1;
        }
        serve::report(&served, &mut metrics)?;
        sims.report(&sim_setup, &mut metrics);
        let (infer_stretches, session_stretches) = served.stretches();
        samples.insert("rounds", rounds);
        samples.insert("infer_ms", served.infer_ms.len());
        samples.insert("infer_stretches", infer_stretches);
        samples.insert("session_ms", served.session_ms.len());
        samples.insert("session_stretches", session_stretches);
        samples.insert("sim_sweeps", sims.sweeps());
        metrics.set("peak_rss_mib", report::peak_rss_mib(), "MiB");
    }

    let manifest = Manifest {
        workload: w.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        samples,
    };
    println!("perfbench {} (trace {})", w.name(), u8::from(args.trace));
    metrics.print_table();
    println!("manifest: {}", manifest.render());
    let correct = tally.failed == 0;
    println!("{}", report::result_line(correct, tally, &metrics));
    Ok(())
}
