//! Golden pin for the Fig. 3 timing pipeline under `cargo test`: DLRM and
//! MobileNet inference under all four schemes, GuardNN_C simulated on its
//! own, must reproduce the repository benchmark's committed golden table
//! (`perfbench/golden/fig3a-inference.golden`) field for field, `exec_ns`
//! bits included. The benchmark checks the whole table on every sweep;
//! this test puts its two smallest networks in the tier-1 suite, so a
//! refactor of the simulator that moves any statistic fails here. The
//! golden file is only read.

use guardnn::perf::{evaluate, EvalConfig, Mode, Scheme};
use guardnn_dram::ChannelMode;
use guardnn_memprot::harness::RunSummary;
use guardnn_models::zoo;

const GOLDEN: &str = include_str!("../../perfbench/golden/fig3a-inference.golden");

/// The `name=value` fields of the golden line keyed `key`
/// (`"<network> <mode> <scheme>"`).
fn golden_fields(key: &str) -> Vec<(&'static str, String)> {
    let prefix = format!("{key} ");
    let line = GOLDEN
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no golden line for {key}"));
    line[prefix.len()..]
        .split_whitespace()
        .map(|f| {
            let (name, value) = f
                .split_once('=')
                .unwrap_or_else(|| panic!("{key}: malformed field {f}"));
            (name, value.to_string())
        })
        .collect()
}

/// Every field of a summary that the model determines, in golden-line
/// order and format. (`trace_buffer_bytes` measures the host's buffering,
/// not the modelled system, and the scheme is part of the key.)
fn summary_fields(r: &RunSummary) -> Vec<(&'static str, String)> {
    let d = &r.dram;
    vec![
        ("data_bytes", r.data_bytes.to_string()),
        ("meta_bytes", r.meta_bytes.to_string()),
        ("reads", d.reads.to_string()),
        ("writes", d.writes.to_string()),
        ("row_hits", d.row_hits.to_string()),
        ("row_misses", d.row_misses.to_string()),
        ("row_conflicts", d.row_conflicts.to_string()),
        ("refreshes", d.refreshes.to_string()),
        ("total_cycles", d.total_cycles.to_string()),
        ("compute_cycles", r.compute_cycles.to_string()),
        ("exec_ns", format!("0x{:016x}", r.exec_ns.to_bits())),
    ]
}

#[test]
fn dlrm_and_mobilenet_inference_match_the_benchmark_golden() {
    let mut cfg = EvalConfig::for_target("guardnn-paper").expect("built-in target");
    cfg.channel_mode = ChannelMode::Serial;
    for net in [zoo::dlrm(), zoo::mobilenet_v1()] {
        for scheme in Scheme::all() {
            let summary = evaluate(&net, Mode::Inference, scheme, &cfg);
            assert_eq!(summary.scheme, scheme.label());
            let key = format!("{} inference {}", net.name(), scheme.label());
            assert_eq!(summary_fields(&summary), golden_fields(&key), "{key}");
        }
    }
}
