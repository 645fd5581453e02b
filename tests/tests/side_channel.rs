//! Side-channel freedom: the paper's claim that a GuardNN accelerator's
//! memory access pattern and timing are independent of secret values
//! (§II-A, §II-B), checked at each modeling layer.

use guardnn::device::GuardNnDevice;
use guardnn::perf::{evaluate, EvalConfig, Mode, Scheme};
use guardnn::server::DeviceServer;
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn_models::graph::ExecutionPlan;
use guardnn_models::zoo;
use guardnn_systolic::{ArrayConfig, TraceBuilder};
use guardnn_tests::serve;

/// The DRAM trace is a function of shapes only: rebuilt traces are
/// bit-identical (there is no code path through which tensor *values*
/// could influence it).
#[test]
fn trace_is_shape_deterministic() {
    let net = zoo::mobilenet_v1();
    let plan = ExecutionPlan::inference(&net);
    let tb = TraceBuilder::new(ArrayConfig::tpu_v1(), &plan);
    let t1 = tb.build(&plan);
    let t2 = tb.build(&plan);
    assert_eq!(t1.events(), t2.events());
    assert_eq!(t1.total_compute_cycles(), t2.total_compute_cycles());
}

/// Simulated execution time is identical across runs (no value input
/// exists; this pins the property against future regressions that might
/// thread data values into timing).
#[test]
fn exec_time_deterministic() {
    let net = zoo::mobilenet_v1();
    let cfg = EvalConfig::default();
    let a = evaluate(&net, Mode::Inference, Scheme::GuardNnCi, &cfg);
    let b = evaluate(&net, Mode::Inference, Scheme::GuardNnCi, &cfg);
    assert_eq!(a.exec_ns, b.exec_ns);
    assert_eq!(a.dram.row_hits, b.dram.row_hits);
}

/// The functional device touches the same DRAM pages and the same number
/// of protected chunks regardless of input and weight values.
#[test]
fn functional_footprint_value_independent() {
    let footprint = |weight_seed: i32, input: Vec<i32>| {
        let (device, manufacturer_pk) = GuardNnDevice::provision(1, 1);
        let mut server = DeviceServer::new(device);
        let mut user = RemoteUser::new(manufacturer_pk, 2);
        let net = testnet::tiny_cnn();
        let weights = testnet::deterministic_weights(&net, weight_seed);
        let sid = serve(&mut server, &mut user, &net, &weights, true).expect("serve");
        server.infer(sid, &mut user, &input).expect("protocol");
        server
            .device_mut()
            .physical_dram_mut()
            .expect("mem")
            .page_count()
    };
    let base = footprint(1, vec![0; 16]);
    assert_eq!(base, footprint(99, vec![7; 16]));
    assert_eq!(base, footprint(-5, (0..16).map(|i| i * 1000).collect()));
}

/// Ciphertexts for different values have the same length — message size
/// leaks nothing beyond the (public) tensor shape.
#[test]
fn ciphertext_length_value_independent() {
    let (device, manufacturer_pk) = GuardNnDevice::provision(3, 3);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(manufacturer_pk, 4);
    // Establish a session so the user holds channel keys.
    let sid = server.connect(&mut user).expect("connect");
    server.establish(sid, &mut user, false).expect("protocol");
    let w1 = user.encrypt_tensor(&[0i32; 64]).expect("enc");
    let w2 = user.encrypt_tensor(&[i32::MAX; 64]).expect("enc");
    assert_eq!(w1.len(), w2.len());
}
