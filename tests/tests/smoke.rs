//! Workspace-wiring smoke test: the `guardnn` crate-root doc example, run
//! as a plain integration test so a broken workspace fails loudly even
//! when doc tests are skipped.

use guardnn::device::GuardNnDevice;
use guardnn::server::DeviceServer;
use guardnn::session::RemoteUser;
use guardnn::testnet;

/// Mirrors the end-to-end private-inference example from `guardnn`'s
/// crate-root docs (`crates/core/src/lib.rs`); keep the two in sync.
#[test]
fn crate_root_doc_example_end_to_end() {
    let (device, manufacturer_pk) = GuardNnDevice::provision(7, 1);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(manufacturer_pk, 99);

    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(3);
    let input = vec![1, -2, 3, 4, -5, 6, 7, -8];

    let session = server.connect(&mut user).expect("device authenticates");
    server
        .establish(session, &mut user, true)
        .expect("key exchange");
    server
        .load_model(session, &mut user, &net, &weights)
        .expect("weights import");
    let output = server
        .infer(session, &mut user, &input)
        .expect("protected inference succeeds");
    assert_eq!(output, testnet::tiny_mlp_reference(&weights, &input));
}

/// The nine-network zoo and the perf glue are reachable from the test
/// crate — a cheap cross-crate link check over the whole dependency DAG.
#[test]
fn workspace_dag_links() {
    let nets = guardnn_models::zoo::figure3_inference_suite();
    assert_eq!(nets.len(), 9, "paper evaluates nine networks");
    let row = guardnn_fpga::chaidnn::FpgaConfig::new(512, guardnn_fpga::chaidnn::Precision::Bit8)
        .evaluate(&guardnn_models::zoo::alexnet());
    assert!(row.guardnn_fps > 0.0 && row.guardnn_fps < row.baseline_fps);
}
