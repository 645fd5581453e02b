//! Property-level chaos coverage: seeded random fault plans are always
//! detected, and counter exhaustion is recoverable without ever making
//! an old version number replayable.

use guardnn::adversary::{
    park_counters, replay_chunk, run_tampered_input_stream, set_read_ctr_for_edge, snapshot_chunk,
    FaultPlan,
};
use guardnn::device::GuardNnDevice;
use guardnn::isa::Instruction;
use guardnn::server::DeviceServer;
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn::GuardNnError;
use guardnn_tests::serve;
use proptest::prelude::*;

/// A fresh single-session world with the model loaded and one honest
/// inference already run.
fn loaded(integrity: bool) -> (DeviceServer, RemoteUser) {
    let (device, maker_pk) = GuardNnDevice::provision(0xC0, 0x11AF);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(maker_pk, 0x2EED);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(7);
    let sid = serve(&mut server, &mut user, &net, &weights, integrity).expect("serve");
    server
        .infer(sid, &mut user, &[9, 8, 7, 6, 5, 4, 3, 2])
        .expect("honest inference");
    (server, user)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed-derived fault plan against a sealed input stream trips
    /// the channel authentication check — drop, replay, reorder, and
    /// corrupt alike, at every valid stream position.
    #[test]
    fn random_fault_plans_always_detected(seed in any::<u64>()) {
        let inputs: Vec<Vec<i32>> = (0..5).map(|i| vec![i - 2; 8]).collect();
        let plan = FaultPlan::from_seed(seed, inputs.len());
        let (mut server, mut user) = loaded(true);
        let (_, err) = run_tampered_input_stream(server.device_mut(), &mut user, &inputs, plan)
            .expect("stream runs");
        prop_assert!(
            err == Some(GuardNnError::ChannelAuth),
            "plan {:?} surfaced {:?}",
            plan,
            err
        );
    }
}

/// After `CounterExhausted`, a fresh key exchange on the same slot
/// restores bit-exact service — and ciphertext captured under the old
/// keys is unreplayable even with its old version number re-declared.
#[test]
fn counter_exhaustion_recovery() {
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(7);
    let input = [9, 8, 7, 6, 5, 4, 3, 2];
    let reference = testnet::tiny_mlp_reference(&weights, &input);

    let (device, maker_pk) = GuardNnDevice::provision(0xC1, 0x11B0);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(maker_pk, 0x2EEE);
    let sid = serve(&mut server, &mut user, &net, &weights, true).expect("serve");
    let out = server.infer(sid, &mut user, &input).expect("infer");
    assert_eq!(out, reference);
    let old_vns = server.edge_vns(sid).expect("live session").to_vec();

    // Capture edge 1 (layer 0's output) under the first key epoch.
    let device = server.device_mut();
    let edge1 = device.feature_region(1).expect("layout");
    let stale = snapshot_chunk(device, edge1).expect("snapshot");

    // Exhaust CTR_IN at the u32 boundary: the next sealed input refuses
    // with a typed error instead of reusing a version number.
    park_counters(device, u32::MAX, 0, 0).expect("park");
    let message = user.encrypt_tensor(&input).expect("seal");
    assert_eq!(
        server.inject_sealed_input(sid, message).unwrap_err(),
        GuardNnError::CounterExhausted { counter: "CTR_IN" }
    );

    // Recovery: re-key (the old session closes first, so the table does
    // not grow) and serve bit-exact.
    server.disconnect(sid).expect("close the exhausted session");
    let sid = serve(&mut server, &mut user, &net, &weights, true).expect("re-key");
    assert_eq!(server.device().session_count(), 1, "re-key reuses the slot");
    let out = server
        .infer(sid, &mut user, &input)
        .expect("infer after re-key");
    assert_eq!(out, reference);

    // Old version numbers are dead with the old keys: replaying the
    // stale chunk AND its old VN must fail integrity, not decrypt.
    let device = server.device_mut();
    replay_chunk(device, stale).expect("replay");
    set_read_ctr_for_edge(device, &net, 1, old_vns[1]).expect("declare stale VN");
    assert!(
        matches!(
            device.execute(Instruction::Forward { layer: 1 }),
            Err(GuardNnError::IntegrityViolation { .. })
        ),
        "stale ciphertext + stale VN must not verify under fresh keys"
    );
}
