//! End-to-end integration: the full GuardNN protocol across crypto,
//! device, host, and memory-protection crates.

use guardnn::device::GuardNnDevice;
use guardnn::isa::{Instruction, Response};
use guardnn::server::DeviceServer;
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn::GuardNnError;
use guardnn_models::Network;
use guardnn_tests::serve;

fn fresh(seed: u64) -> (GuardNnDevice, RemoteUser) {
    let (device, manufacturer_pk) = GuardNnDevice::provision(seed, seed.wrapping_mul(31));
    let user = RemoteUser::new(manufacturer_pk, seed ^ 0x55);
    (device, user)
}

/// The full honest protocol for one input in a new session on `server`:
/// connect → establish → load_model → infer.
fn run_inference(
    server: &mut DeviceServer,
    user: &mut RemoteUser,
    net: &Network,
    weights: &[Vec<i32>],
    input: &[i32],
    integrity: bool,
) -> Result<Vec<i32>, GuardNnError> {
    let sid = serve(server, user, net, weights, integrity)?;
    server.infer(sid, user, input)
}

#[test]
fn mlp_inference_with_integrity_matches_reference() {
    let (device, mut user) = fresh(1);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(7);
    let input = vec![10, -20, 30, -40, 50, -60, 70, -80];
    let mut server = DeviceServer::new(device);
    let out =
        run_inference(&mut server, &mut user, &net, &weights, &input, true).expect("protocol");
    assert_eq!(out, testnet::tiny_mlp_reference(&weights, &input));
}

#[test]
fn cnn_inference_without_integrity_matches_reference() {
    let (device, mut user) = fresh(2);
    let net = testnet::tiny_cnn();
    let weights = testnet::deterministic_weights(&net, 4);
    let input: Vec<i32> = (0..16).map(|i| i * i % 7 - 3).collect();
    let mut server = DeviceServer::new(device);
    let out =
        run_inference(&mut server, &mut user, &net, &weights, &input, false).expect("protocol");
    assert_eq!(out, testnet::reference_forward(&net, &weights, &input));
}

#[test]
fn multiple_inputs_in_one_session() {
    // Re-running the full protocol per input re-keys each time; but the
    // same device can also serve several sequential sessions.
    let (device, mut user) = fresh(3);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(1);
    let mut server = DeviceServer::new(device);
    for trial in 0..3 {
        let input: Vec<i32> = (0..8).map(|i| i + trial).collect();
        let out =
            run_inference(&mut server, &mut user, &net, &weights, &input, true).expect("protocol");
        assert_eq!(
            out,
            testnet::tiny_mlp_reference(&weights, &input),
            "trial {trial}"
        );
    }
}

#[test]
fn device_server_batch_matches_serial_across_crates() {
    // Integration-level pin of the batching contract: infer_batch over N
    // inputs in one session is bit-identical to N serial infer calls and
    // costs exactly one key exchange + one weight import.
    let net = testnet::tiny_cnn();
    let weights = testnet::deterministic_weights(&net, 4);
    let inputs: Vec<Vec<i32>> = (0..4)
        .map(|t| (0..16).map(|i| (i * (t + 3)) % 5 - 2).collect())
        .collect();

    let (device, maker_pk) = GuardNnDevice::provision(41, 83);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(maker_pk, 11);
    let sid = server.connect(&mut user).expect("connect");
    server.establish(sid, &mut user, true).expect("establish");
    server
        .load_model(sid, &mut user, &net, &weights)
        .expect("load");
    let batch = server
        .infer_batch(sid, &mut user, &inputs)
        .expect("batched inference");

    assert_eq!(server.stats().count("INITSESSION"), 1);
    assert_eq!(
        server.stats().count("SETWEIGHT"),
        weights.iter().filter(|w| !w.is_empty()).count() as u64
    );

    // Serial runs in a fresh but identically provisioned session.
    let (device2, maker_pk2) = GuardNnDevice::provision(41, 83);
    let mut server2 = DeviceServer::new(device2);
    let mut user2 = RemoteUser::new(maker_pk2, 11);
    let sid2 = server2.connect(&mut user2).expect("connect");
    server2
        .establish(sid2, &mut user2, true)
        .expect("establish");
    server2
        .load_model(sid2, &mut user2, &net, &weights)
        .expect("load");
    for (input, batched) in inputs.iter().zip(&batch) {
        let serial = server2.infer(sid2, &mut user2, input).expect("serial");
        assert_eq!(&serial, batched, "batch must be bit-identical to serial");
        assert_eq!(batched, &testnet::reference_forward(&net, &weights, input));
    }
}

#[test]
fn wrong_manufacturer_rejected() {
    let (mut device, _) = fresh(4);
    // User trusts a DIFFERENT manufacturer.
    let (_, wrong_pk) = GuardNnDevice::provision(99, 999);
    let mut user = RemoteUser::new(wrong_pk, 5);
    let Response::Pk(cert) = device.execute(Instruction::GetPk).expect("getpk") else {
        panic!("expected Pk");
    };
    assert_eq!(
        user.authenticate_device(&cert),
        Err(GuardNnError::BadCertificate)
    );
}

#[test]
fn host_cannot_reorder_weights_undetected() {
    // Load weights into the WRONG layers: the computation garbles or
    // shape-checks, and with integrity the attestation chain records the
    // actual SetWeight order — the user's expected chain will not match.
    let (mut device, mut user) = fresh(5);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(2);

    let Response::Pk(cert) = device.execute(Instruction::GetPk).expect("pk") else {
        panic!()
    };
    user.authenticate_device(&cert).expect("auth");
    let up = user.begin_session();
    let Response::SessionInit { device_public, .. } = device
        .execute(Instruction::InitSession {
            user_public: up,
            enable_integrity: true,
        })
        .expect("init")
    else {
        panic!()
    };
    user.complete_session(&device_public).expect("session");
    device
        .execute(Instruction::LoadModel {
            network: net.clone(),
        })
        .expect("load");

    // Swap the two layers' weights: shapes differ (8×4 vs 4×2), so the
    // device rejects outright.
    let msg = user.encrypt_tensor(&weights[1]).expect("enc");
    let err = device
        .execute(Instruction::SetWeight {
            layer: 0,
            message: msg,
        })
        .unwrap_err();
    assert!(matches!(err, GuardNnError::ShapeMismatch { .. }));
}

#[test]
fn export_before_forward_rejected() {
    let (mut device, mut user) = fresh(6);
    let net = testnet::tiny_mlp();
    let Response::Pk(cert) = device.execute(Instruction::GetPk).expect("pk") else {
        panic!()
    };
    user.authenticate_device(&cert).expect("auth");
    let up = user.begin_session();
    let Response::SessionInit { device_public, .. } = device
        .execute(Instruction::InitSession {
            user_public: up,
            enable_integrity: false,
        })
        .expect("init")
    else {
        panic!()
    };
    user.complete_session(&device_public).expect("session");
    device
        .execute(Instruction::LoadModel { network: net })
        .expect("load");
    let err = device.execute(Instruction::ExportOutput).unwrap_err();
    assert_eq!(err, GuardNnError::InvalidState("no output computed"));
}

#[test]
fn session_reinit_clears_state() {
    let (device, mut user) = fresh(7);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(1);
    let input = vec![1; 8];
    let mut server = DeviceServer::new(device);
    run_inference(&mut server, &mut user, &net, &weights, &input, true).expect("first run");
    let device = server.device_mut();
    // A new InitSession wipes keys and model state: Forward must fail until
    // the model is reloaded.
    let up = user.begin_session();
    let Response::SessionInit { .. } = device
        .execute(Instruction::InitSession {
            user_public: up,
            enable_integrity: true,
        })
        .expect("reinit")
    else {
        panic!()
    };
    let err = device
        .execute(Instruction::Forward { layer: 0 })
        .unwrap_err();
    assert_eq!(err, GuardNnError::InvalidState("no model loaded"));
}
