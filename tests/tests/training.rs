//! Integration tests for secure training: device-resident gradient descent
//! under memory encryption matches the unprotected reference, including
//! under property-based randomization.

use guardnn::adversary::{set_read_ctr_for_edge, set_read_ctr_for_grad_edge};
use guardnn::device::GuardNnDevice;
use guardnn::isa::Instruction;
use guardnn::server::{DeviceServer, SessionId};
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn::GuardNnError;
use guardnn_tests::serve;
use proptest::prelude::*;

fn setup(seed: u64, integrity: bool) -> (DeviceServer, SessionId, RemoteUser) {
    let (device, manufacturer_pk) = GuardNnDevice::provision(seed, seed * 3 + 1);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(manufacturer_pk, seed + 1000);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(seed as i32);
    let sid = serve(&mut server, &mut user, &net, &weights, integrity).expect("serve");
    (server, sid, user)
}

#[test]
fn loss_decreases_over_steps() {
    let (mut server, sid, mut user) = setup(1, true);
    let input = vec![1, 0, 1, 1, 0, 1, 0, 1];
    let target = vec![25, -25];
    let mut losses = Vec::new();
    for _ in 0..4 {
        let y = server.infer(sid, &mut user, &input).expect("infer");
        let d: Vec<i32> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
        losses.push(d.iter().map(|&v| (v as i64).pow(2)).sum::<i64>());
        server
            .train_step(sid, &mut user, &input, &d, 7)
            .expect("train");
    }
    assert!(
        losses.last().expect("nonempty") < losses.first().expect("nonempty"),
        "losses {losses:?}"
    );
}

#[test]
fn backward_before_set_output_grad_fails_integrity() {
    // Without SetOutputGrad, the gradient region was never written: with
    // integrity enabled the missing MAC is detected.
    let (mut server, sid, mut user) = setup(2, true);
    let net = testnet::tiny_mlp();
    server
        .infer(sid, &mut user, &[1, 1, 1, 1, 1, 1, 1, 1])
        .expect("infer");
    let device = server.device_mut();
    set_read_ctr_for_edge(device, &net, 1, (1 << 32) | 1).expect("ctr");
    set_read_ctr_for_grad_edge(device, &net, 2, (1 << 32) | 9).expect("ctr");
    let err = device
        .execute(Instruction::Backward { layer: 1 })
        .unwrap_err();
    assert!(
        matches!(err, GuardNnError::IntegrityViolation { .. }),
        "got {err:?}"
    );
}

#[test]
fn update_weight_needs_weights() {
    let (mut server, sid, mut user) = setup(3, false);
    let net = testnet::tiny_cnn();
    let weights = testnet::deterministic_weights(&net, 1);
    // Re-key into a fresh session that holds the CNN.
    server.disconnect(sid).expect("disconnect");
    serve(&mut server, &mut user, &net, &weights, false).expect("re-establish");
    // Layer 1 is the pool (no weights).
    let err = server
        .device_mut()
        .execute(Instruction::UpdateWeight {
            layer: 1,
            lr_shift: 4,
        })
        .unwrap_err();
    assert_eq!(err, GuardNnError::InvalidState("layer has no weights"));
}

#[test]
fn wrong_gradient_read_ctr_garbles_training() {
    // A malicious host lying about the gradient VN corrupts the update but
    // never sees plaintext.
    let honest = {
        let (mut server, sid, mut user) = setup(4, false);
        server
            .train_step(sid, &mut user, &[1; 8], &[5, -5], 2)
            .expect("train");
        server.infer(sid, &mut user, &[2; 8]).expect("infer")
    };
    let malicious = {
        let (mut server, sid, mut user) = setup(4, false);
        let net = testnet::tiny_mlp();
        // Forward + SetOutputGrad as usual.
        server.infer(sid, &mut user, &[1; 8]).expect("infer");
        let msg = user.encrypt_tensor(&[5, -5]).expect("enc");
        let device = server.device_mut();
        device
            .execute(Instruction::SetOutputGrad { message: msg })
            .expect("grad");
        // Backward layer 1 with a WRONG gradient VN.
        set_read_ctr_for_edge(device, &net, 1, (1 << 32) | 1).expect("ctr");
        set_read_ctr_for_grad_edge(device, &net, 2, 0xBAD).expect("ctr");
        device
            .execute(Instruction::Backward { layer: 1 })
            .expect("backward");
        // Update with the (garbled) weight gradient.
        let start = device.wgrad_region(1).expect("region");
        device
            .execute(Instruction::SetReadCtr {
                start,
                end: start + 64,
                vn: (1 << 32) | 4,
            })
            .expect("ctr");
        device
            .execute(Instruction::UpdateWeight {
                layer: 1,
                lr_shift: 2,
            })
            .expect("update");
        server.infer(sid, &mut user, &[2; 8]).expect("infer")
    };
    assert_ne!(
        honest, malicious,
        "garbled gradients must corrupt the update"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Device training equals the unprotected reference for random
    /// inputs/gradients/learning rates, with and without integrity.
    #[test]
    fn training_matches_reference(
        seed in 0u64..50,
        input in proptest::collection::vec(-20i32..20, 8),
        d_out in proptest::collection::vec(-10i32..10, 2),
        lr_shift in 0u32..8,
        integrity in any::<bool>(),
    ) {
        let (mut server, sid, mut user) = setup(seed + 10, integrity);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights((seed + 10) as i32);
        server.train_step(sid, &mut user, &input, &d_out, lr_shift).expect("train");
        let probe = vec![1, -1, 2, -2, 3, -3, 4, -4];
        let out = server.infer(sid, &mut user, &probe).expect("infer");
        let updated = testnet::reference_train_step(&net, &weights, &input, &d_out, lr_shift);
        prop_assert_eq!(out, testnet::reference_forward(&net, &updated, &probe));
    }
}
