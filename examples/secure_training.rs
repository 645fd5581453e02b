//! Secure training: gradient descent entirely under memory encryption.
//!
//! The paper's §II-D extends the VN scheme to training: gradients flow
//! through `Backward` passes (using the feature-counter VNs at mirrored
//! addresses) and `UpdateWeight` bumps `CTR_W` for each new weight epoch
//! (the `w*` edges of Figure 2b). This example trains a small MLP on the
//! device for several steps and shows that (a) the loss actually drops,
//! and (b) the weights — which never leave the device in plaintext —
//! match a bit-exact unprotected reference.
//!
//! Run with `cargo run -p guardnn --example secure_training`.

use guardnn::device::GuardNnDevice;
use guardnn::server::DeviceServer;
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn::GuardNnError;

fn main() -> Result<(), GuardNnError> {
    let (device, manufacturer_pk) = GuardNnDevice::provision(0x7123, 99);
    let mut user = RemoteUser::new(manufacturer_pk, 100);
    let net = testnet::tiny_mlp();
    let mut reference_weights = testnet::tiny_mlp_weights(4);

    let mut host = DeviceServer::new(device);
    let session = host.connect(&mut user)?;
    host.establish(session, &mut user, true)?;
    host.load_model(session, &mut user, &net, &reference_weights)?;
    println!("session established; initial weights imported (encrypted)");

    // A fixed "dataset": one binary sample with a modest integer target
    // (integer SGD needs gentle steps — lr = 2^-7).
    let input = vec![1, 0, 1, 1, 0, 1, 0, 1];
    let target = [30, -30];
    let lr_shift = 7;

    for step in 0..5 {
        // The user computes the loss gradient from the decrypted output —
        // plain squared error: d = 2·(y − t), here simplified to (y − t).
        let y = host.infer(session, &mut user, &input)?;
        let d_out: Vec<i32> = y.iter().zip(target.iter()).map(|(a, b)| a - b).collect();
        let loss: i64 = d_out.iter().map(|&d| (d as i64).pow(2)).sum();
        println!("step {step}: output {y:?}  loss {loss}");

        host.train_step(session, &mut user, &input, &d_out, lr_shift)?;
        reference_weights =
            testnet::reference_train_step(&net, &reference_weights, &input, &d_out, lr_shift);
    }

    // Verify: the device's (encrypted, device-resident) weights compute
    // identically to the reference-updated weights.
    let final_y = host.infer(session, &mut user, &input)?;
    let reference_y = testnet::reference_forward(&net, &reference_weights, &input);
    assert_eq!(final_y, reference_y);
    println!("final output {final_y:?} — bit-exact with the unprotected reference");
    println!("(weights were updated 5 times without ever existing in plaintext off-chip)");
    Ok(())
}
