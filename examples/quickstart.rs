//! Quickstart: end-to-end private inference on a GuardNN device.
//!
//! A remote user authenticates the accelerator with the manufacturer's
//! public key, establishes a session key, ships an encrypted model and
//! input through the *untrusted* host, and gets back an encrypted result —
//! while the host and the DRAM bus only ever see ciphertext.
//!
//! Run with `cargo run -p guardnn --example quickstart`.

use guardnn::adversary;
use guardnn::device::GuardNnDevice;
use guardnn::server::DeviceServer;
use guardnn::session::RemoteUser;
use guardnn::testnet;

fn main() -> Result<(), guardnn::GuardNnError> {
    // 1. Manufacturing: the device is provisioned with a fused private key
    //    and a certificate; the user pins the manufacturer's public key.
    let (device, manufacturer_pk) = GuardNnDevice::provision(0xD0C5, 2024);
    let mut user = RemoteUser::new(manufacturer_pk, 7);
    println!("provisioned device {:#06x}", device.device_id());

    // 2. The user's private workload.
    let network = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(3);
    let input = vec![1, -2, 3, 4, -5, 6, 7, -8];
    println!(
        "model: {} ({} parameters)",
        network.name(),
        network.param_count()
    );

    // 3. The untrusted host schedules everything; it relays ciphertext and
    //    issues GuardNN instructions, but can never see the tensors: the
    //    user checks the device certificate, runs the key exchange, ships
    //    encrypted weights, then one encrypted input.
    let mut host = DeviceServer::new(device);
    let session = host.connect(&mut user)?;
    host.establish(session, &mut user, true)?;
    host.load_model(session, &mut user, &network, &weights)?;
    let output = host.infer(session, &mut user, &input)?;
    println!("decrypted output: {output:?}");

    // 4. Verify against an unprotected reference computation.
    let reference = testnet::tiny_mlp_reference(&weights, &input);
    assert_eq!(output, reference);
    println!("matches unprotected reference: {reference:?}");

    // 5. What a physical attacker probing DRAM actually sees: ciphertext.
    let probe = adversary::probe_dram(host.device_mut(), 0x1000, 32)?;
    println!("DRAM probe at 0x1000: {probe:02x?}");
    Ok(())
}
