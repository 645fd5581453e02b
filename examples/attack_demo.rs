//! Attack demo: scripted physical DRAM attacks against a GuardNN
//! session, driven through the fault-injection API
//! ([`guardnn::adversary`]).
//!
//! Shows the paper's integrity guarantees in action: with GuardNN_CI the
//! device *detects* every attack (MAC verification fails); with GuardNN_C
//! the attacks merely corrupt the computation — plaintext never leaks
//! either way. The same [`PhysicalFault`] scripts power the chaos-matrix
//! harness (`guardnn-bench`'s `chaos` binary), which runs them across the
//! full (scheme × channel-mode × parallelism) grid.
//!
//! Run with `cargo run -p guardnn --example attack_demo`.

use guardnn::adversary::{mount_physical_attack, AttackOutcome, PhysicalFault};
use guardnn::device::GuardNnDevice;
use guardnn::server::DeviceServer;
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn::GuardNnError;

fn main() -> Result<(), GuardNnError> {
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(5);
    let input = vec![2, 7, 1, 8, 2, 8, 1, 8];
    let attacks = [
        (
            "bit-flip in the input features",
            PhysicalFault::FeatureBitFlip { edge: 0 },
        ),
        (
            "stale-ciphertext replay of edge 1",
            PhysicalFault::StaleFeatureReplay { edge: 1 },
        ),
        (
            "bit-flip in the imported weights",
            PhysicalFault::WeightBitFlip { layer: 0 },
        ),
    ];

    for (integrity, label) in [
        (true, "GuardNN_CI: integrity on"),
        (false, "GuardNN_C: confidentiality only"),
    ] {
        println!("=== {label} ===");
        for (i, (name, fault)) in attacks.iter().enumerate() {
            // Fresh session per attack: a detected tamper poisons the
            // session (by design), and a garbled one leaves stale state.
            let seed = 100 * (integrity as u64 + 1) + i as u64;
            let (device, maker_pk) = GuardNnDevice::provision(0xA77A, seed);
            let mut user = RemoteUser::new(maker_pk, seed ^ 1);
            let mut host = DeviceServer::new(device);
            let session = host.connect(&mut user)?;
            host.establish(session, &mut user, integrity)?;
            host.load_model(session, &mut user, &net, &weights)?;

            let outcome =
                mount_physical_attack(&mut host, session, &mut user, &net, &input, *fault)?;
            match outcome {
                AttackOutcome::Detected(e) => {
                    assert!(integrity, "{name}: detected without integrity?");
                    println!("  {name}: DETECTED ({e})");
                }
                AttackOutcome::Garbled { output, reference } => {
                    assert!(!integrity, "{name}: undetected despite integrity");
                    assert_ne!(output, reference, "{name}: tamper went unfelt");
                    println!("  {name}: NOT detected (by design) — result is garbage, not attacker-chosen:");
                    println!("    garbled:   {output:?}");
                    println!("    reference: {reference:?}");
                }
            }
        }
        println!("confidentiality held throughout: only ciphertext ever left the chip.\n");
    }
    Ok(())
}
