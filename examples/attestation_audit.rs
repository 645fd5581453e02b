//! Attestation audit: verifying that the untrusted host executed exactly
//! the instruction sequence the user expected.
//!
//! GuardNN's `SignOutput` signs the hash chain of every executed
//! instruction plus the input/weight/output hashes with the device's fused
//! private key. The user independently replays the *expected* public log
//! and compares. A host that skips, reorders, or alters an instruction
//! produces a chain mismatch the user catches.
//!
//! Run with `cargo run -p guardnn --example attestation_audit`.

use guardnn::attestation::AttestationState;
use guardnn::device::GuardNnDevice;
use guardnn::isa::{Instruction, Response};
use guardnn::server::{edge_extent, DeviceServer};
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn::GuardNnError;

/// The user's own reconstruction of the attestation state for the honest
/// protocol on `tiny_mlp`.
fn expected_report(
    device: &GuardNnDevice,
    weights: &[Vec<i32>],
    input: &[i32],
    output: &[i32],
    read_ctr_log: &[(u64, u64, u64)],
) -> guardnn::attestation::AttestationReport {
    let net = testnet::tiny_mlp();
    let mut st = AttestationState::new();
    st.record_instruction("LOADMODEL", net.name().as_bytes());
    for (layer, w) in weights.iter().enumerate() {
        let mut bytes = Vec::new();
        for v in w {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        st.record_weights(&bytes);
        st.record_instruction("SETWEIGHT", &(layer as u64).to_be_bytes());
    }
    let mut in_bytes = Vec::new();
    for v in input {
        in_bytes.extend_from_slice(&v.to_le_bytes());
    }
    st.record_input(&in_bytes);
    st.record_instruction("SETINPUT", &[]);
    for (layer, (start, end, vn)) in read_ctr_log.iter().take(net.layers().len()).enumerate() {
        let mut op = Vec::new();
        op.extend_from_slice(&start.to_be_bytes());
        op.extend_from_slice(&end.to_be_bytes());
        op.extend_from_slice(&vn.to_be_bytes());
        st.record_instruction("SETREADCTR", &op);
        st.record_instruction("FORWARD", &(layer as u64).to_be_bytes());
    }
    // Final SetReadCtr for the output edge, then the export.
    let (start, end, vn) = read_ctr_log[net.layers().len()];
    let mut op = Vec::new();
    op.extend_from_slice(&start.to_be_bytes());
    op.extend_from_slice(&end.to_be_bytes());
    op.extend_from_slice(&vn.to_be_bytes());
    st.record_instruction("SETREADCTR", &op);
    let mut out_bytes = Vec::new();
    for v in output {
        out_bytes.extend_from_slice(&v.to_le_bytes());
    }
    st.record_output(&out_bytes);
    st.record_instruction("EXPORTOUTPUT", &[]);
    st.report(device.device_id())
}

fn main() -> Result<(), GuardNnError> {
    let (device, manufacturer_pk) = GuardNnDevice::provision(0xB10B, 11);
    let mut user = RemoteUser::new(manufacturer_pk, 12);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(9);
    let input = vec![5, 4, 3, 2, 1, 0, -1, -2];

    let mut host = DeviceServer::new(device);
    let session = host.connect(&mut user)?;
    host.establish(session, &mut user, true)?;
    host.load_model(session, &mut user, &net, &weights)?;
    let output = host.infer(session, &mut user, &input)?;
    println!("inference done, output = {output:?}");

    // The host publishes its (public) SetReadCTR log; the user reconstructs
    // the expected attestation state from it.
    let vns = host.edge_vns(session).expect("live session").to_vec();
    let device = host.device_mut();
    let mut log = Vec::new();
    for (edge, vn) in vns.into_iter().enumerate() {
        let start = device.feature_region(edge)?;
        log.push((start, start + edge_extent(&net, edge), vn));
    }

    let expected = expected_report(device, &weights, &input, &output, &log);

    // Honest case: signature verifies against the expected report.
    let Response::Attestation { report, signature } = device.execute(Instruction::SignOutput)?
    else {
        unreachable!("SignOutput returns an attestation")
    };
    user.verify_attestation(&report, &signature, &expected)?;
    println!("attestation VERIFIED: device executed exactly the expected instruction log");

    // Dishonest case: pretend the host claimed a different input was used.
    let mut tampered_input = input.clone();
    tampered_input[0] ^= 1;
    let wrong = expected_report(device, &weights, &tampered_input, &output, &log);
    match user.verify_attestation(&report, &signature, &wrong) {
        Err(GuardNnError::BadAttestation) => {
            println!("tampered claim REJECTED: input hash does not match the signed report");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    Ok(())
}
