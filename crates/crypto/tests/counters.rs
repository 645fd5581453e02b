//! The `crypto.*` counters, read through the process-global recorder.
//!
//! CTR ranges and CMAC messages count their AES blocks in one update, not
//! one per block; the totals must still equal the number of block
//! encryptions each operation performs. Each public-key operation counts
//! the modular exponentiations it runs, and CMAC lanes count like the
//! same messages one at a time. This file is its own test
//! process, so installing the global recorder here affects nothing else,
//! and everything runs in one test so no other thread adds to the counts.

use guardnn_crypto::aes::Aes128;
use guardnn_crypto::cmac::Cmac;
use guardnn_crypto::ctr::{AesCtr, CounterBlock};
use guardnn_crypto::dh::{DhGroup, DhKeyPair};
use guardnn_crypto::rng::TrngModel;
use guardnn_crypto::schnorr::SigningKey;
use guardnn_obs::Recorder;

fn counts() -> (u64, u64, u64) {
    let counters = Recorder::global().snapshot().counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    (
        get("crypto.aes_blocks"),
        get("crypto.cmac_tags"),
        get("crypto.modexp"),
    )
}

/// Runs `op`; returns its value and the (AES blocks, CMAC tags,
/// modexps) it counted.
fn counted<T>(op: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
    let before = counts();
    let value = op();
    let after = counts();
    let delta = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    (value, delta)
}

fn delta<T>(op: impl FnOnce() -> T) -> (u64, u64, u64) {
    counted(op).1
}

#[test]
fn counters_equal_block_encryptions() {
    assert!(Recorder::install_global(Recorder::enabled()));

    let aes = Aes128::new(&[1; 16]);
    assert_eq!(delta(|| aes.encrypt_block(&[0; 16])), (1, 0, 0));

    let ctr = AesCtr::new(&[2; 16]);
    for (len, blocks) in [(0, 0), (1, 1), (16, 1), (17, 2), (100, 7), (2048, 128)] {
        let mut buf = vec![0u8; len];
        assert_eq!(
            delta(|| ctr.apply_range(0x40, 3, &mut buf)),
            (blocks, 0, 0),
            "{len}-byte range"
        );
    }
    assert_eq!(delta(|| ctr.pad(CounterBlock::new(0, 1))), (1, 0, 0));
    assert_eq!(
        delta(|| ctr.apply(CounterBlock::new(0, 1), &mut [0; 5])),
        (1, 0, 0)
    );

    // The subkey derivation encrypts one block.
    let (cmac, subkeys) = counted(|| Cmac::new(&[3; 16]));
    assert_eq!(subkeys, (1, 0, 0));
    for (len, blocks) in [(0, 1), (1, 1), (16, 1), (17, 2), (40, 3), (64, 4)] {
        let msg = vec![7u8; len];
        assert_eq!(
            delta(|| cmac.compute(&msg)),
            (blocks, 1, 0),
            "{len}-byte message"
        );
    }
    // A 512-byte memory chunk plus its address and VN: 528 bytes.
    let chunk = [9u8; 512];
    assert_eq!(
        delta(|| cmac.compute_parts(&[&chunk, &[1; 8], &[2; 8]])),
        (33, 1, 0)
    );
    // N messages in lockstep count N tags and the blocks of N separate
    // messages.
    let parts: &[&[u8]] = &[&chunk, &[1; 8], &[2; 8]];
    assert_eq!(delta(|| cmac.compute_lanes([parts; 4])), (4 * 33, 4, 0));
    assert_eq!(delta(|| cmac.compute_lanes([parts; 3])), (3 * 33, 3, 0));
    assert_eq!(delta(|| cmac.compute_lanes([parts])), (33, 1, 0));
    for (len, blocks) in [(0, 1), (16, 1), (17, 2), (40, 3)] {
        let msg = vec![7u8; len];
        let one: &[&[u8]] = &[&msg];
        assert_eq!(
            delta(|| cmac.compute_lanes([one; 2])),
            (2 * blocks, 2, 0),
            "two {len}-byte messages"
        );
    }

    // One modexp per public-key operation, except verification's two: a
    // session costs 6 (the certificate check, and a key generation and
    // one shared secret on each side).
    let group = DhGroup::oakley768();
    let mut rng = TrngModel::from_seed(5);
    let (alice, keygen) = counted(|| DhKeyPair::generate(&group, &mut rng));
    assert_eq!(keygen.2, 1, "key generation is one modexp");
    let bob = DhKeyPair::generate(&group, &mut rng);
    assert_eq!(
        delta(|| alice.derive_keys(bob.public_key(), [b"enc", b"mac"])).2,
        1,
        "labelled keys share one shared secret"
    );
    assert_eq!(delta(|| alice.shared_secret(bob.public_key())).2, 1);
    let sk = SigningKey::generate(&group, &mut rng);
    let (sig, signing) = counted(|| sk.sign(b"report", &mut rng));
    assert_eq!(signing.2, 1, "signing is one modexp");
    let vk = sk.verifying_key();
    let (valid, verifying) = counted(|| vk.verify(b"report", &sig));
    assert!(valid);
    assert_eq!(verifying.2, 2, "verification is two modexps");
}
