//! From-scratch cryptographic primitives used by the GuardNN secure
//! accelerator model.
//!
//! The GuardNN paper (DAC 2022) assumes a hardware root of trust: an on-chip
//! AES engine for off-chip memory encryption, a MAC for integrity
//! verification, a hash for remote attestation, a true random number
//! generator, and a public-key key-exchange/signature scheme run on an
//! embedded microcontroller. This crate implements software models of all of
//! those building blocks with no external dependencies. It is safe Rust
//! except for four `unsafe` calls in [`aes`]: plain code calling into the
//! `#[target_feature(enable = "aes")]` functions of the AES-NI rounds.
//! Each call is a method of a private type that holds a token only the
//! runtime CPU check creates, so the instructions never run on a CPU that
//! lacks them.
//!
//! * [`aes`] — AES-128 encryption (FIPS-197): AES-NI rounds where the CPU
//!   has them, with several blocks in flight, and the 32-bit table form
//!   (one `u32` per state column, one round table) everywhere else.
//! * [`ctr`] — AES counter mode with the GuardNN counter-block layout
//!   (physical block address ‖ version number).
//! * [`cmac`] — AES-CMAC (RFC 4493) used for per-chunk memory MACs; a
//!   message may be given as several byte slices, so callers MAC data
//!   plus address and version without concatenating them, and several
//!   messages of one length can be MACed in lockstep.
//! * [`sha256`] — SHA-256 (FIPS 180-4) used for attestation hash chains.
//! * [`hmac`] — HMAC-SHA256 and HKDF (RFC 2104 / RFC 5869) for session-key
//!   derivation.
//! * [`bigint`] — minimal arbitrary-precision unsigned integers with
//!   Montgomery modular exponentiation on reused limb buffers: fixed
//!   4-bit windows with a dedicated squaring routine for any base, and
//!   Yao's fixed-base windowing over precomputed powers for a generator
//!   (neither is constant-time; see the module docs).
//! * [`dh`] — finite-field Diffie-Hellman over RFC 3526 MODP groups
//!   (the repo's stand-in for the paper's ECDHE; see DESIGN.md §4). Each
//!   group is built once per process with its generator's powers, and a
//!   key pair derives all its labelled keys from one shared secret.
//! * [`schnorr`] — Schnorr signatures over the same groups (stand-in for
//!   ECDSA device signatures).
//! * [`cert`] — a minimal manufacturer-certificate chain binding a device
//!   public key, as the paper's PKI assumption.
//! * [`rng`] — a deterministic counter-mode PRG modelling the on-chip TRNG.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::aes::Aes128;
//!
//! // NIST AESAVS VarKey, first vector: key 0x80 ‖ 0…0, plaintext 0.
//! let mut key = [0u8; 16];
//! key[0] = 0x80;
//! let ct = Aes128::new(&key).encrypt_block(&[0u8; 16]);
//! assert_eq!(ct, *b"\x0e\xdd\x33\xd3\xc6\x21\xe5\x46\x45\x5b\xd8\xba\x14\x18\xbe\xc8");
//! ```

#![deny(missing_docs)]

pub mod aes;
pub mod bigint;
pub mod cert;
pub mod cmac;
pub mod ctr;
pub mod dh;
pub mod hmac;
pub mod rng;
pub mod schnorr;
pub mod sha256;

/// Constant-time equality comparison of two byte slices.
///
/// Returns `false` when lengths differ. Used wherever a MAC, hash, or
/// signature component is compared so that the *model* mirrors the
/// non-leaking comparator the hardware would use.
///
/// # Example
///
/// ```
/// assert!(guardnn_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!guardnn_crypto::ct_eq(b"abc", b"abd"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// splitmix64, the seeded source of the crate's differential tests.
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"guardnn", b"guardnn"));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"guardnn", b"guardnm"));
    }

    #[test]
    fn ct_eq_unequal_length() {
        assert!(!ct_eq(b"guard", b"guardnn"));
    }
}
