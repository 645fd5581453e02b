//! Schnorr signatures over RFC 3526 MODP groups.
//!
//! GuardNN's `SignOutput` instruction signs the attestation hashes with the
//! accelerator's unique private key SK_Accel (ECDSA in the paper). We
//! substitute Schnorr over a prime-field group — the same role (device
//! signature verifiable with the certified public key) with a simpler,
//! easier-to-verify construction. See DESIGN.md §4.
//!
//! Signature: pick `k ← [1, q)`, compute `r = g^k mod p`,
//! `e = H(r ‖ m) mod q`, `s = k + e·x mod q`; output `(e, s)`.
//! Verification: `r' = g^s · y^{-e} = g^s · y^{q-e}`, accept iff
//! `H(r' ‖ m) mod q == e`.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::dh::DhGroup;
//! use guardnn_crypto::rng::TrngModel;
//! use guardnn_crypto::schnorr::SigningKey;
//!
//! let group = DhGroup::oakley768();
//! let mut rng = TrngModel::from_seed(1);
//! let sk = SigningKey::generate(&group, &mut rng);
//! let sig = sk.sign(b"attestation report", &mut rng);
//! assert!(sk.verifying_key().verify(b"attestation report", &sig));
//! ```

use crate::bigint::BigUint;
use crate::dh::DhGroup;
use crate::rng::TrngModel;
use crate::sha256::Sha256;

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Challenge `e = H(r ‖ m) mod q`.
    pub e: BigUint,
    /// Response `s = k + e·x mod q`.
    pub s: BigUint,
}

impl Signature {
    /// Serializes the signature as length-prefixed big-endian integers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let e = self.e.to_bytes_be();
        let s = self.s.to_bytes_be();
        let mut out = Vec::with_capacity(e.len() + s.len() + 8);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out.extend_from_slice(&(s.len() as u32).to_be_bytes());
        out.extend_from_slice(&s);
        out
    }

    /// Parses a signature serialized by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 {
            return None;
        }
        let e_len = u32::from_be_bytes(bytes[..4].try_into().ok()?) as usize;
        let rest = &bytes[4..];
        if rest.len() < e_len + 4 {
            return None;
        }
        let e = BigUint::from_bytes_be(&rest[..e_len]);
        let rest = &rest[e_len..];
        let s_len = u32::from_be_bytes(rest[..4].try_into().ok()?) as usize;
        let rest = &rest[4..];
        if rest.len() != s_len {
            return None;
        }
        let s = BigUint::from_bytes_be(rest);
        Some(Self { e, s })
    }
}

/// A Schnorr private (signing) key — models SK_Accel fused into the device.
#[derive(Clone)]
pub struct SigningKey {
    group: DhGroup,
    x: BigUint,
    y: BigUint,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningKey")
            .field("group", &self.group.name())
            .field("x", &"<redacted>")
            .finish()
    }
}

/// A Schnorr public (verifying) key — models PK_Accel published via the
/// manufacturer certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyingKey {
    group: DhGroup,
    y: BigUint,
}

// DhGroup has no PartialEq; compare by name + prime.
impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name() && self.prime() == other.prime()
    }
}
impl Eq for DhGroup {}

fn challenge(group: &DhGroup, r: &BigUint, message: &[u8]) -> BigUint {
    let mut h = Sha256::new();
    h.update(&r.to_bytes_be());
    h.update(message);
    BigUint::from_bytes_be(&h.finalize()).rem(group.order())
}

impl SigningKey {
    /// Generates a fresh signing key with randomness from `rng`.
    pub fn generate(group: &DhGroup, rng: &mut TrngModel) -> Self {
        let x = group.sample_exponent(rng);
        let y = group.pow_g(&x);
        Self {
            group: group.clone(),
            x,
            y,
        }
    }

    /// The corresponding verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            group: self.group.clone(),
            y: self.y.clone(),
        }
    }

    /// Signs `message` with a fresh nonce from `rng`.
    pub fn sign(&self, message: &[u8], rng: &mut TrngModel) -> Signature {
        let q = self.group.order();
        let k = self.group.sample_exponent(rng);
        let r = self.group.pow_g(&k);
        let e = challenge(&self.group, &r, message);
        // s = k + e*x mod q
        let ex = self.group.mul_mod_order(&e, &self.x);
        let s = k.add_mod(&ex, q);
        Signature { e, s }
    }
}

impl VerifyingKey {
    /// Creates a verifying key from a raw public group element.
    pub fn from_element(group: &DhGroup, y: BigUint) -> Self {
        Self {
            group: group.clone(),
            y,
        }
    }

    /// The raw public group element `y = g^x mod p`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// The group this key lives in.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }

    /// Serializes as big-endian bytes padded to the modulus width.
    pub fn to_bytes(&self) -> Vec<u8> {
        let width = self.group.prime().bit_len().div_ceil(8);
        self.y.to_bytes_be_padded(width)
    }

    /// Verifies a signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let q = self.group.order();
        if sig.e >= *q || sig.s >= *q || !self.group.validate_public(&self.y) {
            return false;
        }
        // r' = g^s * y^(q - e) — valid because y has order q.
        let gs = self.group.pow_g(&sig.s);
        let y_qe = self.group.pow(&self.y, &q.sub(&sig.e));
        let r = self.group.mul(&gs, &y_qe);
        challenge(&self.group, &r, message) == sig.e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SigningKey, TrngModel) {
        let group = DhGroup::oakley768();
        let mut rng = TrngModel::from_seed(2024);
        let sk = SigningKey::generate(&group, &mut rng);
        (sk, rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (sk, mut rng) = setup();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"output hash", &mut rng);
        assert!(vk.verify(b"output hash", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let (sk, mut rng) = setup();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"message A", &mut rng);
        assert!(!vk.verify(b"message B", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let group = DhGroup::oakley768();
        let mut rng = TrngModel::from_seed(1);
        let sk1 = SigningKey::generate(&group, &mut rng);
        let sk2 = SigningKey::generate(&group, &mut rng);
        let sig = sk1.sign(b"msg", &mut rng);
        assert!(!sk2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let (sk, mut rng) = setup();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"msg", &mut rng);
        let bad = Signature {
            e: sig.e.add(&BigUint::one()),
            s: sig.s.clone(),
        };
        assert!(!vk.verify(b"msg", &bad));
        let bad = Signature {
            e: sig.e,
            s: sig.s.add(&BigUint::one()),
        };
        assert!(!vk.verify(b"msg", &bad));
    }

    #[test]
    fn signature_serialization_round_trip() {
        let (sk, mut rng) = setup();
        let sig = sk.sign(b"serialize me", &mut rng);
        let bytes = sig.to_bytes();
        let parsed = Signature::from_bytes(&bytes).expect("parse");
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Signature::from_bytes(&[]).is_none());
    }

    #[test]
    fn signatures_are_randomized() {
        let (sk, mut rng) = setup();
        let s1 = sk.sign(b"msg", &mut rng);
        let s2 = sk.sign(b"msg", &mut rng);
        assert_ne!(s1, s2, "fresh nonce must randomize the signature");
        assert!(sk.verifying_key().verify(b"msg", &s1));
        assert!(sk.verifying_key().verify(b"msg", &s2));
    }
}
