//! Finite-field Diffie-Hellman key exchange over RFC 3526 / RFC 2409 MODP
//! groups.
//!
//! The GuardNN `InitSession` instruction runs an ephemeral key exchange
//! (ECDHE in the paper's MicroBlaze firmware) between the remote user and
//! the accelerator, producing the symmetric session key K_Session. This
//! module substitutes classic prime-field DH — same protocol roles and
//! message flow, different group (see DESIGN.md §4).
//!
//! Two groups are provided: the 2048-bit MODP group 14 (production-grade
//! parameters, used by examples/benches) and the 768-bit Oakley group 1
//! (small, for fast unit/integration tests). Each is built once per
//! process and shared: its constructor returns a clone of one instance.
//!
//! A group precomputes `g^(16^i)` in Montgomery form for every 4-bit
//! window of `p` (192 residues, 18 KiB, for `oakley768`), so
//! [`DhGroup::pow_g`] (key generation, Schnorr signing and half of a
//! verification) runs Yao's fixed-base method with no squarings; see
//! [`crate::bigint`], which also notes that these exponentiations are
//! not constant-time. A key pair derives all its labelled keys from one
//! shared secret ([`DhKeyPair::derive_keys`]), so each side of an
//! exchange runs two exponentiations: its key generation and the shared
//! secret.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::dh::{DhGroup, DhKeyPair};
//! use guardnn_crypto::rng::TrngModel;
//!
//! let group = DhGroup::oakley768();
//! let mut rng_a = TrngModel::from_seed(1);
//! let mut rng_b = TrngModel::from_seed(2);
//! let alice = DhKeyPair::generate(&group, &mut rng_a);
//! let bob = DhKeyPair::generate(&group, &mut rng_b);
//! assert_eq!(
//!     alice.shared_secret(bob.public_key()),
//!     bob.shared_secret(alice.public_key()),
//! );
//! ```

use crate::bigint::{BigUint, FixedBase, MontgomeryCtx};
use crate::hmac::hkdf_sha256;
use crate::rng::TrngModel;
use std::sync::{Arc, OnceLock};

/// RFC 3526 group 14 modulus (2048-bit MODP).
const MODP_2048_HEX: &str = "
FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
15728E5A 8AACAA68 FFFFFFFF FFFFFFFF";

/// RFC 2409 Oakley group 1 modulus (768-bit MODP) — used for fast tests.
const OAKLEY_768_HEX: &str = "
FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
E485B576 625E7EC6 F44C42E9 A63A3620 FFFFFFFF FFFFFFFF";

/// A Diffie-Hellman group (safe prime `p`, generator `g`, subgroup order
/// `q = (p-1)/2`).
#[derive(Clone, Debug)]
pub struct DhGroup {
    inner: Arc<GroupInner>,
}

#[derive(Debug)]
struct GroupInner {
    p: BigUint,
    g: BigUint,
    q: BigUint,
    ctx: MontgomeryCtx,
    /// Montgomery context of the order `q`, for signature arithmetic.
    q_ctx: MontgomeryCtx,
    /// `g^(16^i)` for every 4-bit window of `p`, for [`DhGroup::pow_g`].
    g_powers: FixedBase,
    name: &'static str,
}

impl DhGroup {
    fn from_hex(hex: &str, name: &'static str) -> Self {
        let p = BigUint::from_hex(hex);
        let g = BigUint::from(2u64);
        let q = p.sub(&BigUint::one()).shr1();
        let ctx = MontgomeryCtx::new(p.clone());
        let q_ctx = MontgomeryCtx::new(q.clone());
        let g_powers = ctx.fixed_base(&g);
        Self {
            inner: Arc::new(GroupInner {
                p,
                g,
                q,
                ctx,
                q_ctx,
                g_powers,
                name,
            }),
        }
    }

    /// The 2048-bit MODP group 14 from RFC 3526.
    pub fn modp2048() -> Self {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP
            .get_or_init(|| Self::from_hex(MODP_2048_HEX, "modp2048"))
            .clone()
    }

    /// The 768-bit Oakley group 1 from RFC 2409 (tests only; too small for
    /// real deployments).
    pub fn oakley768() -> Self {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP
            .get_or_init(|| Self::from_hex(OAKLEY_768_HEX, "oakley768"))
            .clone()
    }

    /// The prime modulus `p`.
    pub fn prime(&self) -> &BigUint {
        &self.inner.p
    }

    /// The generator `g`.
    pub fn generator(&self) -> &BigUint {
        &self.inner.g
    }

    /// The prime subgroup order `q = (p-1)/2`.
    pub fn order(&self) -> &BigUint {
        &self.inner.q
    }

    /// Human-readable group name.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// `g^e mod p`, by the fixed-base method over the group's powers of
    /// `g`. An exponent wider than `p` goes through the windowed `pow`.
    pub fn pow_g(&self, e: &BigUint) -> BigUint {
        guardnn_obs::Recorder::global().add("crypto.modexp", 1);
        let inner = &*self.inner;
        inner
            .ctx
            .pow_fixed(&inner.g_powers, e)
            .unwrap_or_else(|| inner.ctx.pow(&inner.g, e))
    }

    /// `base^e mod p`.
    pub fn pow(&self, base: &BigUint, e: &BigUint) -> BigUint {
        guardnn_obs::Recorder::global().add("crypto.modexp", 1);
        self.inner.ctx.pow(base, e)
    }

    /// `a * b mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.inner.ctx.mul_mod(a, b)
    }

    /// `a * b mod q`, in the Montgomery context built with the group.
    pub(crate) fn mul_mod_order(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.inner.q_ctx.mul_mod(a, b)
    }

    /// Samples a private exponent uniformly in `[1, q)`.
    pub fn sample_exponent(&self, rng: &mut TrngModel) -> BigUint {
        let bytes = self.inner.q.bit_len() / 8 + 1;
        loop {
            let candidate = BigUint::from_bytes_be(&rng.next_bytes(bytes)).rem(&self.inner.q);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }

    /// Checks that a received public value is a valid, nontrivial group
    /// element (`1 < y < p-1`), the standard DH public-key validation.
    pub fn validate_public(&self, y: &BigUint) -> bool {
        let one = BigUint::one();
        let p_minus_1 = self.inner.p.sub(&one);
        y > &one && y < &p_minus_1
    }
}

/// An ephemeral DH key pair.
#[derive(Clone)]
pub struct DhKeyPair {
    group: DhGroup,
    private: BigUint,
    public: BigUint,
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DhKeyPair")
            .field("group", &self.group.name())
            .field("public", &self.public)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl DhKeyPair {
    /// Generates an ephemeral key pair with randomness from `rng`.
    pub fn generate(group: &DhGroup, rng: &mut TrngModel) -> Self {
        let private = group.sample_exponent(rng);
        let public = group.pow_g(&private);
        Self {
            group: group.clone(),
            private,
            public,
        }
    }

    /// The public value `g^x mod p`.
    pub fn public_key(&self) -> &BigUint {
        &self.public
    }

    /// Computes the raw shared secret `peer^x mod p`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` fails public-key validation — a malformed value from
    /// the untrusted host must abort the session rather than produce a
    /// predictable secret.
    pub fn shared_secret(&self, peer: &BigUint) -> BigUint {
        assert!(self.group.validate_public(peer), "invalid DH public value");
        self.group.pow(peer, &self.private)
    }

    /// Derives one 16-byte symmetric key per context label (e.g.
    /// `b"k_session"`) from a single shared secret, with HKDF-SHA256 run
    /// once per label.
    ///
    /// # Panics
    ///
    /// Panics if `peer` fails public-key validation, as
    /// [`Self::shared_secret`] does.
    pub fn derive_keys<const N: usize>(&self, peer: &BigUint, labels: [&[u8]; N]) -> [[u8; 16]; N] {
        let secret = self.shared_secret(peer).to_bytes_be();
        labels.map(|label| {
            let okm = hkdf_sha256(&secret, b"guardnn-dh", label, 16);
            // lint:allow(panic-discipline) — hkdf_sha256 was asked for exactly 16 bytes
            okm.try_into().expect("hkdf returned 16 bytes")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_exchange_agrees_768() {
        let group = DhGroup::oakley768();
        let mut rng_a = TrngModel::from_seed(11);
        let mut rng_b = TrngModel::from_seed(22);
        let a = DhKeyPair::generate(&group, &mut rng_a);
        let b = DhKeyPair::generate(&group, &mut rng_b);
        assert_eq!(
            a.shared_secret(b.public_key()),
            b.shared_secret(a.public_key())
        );
        let [a_session, a_menc] = a.derive_keys(b.public_key(), [b"k_session", b"k_menc"]);
        let [b_session, b_menc] = b.derive_keys(a.public_key(), [b"k_session", b"k_menc"]);
        assert_eq!((a_session, a_menc), (b_session, b_menc));
        assert_ne!(
            a_session, a_menc,
            "distinct labels must derive distinct keys"
        );
        assert_eq!(
            a.derive_keys(b.public_key(), [b"k_menc"]),
            [a_menc],
            "a key depends on its own label alone"
        );
    }

    #[test]
    fn key_exchange_agrees_2048() {
        let group = DhGroup::modp2048();
        let mut rng_a = TrngModel::from_seed(5);
        let mut rng_b = TrngModel::from_seed(6);
        let a = DhKeyPair::generate(&group, &mut rng_a);
        let b = DhKeyPair::generate(&group, &mut rng_b);
        assert_eq!(
            a.shared_secret(b.public_key()),
            b.shared_secret(a.public_key())
        );
    }

    #[test]
    fn public_validation() {
        let group = DhGroup::oakley768();
        assert!(!group.validate_public(&BigUint::zero()));
        assert!(!group.validate_public(&BigUint::one()));
        assert!(!group.validate_public(&group.prime().sub(&BigUint::one())));
        assert!(group.validate_public(&BigUint::from(2u64)));
    }

    #[test]
    #[should_panic(expected = "invalid DH public value")]
    fn shared_secret_rejects_trivial_element() {
        let group = DhGroup::oakley768();
        let mut rng = TrngModel::from_seed(1);
        let kp = DhKeyPair::generate(&group, &mut rng);
        let _ = kp.shared_secret(&BigUint::one());
    }

    #[test]
    fn generator_in_group() {
        let group = DhGroup::oakley768();
        // g^q == 1 mod p for a safe prime with quadratic-residue generator
        // check: g^(p-1) == 1 (Fermat) — also validates the hex constant is
        // at least odd/well-formed.
        let p_minus_1 = group.prime().sub(&BigUint::one());
        assert_eq!(group.pow_g(&p_minus_1), BigUint::one());
    }

    #[test]
    fn exponent_sampling_in_range() {
        let group = DhGroup::oakley768();
        let mut rng = TrngModel::from_seed(42);
        for _ in 0..8 {
            let e = group.sample_exponent(&mut rng);
            assert!(!e.is_zero());
            assert!(&e < group.order());
        }
    }
}
