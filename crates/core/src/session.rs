//! Session key exchange, the secure channel, and the remote user.
//!
//! `InitSession` runs an ephemeral key exchange between the remote user and
//! the accelerator (paper: ECDHE-ECDSA on the MicroBlaze; here: prime-field
//! DH + Schnorr — see DESIGN.md §4). Both sides derive a channel key pair
//! and exchange tensors through an encrypt-then-MAC channel with **strictly
//! sequential** sequence numbers, so the untrusted host relaying the
//! messages can neither read, undetectably modify, replay, reorder, nor
//! silently *drop* them: a message only opens if its sequence number is
//! exactly the next one expected.
//!
//! # Example: a secure channel over a DH exchange
//!
//! ```
//! use guardnn::session::{derive_channel_keys, ChannelEnd, SecureChannel};
//! use guardnn::GuardNnError;
//! use guardnn_crypto::dh::{DhGroup, DhKeyPair};
//! use guardnn_crypto::rng::TrngModel;
//!
//! // Ephemeral key exchange (in the protocol this is `InitSession`).
//! let group = DhGroup::oakley768();
//! let user_kp = DhKeyPair::generate(&group, &mut TrngModel::from_seed(1));
//! let dev_kp = DhKeyPair::generate(&group, &mut TrngModel::from_seed(2));
//! let (k_enc, k_mac) = derive_channel_keys(&user_kp, dev_kp.public_key());
//! let mut user = SecureChannel::new(k_enc, k_mac, ChannelEnd::User);
//! let (k_enc, k_mac) = derive_channel_keys(&dev_kp, user_kp.public_key());
//! let mut device = SecureChannel::new(k_enc, k_mac, ChannelEnd::Device);
//!
//! // The untrusted host relays ciphertext; the device opens in order.
//! let m1 = user.seal(b"input tensor")?;
//! let m2 = user.seal(b"next input")?;
//! assert_eq!(device.open(&m1)?, b"input tensor");
//!
//! // Replaying m1 — or skipping ahead had m1 been dropped — is rejected.
//! assert_eq!(device.open(&m1).unwrap_err(), GuardNnError::ChannelAuth);
//! assert_eq!(device.open(&m2)?, b"next input");
//! # Ok::<(), GuardNnError>(())
//! ```

use crate::attestation::AttestationReport;
use crate::error::GuardNnError;
use crate::memory::{decode_i32, encode_i32};
use guardnn_crypto::bigint::BigUint;
use guardnn_crypto::cert::Certificate;
use guardnn_crypto::cmac::Cmac;
use guardnn_crypto::ctr::AesCtr;
use guardnn_crypto::dh::{DhGroup, DhKeyPair};
use guardnn_crypto::rng::TrngModel;
use guardnn_crypto::schnorr::{Signature, VerifyingKey};

/// Which end of the channel this instance is (fixes nonce domains so the
/// two directions never share a counter block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelEnd {
    /// The remote user.
    User,
    /// The accelerator.
    Device,
}

/// An authenticated-encryption channel bound to one session key.
#[derive(Clone, Debug)]
pub struct SecureChannel {
    enc: AesCtr,
    mac: Cmac,
    end: ChannelEnd,
    send_seq: u64,
    recv_seq: u64,
}

impl SecureChannel {
    /// Builds a channel from the two derived session keys.
    pub fn new(k_enc: [u8; 16], k_mac: [u8; 16], end: ChannelEnd) -> Self {
        Self {
            enc: AesCtr::new(&k_enc),
            mac: Cmac::new(&k_mac),
            end,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    fn direction_bit(end: ChannelEnd) -> u64 {
        match end {
            ChannelEnd::User => 0,
            ChannelEnd::Device => 1 << 63,
        }
    }

    /// Encrypt-then-MAC one message. Wire format:
    /// `seq (8) ‖ tag (16) ‖ ciphertext`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::CounterExhausted`] when the send sequence number
    /// reaches `u64::MAX`: sealing with it would leave the receive side no
    /// valid successor, so the channel refuses and must be re-keyed.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, GuardNnError> {
        let seq = self.send_seq;
        if seq == u64::MAX {
            return Err(GuardNnError::CounterExhausted {
                counter: "send_seq",
            });
        }
        self.send_seq += 1;
        let mut wire = Vec::with_capacity(24 + plaintext.len());
        wire.extend_from_slice(&seq.to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        wire.extend_from_slice(plaintext);
        let (head, ct) = wire.split_at_mut(24);
        // Unique counter blocks: (direction ‖ seq) as the version, message
        // offset as the block address.
        self.enc
            .apply_range(0, Self::direction_bit(self.end) | seq, ct);
        head[8..].copy_from_slice(&self.tag(self.end, seq, ct));
        Ok(wire)
    }

    /// Verifies and decrypts a message from the peer, enforcing **strictly
    /// sequential** sequence numbers: the message must carry exactly the
    /// next expected `seq`. A lower value is a replay; a higher value means
    /// the relaying host *dropped* at least one sealed message in between —
    /// both are authentication failures, so neither endpoint can be made to
    /// silently skip traffic. The tag is compared in constant time.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::ChannelAuth`] on malformed input, bad tag, replayed,
    /// dropped-past, or saturating (`u64::MAX`) sequence number.
    pub fn open(&mut self, wire: &[u8]) -> Result<Vec<u8>, GuardNnError> {
        let (seq, rest) = wire
            .split_first_chunk::<8>()
            .ok_or(GuardNnError::ChannelAuth)?;
        let (tag, ct) = rest
            .split_first_chunk::<16>()
            .ok_or(GuardNnError::ChannelAuth)?;
        let seq = u64::from_be_bytes(*seq);
        let peer = match self.end {
            ChannelEnd::User => ChannelEnd::Device,
            ChannelEnd::Device => ChannelEnd::User,
        };
        let tag_ok = guardnn_crypto::ct_eq(&self.tag(peer, seq, ct), tag);
        if !tag_ok || seq != self.recv_seq {
            return Err(GuardNnError::ChannelAuth);
        }
        // `seal` never emits u64::MAX, so an honest peer cannot reach this
        // guard — it pins the overflow of the successor computation against
        // any future relaxation of the send-side check.
        self.recv_seq = seq.checked_add(1).ok_or(GuardNnError::ChannelAuth)?;
        let mut pt = ct.to_vec();
        self.enc
            .apply_range(0, Self::direction_bit(peer) | seq, &mut pt);
        Ok(pt)
    }

    /// The CMAC of `from ‖ seq ‖ ciphertext`.
    fn tag(&self, from: ChannelEnd, seq: u64, ct: &[u8]) -> [u8; 16] {
        let from = match from {
            ChannelEnd::User => [0],
            ChannelEnd::Device => [1],
        };
        self.mac.compute_parts(&[&from, &seq.to_be_bytes(), ct])
    }
}

/// Derives the channel keys `(k_enc, k_mac)` from a DH exchange.
pub fn derive_channel_keys(dh: &DhKeyPair, peer: &BigUint) -> ([u8; 16], [u8; 16]) {
    let [k_enc, k_mac] = dh.derive_keys(peer, [b"guardnn k_session enc", b"guardnn k_session mac"]);
    (k_enc, k_mac)
}

/// The remote user: owns the model + input plaintext, authenticates the
/// device, and talks through the secure channel.
#[derive(Debug)]
pub struct RemoteUser {
    group: DhGroup,
    rng: TrngModel,
    manufacturer_pk: VerifyingKey,
    device_pk: Option<VerifyingKey>,
    device_id: Option<u64>,
    dh: Option<DhKeyPair>,
    channel: Option<SecureChannel>,
}

impl RemoteUser {
    /// Creates a user trusting `manufacturer_pk`, with deterministic
    /// randomness from `seed`.
    pub fn new(manufacturer_pk: VerifyingKey, seed: u64) -> Self {
        Self {
            group: manufacturer_pk.group().clone(),
            rng: TrngModel::from_seed(seed),
            manufacturer_pk,
            device_pk: None,
            device_id: None,
            dh: None,
            channel: None,
        }
    }

    /// Verifies a device certificate against the manufacturer key and
    /// pins the device public key.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::BadCertificate`] when verification fails.
    pub fn authenticate_device(&mut self, cert: &Certificate) -> Result<(), GuardNnError> {
        if !cert.verify(&self.manufacturer_pk) {
            return Err(GuardNnError::BadCertificate);
        }
        self.device_pk = Some(cert.device_key.clone());
        self.device_id = Some(cert.device_id);
        Ok(())
    }

    /// Starts the key exchange; returns the user's ephemeral public value
    /// for `InitSession`.
    pub fn begin_session(&mut self) -> BigUint {
        let dh = DhKeyPair::generate(&self.group, &mut self.rng);
        let public = dh.public_key().clone();
        self.dh = Some(dh);
        public
    }

    /// Completes the key exchange with the device's ephemeral public value.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::BadPublicKey`] on an invalid group element;
    /// [`GuardNnError::InvalidState`] if `begin_session` was not called.
    pub fn complete_session(&mut self, device_public: &BigUint) -> Result<(), GuardNnError> {
        let dh = self
            .dh
            .as_ref()
            .ok_or(GuardNnError::InvalidState("begin_session first"))?;
        if !self.group.validate_public(device_public) {
            return Err(GuardNnError::BadPublicKey);
        }
        let (k_enc, k_mac) = derive_channel_keys(dh, device_public);
        self.channel = Some(SecureChannel::new(k_enc, k_mac, ChannelEnd::User));
        Ok(())
    }

    /// Drops the live secure channel (if any) and any half-finished key
    /// exchange: until the next `begin_session`/`complete_session` pair
    /// installs fresh keys, every tensor operation fails with
    /// [`GuardNnError::NoSession`]. Migration calls this between devices —
    /// the old channel's device-side half died with the failed device, and
    /// discarding the user-side half eagerly turns any stale use into a
    /// loud typed error instead of an undecryptable message.
    pub fn reset_channel(&mut self) {
        self.channel = None;
        self.dh = None;
    }

    fn channel_mut(&mut self) -> Result<&mut SecureChannel, GuardNnError> {
        self.channel.as_mut().ok_or(GuardNnError::NoSession)
    }

    /// Encrypts an i32 tensor for `SetWeight` / `SetInput`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::NoSession`] before the session completes.
    pub fn encrypt_tensor(&mut self, data: &[i32]) -> Result<Vec<u8>, GuardNnError> {
        self.channel_mut()?.seal(&encode_i32(data))
    }

    /// Decrypts an `ExportOutput` message back to an i32 tensor.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::ChannelAuth`] on tamper/replay;
    /// [`GuardNnError::NoSession`] before the session completes.
    pub fn decrypt_tensor(&mut self, wire: &[u8]) -> Result<Vec<i32>, GuardNnError> {
        Ok(decode_i32(&self.channel_mut()?.open(wire)?))
    }

    /// Verifies a signed attestation report against the pinned device key
    /// and an independently recomputed expected report.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::BadAttestation`] when the signature or the expected
    /// report does not match; [`GuardNnError::InvalidState`] before
    /// [`RemoteUser::authenticate_device`].
    pub fn verify_attestation(
        &self,
        report: &AttestationReport,
        signature: &Signature,
        expected: &AttestationReport,
    ) -> Result<(), GuardNnError> {
        let pk = self
            .device_pk
            .as_ref()
            .ok_or(GuardNnError::InvalidState("authenticate first"))?;
        if report != expected
            || Some(report.device_id) != self.device_id
            || !pk.verify(&report.digest(), signature)
        {
            return Err(GuardNnError::BadAttestation);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel_pair() -> (SecureChannel, SecureChannel) {
        let group = DhGroup::oakley768();
        let mut r1 = TrngModel::from_seed(1);
        let mut r2 = TrngModel::from_seed(2);
        let a = DhKeyPair::generate(&group, &mut r1);
        let b = DhKeyPair::generate(&group, &mut r2);
        let (ka_enc, ka_mac) = derive_channel_keys(&a, b.public_key());
        let (kb_enc, kb_mac) = derive_channel_keys(&b, a.public_key());
        assert_eq!(ka_enc, kb_enc);
        (
            SecureChannel::new(ka_enc, ka_mac, ChannelEnd::User),
            SecureChannel::new(kb_enc, kb_mac, ChannelEnd::Device),
        )
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A fixed-seed exchange is pinned byte for byte: both public values,
    /// both channel keys and a signature. How the exponentiations and the
    /// key derivation are computed may change; these bytes may not.
    #[test]
    fn exchange_bytes_are_pinned() {
        use guardnn_crypto::schnorr::SigningKey;

        let group = DhGroup::oakley768();
        let mut rng = TrngModel::from_seed(0x5EED_2022);
        let user = DhKeyPair::generate(&group, &mut rng);
        let device = DhKeyPair::generate(&group, &mut rng);
        assert_eq!(
            hex(&user.public_key().to_bytes_be()),
            concat!(
                "71f2e24156f4024178453345b492efd3bfe40104748597391954ea6ad77eda6f",
                "858c9864a425f08701340dfaf06daba58bb9d5427c74f3a32ae8805aa3588dab",
                "e7cb087cda2b31c6c2ec522b4c6c4f547d70c8094b7800680f39b92fd4ec86cc",
            )
        );
        assert_eq!(
            hex(&device.public_key().to_bytes_be()),
            concat!(
                "db6835b3bb3f1e0a3ef49c2f1f2ba2da5c847d43f45086ac025b829713111d9c",
                "9a78450e218c8705d57b58b39c5430884a3884b6ea0e08c608442a7f05dc46d2",
                "b834f33b0dfcacdd3b7b34a8bcab3056965e40d6caf0348a1b8dae50fce14e62",
            )
        );
        let (k_enc, k_mac) = derive_channel_keys(&user, device.public_key());
        assert_eq!(hex(&k_enc), "520ed83f662fb8b1110f37db30b35cb9");
        assert_eq!(hex(&k_mac), "a2463a5259fbb5a5b09bc7458475b62d");
        assert_eq!(
            derive_channel_keys(&device, user.public_key()),
            (k_enc, k_mac)
        );

        let sk = SigningKey::generate(&group, &mut rng);
        let sig = sk.sign(b"guardnn attestation report", &mut rng);
        assert_eq!(
            hex(&sig.to_bytes()),
            concat!(
                "00000020b85a17249089de627f09345f6fef35ea4026f63b615b9234d7dd13d1",
                "d7b4c4e0000000604daeba9d0d04ec51fe177d9efd38a50fc69538d80316cffe",
                "9270b1fc763be67aa29b25d35078018242368db2676350ed3e7e9f2bad7d48f3",
                "bb181416d136cf9cfd7ade927e5aadee11aeea59060bdf224a067f036fad55a9",
                "5ce329c2ff92f836",
            )
        );
        assert!(sk
            .verifying_key()
            .verify(b"guardnn attestation report", &sig));

        // The 2048-bit group's 512-window table and 32-limb squaring.
        let group = DhGroup::modp2048();
        let mut rng = TrngModel::from_seed(0x5EED_2048);
        let a = DhKeyPair::generate(&group, &mut rng);
        let b = DhKeyPair::generate(&group, &mut rng);
        let (k_enc, k_mac) = derive_channel_keys(&a, b.public_key());
        assert_eq!(hex(&k_enc), "6d748dea5ea30f08a297be3a916fe408");
        assert_eq!(hex(&k_mac), "2111b31018fe9fae0501a60ff34133dc");
    }

    #[test]
    fn channel_round_trip_both_directions() {
        let (mut user, mut device) = channel_pair();
        let wire = user.seal(b"weights going in").unwrap();
        assert_eq!(device.open(&wire).unwrap(), b"weights going in");
        let wire = device.seal(b"logits coming out").unwrap();
        assert_eq!(user.open(&wire).unwrap(), b"logits coming out");
    }

    #[test]
    fn channel_hides_plaintext() {
        let (mut user, _) = channel_pair();
        let wire = user.seal(b"super secret tensor data!!").unwrap();
        assert!(!wire
            .windows(8)
            .any(|w| b"super secret tensor data!!".windows(8).any(|s| s == w)));
    }

    #[test]
    fn tampered_message_rejected() {
        let (mut user, mut device) = channel_pair();
        let mut wire = user.seal(b"payload").unwrap();
        *wire.last_mut().expect("nonempty") ^= 1;
        assert_eq!(device.open(&wire).unwrap_err(), GuardNnError::ChannelAuth);
    }

    #[test]
    fn replayed_message_rejected() {
        let (mut user, mut device) = channel_pair();
        let wire = user.seal(b"payload").unwrap();
        assert!(device.open(&wire).is_ok());
        assert_eq!(device.open(&wire).unwrap_err(), GuardNnError::ChannelAuth);
    }

    #[test]
    fn dropped_message_detected_by_receiver() {
        // A relaying host swallows m1 and forwards only m2: the receiver
        // must refuse m2 (seq 1 != expected 0) instead of silently
        // accepting the gap — and m1 still opens afterwards, so an honest
        // late delivery recovers the channel.
        let (mut user, mut device) = channel_pair();
        let m1 = user.seal(b"first").unwrap();
        let m2 = user.seal(b"second").unwrap();
        assert_eq!(device.open(&m2).unwrap_err(), GuardNnError::ChannelAuth);
        assert_eq!(device.open(&m1).unwrap(), b"first");
        assert_eq!(device.open(&m2).unwrap(), b"second");
    }

    #[test]
    fn reflected_message_rejected() {
        // A message sealed by the user must not open on the user side
        // (direction confusion).
        let (mut user, _) = channel_pair();
        let wire = user.seal(b"payload").unwrap();
        let mut user2 = user.clone();
        assert_eq!(user2.open(&wire).unwrap_err(), GuardNnError::ChannelAuth);
    }

    #[test]
    fn truncated_message_rejected() {
        let (mut user, mut device) = channel_pair();
        let wire = user.seal(b"payload").unwrap();
        assert_eq!(
            device.open(&wire[..10]).unwrap_err(),
            GuardNnError::ChannelAuth
        );
    }

    #[test]
    fn identical_plaintexts_distinct_ciphertexts() {
        let (mut user, _) = channel_pair();
        let w1 = user.seal(b"same message").unwrap();
        let w2 = user.seal(b"same message").unwrap();
        assert_ne!(w1[24..], w2[24..], "sequence number must randomize the pad");
    }

    #[test]
    fn max_seq_exhausts_channel_instead_of_wrapping() {
        // At send_seq == u64::MAX sealing must refuse: emitting seq MAX
        // would leave the receiver's successor computation to overflow and
        // restart the sequence space under the same key.
        let (mut user, mut device) = channel_pair();
        user.send_seq = u64::MAX - 1;
        device.recv_seq = u64::MAX - 1;
        let last = user.seal(b"last good message").unwrap();
        assert_eq!(device.open(&last).unwrap(), b"last good message");
        assert_eq!(device.recv_seq, u64::MAX);
        assert_eq!(
            user.seal(b"one too many").unwrap_err(),
            GuardNnError::CounterExhausted {
                counter: "send_seq"
            }
        );
    }

    #[test]
    fn forged_max_seq_rejected_without_overflow() {
        // Even a receiver parked at recv_seq == MAX (only reachable by a
        // peer that bypassed the seal guard) must not wrap recv_seq.
        let (mut user, mut device) = channel_pair();
        user.send_seq = u64::MAX;
        device.recv_seq = u64::MAX;
        // Bypass the seal guard the way a buggy peer would.
        let seq = u64::MAX;
        let mut ct = b"forged".to_vec();
        user.enc.apply_range(
            0,
            SecureChannel::direction_bit(ChannelEnd::User) | seq,
            &mut ct,
        );
        let mut wire = seq.to_be_bytes().to_vec();
        wire.extend_from_slice(&user.tag(ChannelEnd::User, seq, &ct));
        wire.extend_from_slice(&ct);
        assert_eq!(device.open(&wire).unwrap_err(), GuardNnError::ChannelAuth);
        assert_eq!(device.recv_seq, u64::MAX, "recv_seq must not wrap");
    }
}

#[cfg(test)]
mod user_tests {
    use super::*;
    use crate::error::GuardNnError;
    use guardnn_crypto::cert::Manufacturer;
    use guardnn_crypto::schnorr::SigningKey;

    fn maker() -> (Manufacturer, TrngModel) {
        let group = DhGroup::oakley768();
        let mut rng = TrngModel::from_seed(500);
        let m = Manufacturer::new(&group, &mut rng);
        (m, rng)
    }

    #[test]
    fn encrypt_before_session_fails() {
        let (m, _) = maker();
        let mut user = RemoteUser::new(m.public_key(), 1);
        assert_eq!(
            user.encrypt_tensor(&[1, 2, 3]).unwrap_err(),
            GuardNnError::NoSession
        );
        assert_eq!(
            user.decrypt_tensor(&[0u8; 32]).unwrap_err(),
            GuardNnError::NoSession
        );
    }

    #[test]
    fn complete_before_begin_fails() {
        let (m, _) = maker();
        let mut user = RemoteUser::new(m.public_key(), 2);
        let err = user.complete_session(&BigUint::from(2u64)).unwrap_err();
        assert_eq!(err, GuardNnError::InvalidState("begin_session first"));
    }

    #[test]
    fn complete_rejects_trivial_device_public() {
        let (m, _) = maker();
        let mut user = RemoteUser::new(m.public_key(), 3);
        let _ = user.begin_session();
        assert_eq!(
            user.complete_session(&BigUint::one()).unwrap_err(),
            GuardNnError::BadPublicKey
        );
    }

    #[test]
    fn attestation_requires_authentication_first() {
        let (m, mut rng) = maker();
        let user = RemoteUser::new(m.public_key(), 4);
        let sk = SigningKey::generate(&DhGroup::oakley768(), &mut rng);
        let report = crate::attestation::AttestationState::new().report(1);
        let sig = sk.sign(&report.digest(), &mut rng);
        assert_eq!(
            user.verify_attestation(&report, &sig, &report).unwrap_err(),
            GuardNnError::InvalidState("authenticate first")
        );
    }

    #[test]
    fn attestation_rejects_wrong_device_id() {
        // Certificate pins device id 7; a report claiming id 8 fails even
        // with a valid signature from the same key.
        let (m, mut rng) = maker();
        let group = DhGroup::oakley768();
        let device_sk = SigningKey::generate(&group, &mut rng);
        let cert = m.issue(7, &device_sk.verifying_key(), &mut rng);
        let mut user = RemoteUser::new(m.public_key(), 5);
        user.authenticate_device(&cert).expect("auth");
        let mut st = crate::attestation::AttestationState::new();
        st.record_input(b"x");
        let report = st.report(8); // wrong id
        let sig = device_sk.sign(&report.digest(), &mut rng);
        assert_eq!(
            user.verify_attestation(&report, &sig, &report).unwrap_err(),
            GuardNnError::BadAttestation
        );
    }
}
