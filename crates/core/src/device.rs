//! The trusted GuardNN accelerator device.
//!
//! Everything inside [`GuardNnDevice`] is inside the trust boundary: the
//! fused private key, session keys, on-chip version counters, and the
//! attestation state. Everything it stores in [`crate::memory::DeviceMemory`]
//! is ciphertext. The device is driven exclusively through
//! [`GuardNnDevice::execute`] with [`crate::isa::Instruction`]s from the
//! *untrusted* host — the implementation maintains the paper's invariant
//! that no instruction sequence can make it emit confidential plaintext.

use crate::attestation::AttestationState;
use crate::error::GuardNnError;
use crate::isa::{Instruction, Response};
use crate::memory::{decode_i32, encode_i32, DeviceMemory};
use crate::nn::forward_layer;
use crate::session::{derive_channel_keys, ChannelEnd, SecureChannel};
use guardnn_crypto::cert::{Certificate, Manufacturer};
use guardnn_crypto::dh::{DhGroup, DhKeyPair};
use guardnn_crypto::rng::TrngModel;
use guardnn_crypto::schnorr::{SigningKey, VerifyingKey};
use guardnn_memprot::functional::ProtectedMemory;
use guardnn_models::Network;

/// The most concurrent sessions the device's on-chip session table holds
/// (keys + counters + attestation state are on-chip resources; the paper's
/// host serves many users by cycling sessions through this table).
pub const MAX_SESSIONS: usize = 64;

/// Per-session device state, allocated by `InitSession` and destroyed by
/// `CloseSession`.
struct Session {
    channel: SecureChannel,
    integrity: bool,
    k_menc: [u8; 16],
    k_mac: Option<[u8; 16]>,
    attest: AttestationState,
    model: Option<Network>,
    memory: Option<DeviceMemory>,
    /// Plaintext length (elements) of the last-written output edge, so
    /// `ExportOutput` knows how much to read.
    output_elems: Option<usize>,
}

/// The GuardNN secure accelerator.
///
/// The device holds a table of up to [`MAX_SESSIONS`] live sessions, each
/// with its own channel keys, memory keys, counters, attestation chain,
/// and protected memory. Exactly one session is the *active* hardware
/// context at a time; `SelectSession` switches it (clearing the shared
/// `SetReadCTR` range table, which the host re-fills to resume).
pub struct GuardNnDevice {
    device_id: u64,
    sk: SigningKey,
    cert: Certificate,
    group: DhGroup,
    rng: TrngModel,
    sessions: std::collections::BTreeMap<u64, Session>,
    active: Option<u64>,
    next_session: u64,
}

impl std::fmt::Debug for GuardNnDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardNnDevice")
            .field("device_id", &self.device_id)
            .field("sessions", &self.sessions.len())
            .field("session_active", &self.active.is_some())
            .finish()
    }
}

impl GuardNnDevice {
    /// Provisions a device at the (trusted) manufacturer: fuses a fresh
    /// private key, issues the certificate, and returns the manufacturer's
    /// public key users pin as their root of trust.
    pub fn provision(device_id: u64, seed: u64) -> (Self, VerifyingKey) {
        let group = DhGroup::oakley768();
        let mut factory_rng = TrngModel::from_seed(seed ^ 0xFAC7_0000);
        let manufacturer = Manufacturer::new(&group, &mut factory_rng);
        let sk = SigningKey::generate(&group, &mut factory_rng);
        let cert = manufacturer.issue(device_id, &sk.verifying_key(), &mut factory_rng);
        let device = Self {
            device_id,
            sk,
            cert,
            group,
            rng: TrngModel::from_seed(seed),
            sessions: std::collections::BTreeMap::new(),
            active: None,
            next_session: 1,
        };
        (device, manufacturer.public_key())
    }

    /// The device id (public).
    pub fn device_id(&self) -> u64 {
        self.device_id
    }

    /// The id of the active hardware context, if any (public — the host
    /// selected it).
    pub fn active_session(&self) -> Option<u64> {
        self.active
    }

    /// Number of live sessions in the on-chip table (public).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Public layout query (addresses are not confidential): base address
    /// of feature edge `edge` for the loaded model.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::NoSession`] / [`GuardNnError::InvalidState`] if no
    /// model is loaded.
    pub fn feature_region(&self, edge: usize) -> Result<u64, GuardNnError> {
        let mem = self.memory_ref()?;
        Ok(mem.feature_region(edge))
    }

    /// Public layout query: base address of layer `layer`'s weight region.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::NoSession`] / [`GuardNnError::InvalidState`] if no
    /// model is loaded.
    pub fn weight_region(&self, layer: usize) -> Result<u64, GuardNnError> {
        Ok(self.memory_ref()?.weight_region(layer))
    }

    /// Public layout query: base address of gradient edge `edge`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::NoSession`] / [`GuardNnError::InvalidState`] if no
    /// model is loaded.
    pub fn grad_region(&self, edge: usize) -> Result<u64, GuardNnError> {
        Ok(self.memory_ref()?.grad_region(edge))
    }

    /// Public layout query: base address of layer `layer`'s weight-gradient
    /// region.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::NoSession`] / [`GuardNnError::InvalidState`] if no
    /// model is loaded.
    pub fn wgrad_region(&self, layer: usize) -> Result<u64, GuardNnError> {
        Ok(self.memory_ref()?.wgrad_region(layer))
    }

    /// Physical-attack surface: the protected DRAM. A real adversary can
    /// probe and rewrite DRAM at will; tests use this to mount tamper and
    /// replay attacks.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::NoSession`] / [`GuardNnError::InvalidState`] if no
    /// model is loaded.
    pub fn physical_dram_mut(&mut self) -> Result<&mut ProtectedMemory, GuardNnError> {
        let session = self.active_mut()?;
        let mem = session
            .memory
            .as_mut()
            .ok_or(GuardNnError::InvalidState("no model loaded"))?;
        Ok(mem.protected_memory_mut())
    }

    /// The active session's device memory, for the experiment hooks in
    /// [`crate::adversary`] (counter parking). Not part of the modeled
    /// hardware surface — a real device exposes no such path.
    pub(crate) fn active_memory_mut(&mut self) -> Result<&mut DeviceMemory, GuardNnError> {
        self.active_mut()?
            .memory
            .as_mut()
            .ok_or(GuardNnError::InvalidState("no model loaded"))
    }

    /// The active hardware context.
    fn active_mut(&mut self) -> Result<&mut Session, GuardNnError> {
        Self::active_of(&mut self.sessions, self.active)
    }

    /// Field-level variant of [`GuardNnDevice::active_mut`], so instruction
    /// handlers can hold the session while still using `self.rng`/`self.sk`.
    fn active_of(
        sessions: &mut std::collections::BTreeMap<u64, Session>,
        active: Option<u64>,
    ) -> Result<&mut Session, GuardNnError> {
        let sid = active.ok_or(GuardNnError::NoSession)?;
        sessions.get_mut(&sid).ok_or(GuardNnError::NoSession)
    }

    fn memory_ref(&self) -> Result<&DeviceMemory, GuardNnError> {
        let sid = self.active.ok_or(GuardNnError::NoSession)?;
        let session = self.sessions.get(&sid).ok_or(GuardNnError::NoSession)?;
        session
            .memory
            .as_ref()
            .ok_or(GuardNnError::InvalidState("no model loaded"))
    }

    /// Executes one instruction from the (untrusted) host.
    ///
    /// # Errors
    ///
    /// State errors ([`GuardNnError::NoSession`],
    /// [`GuardNnError::InvalidState`], [`GuardNnError::BadLayerIndex`]),
    /// channel failures ([`GuardNnError::ChannelAuth`]) and — with
    /// integrity enabled — [`GuardNnError::IntegrityViolation`]. None of
    /// the error paths reveals confidential data.
    pub fn execute(&mut self, instr: Instruction) -> Result<Response, GuardNnError> {
        // Attestation: record before execution (covers failed attempts the
        // same way hardware would squash them — only successful
        // instructions extend the chain; see below).
        match instr {
            Instruction::GetPk => Ok(Response::Pk(self.cert.clone())),
            Instruction::InitSession {
                user_public,
                enable_integrity,
            } => {
                if !self.group.validate_public(&user_public) {
                    return Err(GuardNnError::BadPublicKey);
                }
                // Refuse a full table BEFORE any key material is produced:
                // a rejected request must cost no modular exponentiation
                // and must not advance the device RNG stream.
                if self.sessions.len() >= MAX_SESSIONS {
                    return Err(GuardNnError::InvalidState("session table full"));
                }
                let dh = DhKeyPair::generate(&self.group, &mut self.rng);
                let device_public = dh.public_key().clone();
                let (k_enc, k_mac_chan) = derive_channel_keys(&dh, &user_public);
                // Fresh random memory keys per session.
                // lint:allow(panic-discipline) — next_bytes(16) returns exactly 16 bytes
                let k_menc: [u8; 16] = self.rng.next_bytes(16).try_into().expect("16 bytes");
                let k_mac = enable_integrity
                    // lint:allow(panic-discipline) — next_bytes(16) returns exactly 16 bytes
                    .then(|| self.rng.next_bytes(16).try_into().expect("16 bytes"));
                let session = self.next_session;
                self.next_session += 1;
                self.sessions.insert(
                    session,
                    Session {
                        channel: SecureChannel::new(k_enc, k_mac_chan, ChannelEnd::Device),
                        integrity: enable_integrity,
                        k_menc,
                        k_mac,
                        attest: AttestationState::new(),
                        model: None,
                        memory: None,
                        output_elems: None,
                    },
                );
                self.active = Some(session);
                Ok(Response::SessionInit {
                    session,
                    device_public,
                })
            }
            Instruction::SelectSession { session } => {
                let entry = self
                    .sessions
                    .get_mut(&session)
                    .ok_or(GuardNnError::UnknownSession { session })?;
                // The SetReadCTR range table is a shared hardware structure:
                // it does not survive a context switch, so the incoming
                // session resumes with an empty table and the host replays
                // its checkpointed read counters.
                if self.active != Some(session) {
                    if let Some(mem) = entry.memory.as_mut() {
                        mem.counters_mut().clear_read_ctrs();
                    }
                }
                self.active = Some(session);
                Ok(Response::Ack)
            }
            Instruction::CloseSession { session } => {
                self.sessions
                    .remove(&session)
                    .ok_or(GuardNnError::UnknownSession { session })?;
                if self.active == Some(session) {
                    self.active = None;
                }
                Ok(Response::Ack)
            }
            Instruction::LoadModel { network } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let mem = ProtectedMemory::new(&session.k_menc, session.k_mac);
                session.memory = Some(DeviceMemory::new(mem, &network));
                session
                    .attest
                    .record_instruction("LOADMODEL", network.name().as_bytes());
                session.model = Some(network);
                Ok(Response::Ack)
            }
            Instruction::SetWeight { layer, message } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let model = session
                    .model
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                if layer >= model.layers().len() {
                    return Err(GuardNnError::BadLayerIndex { layer });
                }
                let expected = model.layers()[layer].weight_elems() as usize;
                let plaintext = session.channel.open(&message)?;
                let weights = decode_i32(&plaintext);
                if weights.len() != expected {
                    return Err(GuardNnError::ShapeMismatch {
                        expected,
                        actual: weights.len(),
                    });
                }
                let mem = session
                    .memory
                    .as_mut()
                    .ok_or(GuardNnError::InvalidState("model without memory"))?;
                mem.counters_mut()
                    .next_weight()
                    .map_err(|e| GuardNnError::CounterExhausted { counter: e.counter })?;
                mem.write_weights(layer, &weights);
                if session.integrity {
                    session.attest.record_weights(&plaintext);
                    session
                        .attest
                        .record_instruction("SETWEIGHT", &(layer as u64).to_be_bytes());
                }
                Ok(Response::Ack)
            }
            Instruction::SetInput { message } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let model = session
                    .model
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                let expected = model
                    .layers()
                    .first()
                    .map_or(0, |l| l.input_elems() as usize);
                let plaintext = session.channel.open(&message)?;
                let input = decode_i32(&plaintext);
                if input.len() != expected {
                    return Err(GuardNnError::ShapeMismatch {
                        expected,
                        actual: input.len(),
                    });
                }
                let mem = session
                    .memory
                    .as_mut()
                    .ok_or(GuardNnError::InvalidState("model without memory"))?;
                mem.counters_mut()
                    .next_input()
                    .map_err(|e| GuardNnError::CounterExhausted { counter: e.counter })?;
                mem.write_features(0, &input);
                session.output_elems = None;
                if session.integrity {
                    session.attest.record_input(&plaintext);
                    session.attest.record_instruction("SETINPUT", &[]);
                }
                Ok(Response::Ack)
            }
            Instruction::SetReadCtr { start, end, vn } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let mem = session
                    .memory
                    .as_mut()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                if start >= end {
                    return Err(GuardNnError::InvalidState("empty SetReadCTR range"));
                }
                mem.counters_mut().set_read_ctr(start, end, vn);
                if session.integrity {
                    let mut op = Vec::with_capacity(24);
                    op.extend_from_slice(&start.to_be_bytes());
                    op.extend_from_slice(&end.to_be_bytes());
                    op.extend_from_slice(&vn.to_be_bytes());
                    session.attest.record_instruction("SETREADCTR", &op);
                }
                Ok(Response::Ack)
            }
            Instruction::Forward { layer } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let model = session
                    .model
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                if layer >= model.layers().len() {
                    return Err(GuardNnError::BadLayerIndex { layer });
                }
                let l = model.layers()[layer].clone();
                let mem = session
                    .memory
                    .as_mut()
                    .ok_or(GuardNnError::InvalidState("model without memory"))?;
                let input = mem.read_features(layer, l.input_elems() as usize)?;
                let weights = if l.has_weights() {
                    mem.read_weights(layer, l.weight_elems() as usize)?
                } else {
                    Vec::new()
                };
                let output = forward_layer(&l, &input, &weights)?;
                // Fresh VN for this pass, then write.
                mem.counters_mut()
                    .next_feature_write()
                    .map_err(|e| GuardNnError::CounterExhausted { counter: e.counter })?;
                mem.write_features(layer + 1, &output);
                session.output_elems = Some(output.len());
                if session.integrity {
                    session
                        .attest
                        .record_instruction("FORWARD", &(layer as u64).to_be_bytes());
                }
                Ok(Response::Ack)
            }
            Instruction::ExportOutput => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let model = session
                    .model
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                let elems = session
                    .output_elems
                    .ok_or(GuardNnError::InvalidState("no output computed"))?;
                let edge = model.layers().len();
                let mem = session
                    .memory
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("model without memory"))?;
                let output = mem.read_features(edge, elems)?;
                let bytes = encode_i32(&output);
                if session.integrity {
                    session.attest.record_output(&bytes);
                    session.attest.record_instruction("EXPORTOUTPUT", &[]);
                }
                // The ONLY data egress: ciphertext under the session key.
                Ok(Response::Output {
                    message: session.channel.seal(&bytes)?,
                })
            }
            Instruction::SignOutput => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let report = session.attest.report(self.device_id);
                let signature = self.sk.sign(&report.digest(), &mut self.rng);
                Ok(Response::Attestation { report, signature })
            }
            Instruction::SetOutputGrad { message } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let model = session
                    .model
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                let expected = model
                    .layers()
                    .last()
                    .map_or(0, |l| l.output_elems() as usize);
                let plaintext = session.channel.open(&message)?;
                let grad = decode_i32(&plaintext);
                if grad.len() != expected {
                    return Err(GuardNnError::ShapeMismatch {
                        expected,
                        actual: grad.len(),
                    });
                }
                let edge = model.layers().len();
                let mem = session
                    .memory
                    .as_mut()
                    .ok_or(GuardNnError::InvalidState("model without memory"))?;
                mem.counters_mut()
                    .next_feature_write()
                    .map_err(|e| GuardNnError::CounterExhausted { counter: e.counter })?;
                mem.write_grad(edge, &grad);
                if session.integrity {
                    session.attest.record_input(&plaintext);
                    session.attest.record_instruction("SETOUTPUTGRAD", &[]);
                }
                Ok(Response::Ack)
            }
            Instruction::Backward { layer } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let model = session
                    .model
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                if layer >= model.layers().len() {
                    return Err(GuardNnError::BadLayerIndex { layer });
                }
                let l = model.layers()[layer].clone();
                let mem = session
                    .memory
                    .as_mut()
                    .ok_or(GuardNnError::InvalidState("model without memory"))?;
                // Stashed forward input of this layer (host sets CTR_F,R).
                let input = mem.read_features(layer, l.input_elems() as usize)?;
                let weights = if l.has_weights() {
                    mem.read_weights(layer, l.weight_elems() as usize)?
                } else {
                    Vec::new()
                };
                let d_out = mem.read_grad(layer + 1, l.output_elems() as usize)?;
                let (d_in, d_w) = crate::nn::backward_layer(&l, &input, &weights, &d_out)?;
                mem.counters_mut()
                    .next_feature_write()
                    .map_err(|e| GuardNnError::CounterExhausted { counter: e.counter })?;
                mem.write_grad(layer, &d_in);
                if l.has_weights() {
                    mem.write_wgrad(layer, &d_w);
                }
                if session.integrity {
                    session
                        .attest
                        .record_instruction("BACKWARD", &(layer as u64).to_be_bytes());
                }
                Ok(Response::Ack)
            }
            Instruction::UpdateWeight { layer, lr_shift } => {
                let session = Self::active_of(&mut self.sessions, self.active)?;
                let model = session
                    .model
                    .as_ref()
                    .ok_or(GuardNnError::InvalidState("no model loaded"))?;
                if layer >= model.layers().len() {
                    return Err(GuardNnError::BadLayerIndex { layer });
                }
                let elems = model.layers()[layer].weight_elems() as usize;
                if elems == 0 {
                    return Err(GuardNnError::InvalidState("layer has no weights"));
                }
                let mem = session
                    .memory
                    .as_mut()
                    .ok_or(GuardNnError::InvalidState("model without memory"))?;
                let mut weights = mem.read_weights(layer, elems)?;
                let d_w = mem.read_wgrad(layer, elems)?;
                crate::nn::sgd_step(&mut weights, &d_w, lr_shift);
                // New weight epoch: bump CTR_W then write back (w* edge).
                mem.counters_mut()
                    .next_weight()
                    .map_err(|e| GuardNnError::CounterExhausted { counter: e.counter })?;
                mem.write_weights(layer, &weights);
                if session.integrity {
                    let mut op = Vec::with_capacity(12);
                    op.extend_from_slice(&(layer as u64).to_be_bytes());
                    op.extend_from_slice(&lr_shift.to_be_bytes());
                    session.attest.record_instruction("UPDATEWEIGHT", &op);
                }
                Ok(Response::Ack)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardnn_crypto::bigint::BigUint;

    #[test]
    fn get_pk_needs_no_session() {
        let (mut dev, maker_pk) = GuardNnDevice::provision(1, 10);
        let Response::Pk(cert) = dev.execute(Instruction::GetPk).expect("getpk") else {
            panic!("expected Pk response");
        };
        assert!(cert.verify(&maker_pk));
        assert_eq!(cert.device_id, 1);
    }

    #[test]
    fn instructions_require_session() {
        let (mut dev, _) = GuardNnDevice::provision(1, 10);
        for instr in [
            Instruction::ExportOutput,
            Instruction::SignOutput,
            Instruction::Forward { layer: 0 },
            Instruction::SetInput { message: vec![] },
        ] {
            assert_eq!(dev.execute(instr).unwrap_err(), GuardNnError::NoSession);
        }
    }

    #[test]
    fn session_table_instructions_reject_unknown_ids() {
        let (mut dev, _) = GuardNnDevice::provision(1, 10);
        assert_eq!(
            dev.execute(Instruction::SelectSession { session: 9 })
                .unwrap_err(),
            GuardNnError::UnknownSession { session: 9 }
        );
        assert_eq!(
            dev.execute(Instruction::CloseSession { session: 9 })
                .unwrap_err(),
            GuardNnError::UnknownSession { session: 9 }
        );
    }

    #[test]
    fn init_session_rejects_bad_public() {
        let (mut dev, _) = GuardNnDevice::provision(1, 10);
        let err = dev
            .execute(Instruction::InitSession {
                user_public: BigUint::one(),
                enable_integrity: false,
            })
            .unwrap_err();
        assert_eq!(err, GuardNnError::BadPublicKey);
    }

    #[test]
    fn garbage_channel_message_rejected() {
        let (mut dev, _) = GuardNnDevice::provision(1, 10);
        let mut rng = TrngModel::from_seed(5);
        let user_dh = DhKeyPair::generate(&DhGroup::oakley768(), &mut rng);
        dev.execute(Instruction::InitSession {
            user_public: user_dh.public_key().clone(),
            enable_integrity: false,
        })
        .expect("init");
        dev.execute(Instruction::LoadModel {
            network: crate::testnet::tiny_mlp(),
        })
        .expect("load");
        let err = dev
            .execute(Instruction::SetInput {
                message: vec![0u8; 64],
            })
            .unwrap_err();
        assert_eq!(err, GuardNnError::ChannelAuth);
    }
}

#[cfg(test)]
mod training_tests {
    use super::*;
    use crate::isa::Instruction;
    use guardnn_crypto::bigint::BigUint;

    fn session_with_model() -> (GuardNnDevice, crate::session::RemoteUser) {
        let (mut device, maker_pk) = GuardNnDevice::provision(31, 71);
        let mut user = crate::session::RemoteUser::new(maker_pk, 32);
        let Ok(Response::Pk(cert)) = device.execute(Instruction::GetPk) else {
            panic!("GetPk failed")
        };
        user.authenticate_device(&cert).expect("auth");
        let up = user.begin_session();
        let Ok(Response::SessionInit { device_public, .. }) =
            device.execute(Instruction::InitSession {
                user_public: up,
                enable_integrity: true,
            })
        else {
            panic!("InitSession failed")
        };
        user.complete_session(&device_public).expect("complete");
        device
            .execute(Instruction::LoadModel {
                network: crate::testnet::tiny_mlp(),
            })
            .expect("load");
        (device, user)
    }

    #[test]
    fn set_output_grad_validates_shape() {
        let (mut device, mut user) = session_with_model();
        // tiny_mlp output has 2 elements; send 3.
        let msg = user.encrypt_tensor(&[1, 2, 3]).expect("enc");
        let err = device
            .execute(Instruction::SetOutputGrad { message: msg })
            .unwrap_err();
        assert_eq!(
            err,
            GuardNnError::ShapeMismatch {
                expected: 2,
                actual: 3
            }
        );
    }

    #[test]
    fn backward_validates_layer_index() {
        let (mut device, _user) = session_with_model();
        let err = device
            .execute(Instruction::Backward { layer: 5 })
            .unwrap_err();
        assert_eq!(err, GuardNnError::BadLayerIndex { layer: 5 });
        let err = device
            .execute(Instruction::UpdateWeight {
                layer: 9,
                lr_shift: 1,
            })
            .unwrap_err();
        assert_eq!(err, GuardNnError::BadLayerIndex { layer: 9 });
    }

    #[test]
    fn init_session_requires_valid_group_element() {
        let (mut device, _) = GuardNnDevice::provision(33, 73);
        for bad in [BigUint::zero(), BigUint::one()] {
            let err = device
                .execute(Instruction::InitSession {
                    user_public: bad,
                    enable_integrity: false,
                })
                .unwrap_err();
            assert_eq!(err, GuardNnError::BadPublicKey);
        }
    }

    #[test]
    fn set_read_ctr_rejects_empty_range() {
        let (mut device, _user) = session_with_model();
        let err = device
            .execute(Instruction::SetReadCtr {
                start: 0x2000,
                end: 0x2000,
                vn: 1,
            })
            .unwrap_err();
        assert_eq!(err, GuardNnError::InvalidState("empty SetReadCTR range"));
    }

    #[test]
    fn counter_exhaustion_surfaces_from_set_input() {
        use guardnn_memprot::vn::VersionCounters;
        let (mut device, mut user) = session_with_model();
        let sid = device.active.expect("active session");
        let mem = device
            .sessions
            .get_mut(&sid)
            .expect("live session")
            .memory
            .as_mut()
            .expect("model implies memory");
        // Park CTR_IN at its maximum: the next SetInput would wrap and
        // reuse a VN, so the device must refuse instead.
        *mem.counters_mut() = VersionCounters::with_raw(u32::MAX, 0, 0);
        let msg = user.encrypt_tensor(&[1, 2, 3, 4, 5, 6, 7, 8]).expect("enc");
        assert_eq!(
            device
                .execute(Instruction::SetInput { message: msg })
                .unwrap_err(),
            GuardNnError::CounterExhausted { counter: "CTR_IN" }
        );
    }

    #[test]
    fn counter_exhaustion_surfaces_from_forward() {
        use guardnn_memprot::vn::VersionCounters;
        let (mut device, mut user) = session_with_model();
        // Real weights and a real input, so Forward reaches the counter
        // bump (reads succeed) and fails only there.
        for (layer, w) in crate::testnet::tiny_mlp_weights(1).iter().enumerate() {
            let message = user.encrypt_tensor(w).expect("enc");
            device
                .execute(Instruction::SetWeight { layer, message })
                .expect("setw");
        }
        let message = user.encrypt_tensor(&[1, 2, 3, 4, 5, 6, 7, 8]).expect("enc");
        device
            .execute(Instruction::SetInput { message })
            .expect("seti");
        let sid = device.active.expect("active session");
        let mem = device
            .sessions
            .get_mut(&sid)
            .expect("live session")
            .memory
            .as_mut()
            .expect("model implies memory");
        // Keep CTR_IN and CTR_W as the protocol left them; saturate only
        // CTR_F,W (with_raw clears the read table, so re-declare edge 0).
        let (ctr_in, _, ctr_w) = mem.counters().raw();
        *mem.counters_mut() = VersionCounters::with_raw(ctr_in, u32::MAX, ctr_w);
        let base = mem.feature_region(0);
        mem.counters_mut()
            .set_read_ctr(base, base + 4096, (ctr_in as u64) << 32);
        assert_eq!(
            device
                .execute(Instruction::Forward { layer: 0 })
                .unwrap_err(),
            GuardNnError::CounterExhausted { counter: "CTR_F,W" }
        );
    }

    #[test]
    fn device_debug_hides_secrets() {
        let (device, _user) = session_with_model();
        let dbg = format!("{device:?}");
        assert!(dbg.contains("session_active"));
        assert!(!dbg.to_lowercase().contains("key"));
    }
}
