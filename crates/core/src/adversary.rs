//! Adversary models: scripted fault injection against live sessions.
//!
//! The threat model (§II-A) gives the adversary two levers: the untrusted
//! host relays every sealed protocol message, and off-chip DRAM is fully
//! under attacker control. This module scripts both as *data*, so the
//! security suites, the chaos matrix harness, and the examples all mount
//! the same attacks from the same definitions:
//!
//! * [`FaultPlan`] / [`MessageTap`] — a deterministic (optionally
//!   seed-derived) fault in the sealed-message stream: drop, replay,
//!   reorder, or corrupt one message in flight. The channel's strict
//!   sequence discipline turns every one of these into
//!   [`GuardNnError::ChannelAuth`].
//! * [`PhysicalFault`] / [`mount_physical_attack`] — a scripted DRAM
//!   attack (ciphertext bit-flip or stale-chunk replay) against an
//!   established inference session, reporting an [`AttackOutcome`]:
//!   *detected* (integrity enabled) or *garbled, never disclosed*
//!   (confidentiality only).
//! * primitives ([`tamper_bit`], [`snapshot_chunk`], [`replay_chunk`],
//!   [`probe_dram`], [`park_counters`]) for bespoke scenarios, and the
//!   malicious host's own lever: [`set_read_ctr_for_edge`] /
//!   [`set_read_ctr_for_grad_edge`] declare a read counter of its choosing.
//!   None of them can break confidentiality.
//!
//! # Example: one scripted attack, both protection levels
//!
//! ```
//! use guardnn::adversary::{mount_physical_attack, AttackOutcome, PhysicalFault};
//! use guardnn::device::GuardNnDevice;
//! use guardnn::server::DeviceServer;
//! use guardnn::session::RemoteUser;
//! use guardnn::testnet;
//!
//! # fn main() -> Result<(), guardnn::GuardNnError> {
//! let net = testnet::tiny_mlp();
//! let weights = testnet::tiny_mlp_weights(1);
//! let input = vec![9, 8, 7, 6, 5, 4, 3, 2];
//! for integrity in [true, false] {
//!     let (device, maker_pk) = GuardNnDevice::provision(1, 7);
//!     let mut server = DeviceServer::new(device);
//!     let mut user = RemoteUser::new(maker_pk, 3);
//!     let sid = server.connect(&mut user)?;
//!     server.establish(sid, &mut user, integrity)?;
//!     server.load_model(sid, &mut user, &net, &weights)?;
//!     let outcome = mount_physical_attack(
//!         &mut server,
//!         sid,
//!         &mut user,
//!         &net,
//!         &input,
//!         PhysicalFault::FeatureBitFlip { edge: 0 },
//!     )?;
//!     match outcome {
//!         AttackOutcome::Detected(e) => assert!(integrity, "{e}"),
//!         AttackOutcome::Garbled { output, reference } => {
//!             assert!(!integrity);
//!             assert_ne!(output, reference, "tamper must not go unnoticed AND unfelt");
//!         }
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::device::GuardNnDevice;
use crate::error::GuardNnError;
use crate::isa::{Instruction, Response};
use crate::server::{edge_extent, DeviceServer, SessionId};
use crate::session::RemoteUser;
use guardnn_memprot::vn::VersionCounters;
use guardnn_models::Network;

// ---------------------------------------------------------------------------
// Sealed-message stream faults (the malicious relay).
// ---------------------------------------------------------------------------

/// One fault a malicious relay applies to a stream of sealed messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Swallow the message: it never reaches the device.
    Drop,
    /// Deliver the message, then deliver an identical copy again.
    Replay,
    /// Hold the message and deliver its successor first.
    Reorder,
    /// Flip one bit of the wire bytes (`byte` is reduced modulo the wire
    /// length, so any value addresses a real byte).
    Corrupt {
        /// Index of the wire byte whose low bit is flipped.
        byte: usize,
    },
}

/// A deterministic injection point in a sealed-message stream: `fault`
/// strikes the message at index `at` (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// What the relay does.
    pub fault: Fault,
    /// Which message (by stream index) it happens to.
    pub at: usize,
}

impl FaultPlan {
    /// Derives a plan from a seed, valid for a stream of `stream_len`
    /// messages: the fault kind and position are drawn from a splitmix64
    /// stream, and positions are constrained so the fault is always
    /// *detectable* (a dropped or held message has a successor whose
    /// out-of-sequence delivery trips the channel check).
    ///
    /// # Panics
    ///
    /// Panics when `stream_len < 2` — no plan can both fire and be
    /// detected on a shorter stream.
    pub fn from_seed(seed: u64, stream_len: usize) -> FaultPlan {
        assert!(
            stream_len >= 2,
            "need at least 2 messages, got {stream_len}"
        );
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let fault = match next() % 4 {
            0 => Fault::Drop,
            1 => Fault::Replay,
            2 => Fault::Reorder,
            _ => Fault::Corrupt {
                byte: next() as usize,
            },
        };
        let at = match fault {
            // Drop/Reorder need a successor message to surface.
            Fault::Drop | Fault::Reorder => next() as usize % (stream_len - 1),
            Fault::Replay | Fault::Corrupt { .. } => next() as usize % stream_len,
        };
        FaultPlan { fault, at }
    }
}

/// A man-in-the-middle over the host's sealed-message relay. Feed each
/// outbound wire message through [`MessageTap::relay`] and deliver
/// whatever comes back, in order — zero, one, or two messages per call,
/// per the [`FaultPlan`].
#[derive(Debug, Default)]
pub struct MessageTap {
    plan: Option<FaultPlan>,
    idx: usize,
    held: Option<Vec<u8>>,
    fired: bool,
}

impl MessageTap {
    /// A tap executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan: Some(plan),
            ..Self::default()
        }
    }

    /// A clean pass-through tap (the untampered twin of the same run).
    pub fn clean() -> Self {
        Self::default()
    }

    /// Whether the plan's fault has been applied yet.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Passes one sealed message through the adversary. Returns the
    /// messages to actually deliver to the device, in order.
    pub fn relay(&mut self, wire: Vec<u8>) -> Vec<Vec<u8>> {
        let idx = self.idx;
        self.idx += 1;
        if let Some(held) = self.held.take() {
            // A reordered predecessor is waiting: deliver the successor
            // first, then the held message.
            return vec![wire, held];
        }
        match self.plan {
            Some(FaultPlan { fault, at }) if at == idx => {
                self.fired = true;
                match fault {
                    Fault::Drop => Vec::new(),
                    Fault::Replay => vec![wire.clone(), wire],
                    Fault::Reorder => {
                        self.held = Some(wire);
                        Vec::new()
                    }
                    Fault::Corrupt { byte } => {
                        let mut w = wire;
                        let b = byte % w.len();
                        w[b] ^= 0x01;
                        vec![w]
                    }
                }
            }
            _ => vec![wire],
        }
    }
}

/// Seals `inputs` through `user`'s channel and delivers them as
/// `SetInput`s through a [`MessageTap`] running `plan`. Returns the
/// number of messages the device accepted before the first rejection,
/// and the rejection itself — [`GuardNnError::ChannelAuth`] for every
/// valid plan, because the channel sequence numbers are strict.
///
/// # Errors
///
/// Sealing failures propagate (e.g. counter exhaustion in `user`'s
/// channel).
pub fn run_tampered_input_stream(
    device: &mut GuardNnDevice,
    user: &mut RemoteUser,
    inputs: &[Vec<i32>],
    plan: FaultPlan,
) -> Result<(usize, Option<GuardNnError>), GuardNnError> {
    let mut tap = MessageTap::new(plan);
    let mut accepted = 0usize;
    for input in inputs {
        let wire = user.encrypt_tensor(input)?;
        for message in tap.relay(wire) {
            match device.execute(Instruction::SetInput { message }) {
                Ok(_) => accepted += 1,
                Err(e) => return Ok((accepted, Some(e))),
            }
        }
    }
    Ok((accepted, None))
}

// ---------------------------------------------------------------------------
// Physical DRAM faults.
// ---------------------------------------------------------------------------

/// One scripted physical attack on the device's DRAM image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhysicalFault {
    /// Flip one ciphertext bit in feature edge `edge`.
    FeatureBitFlip {
        /// Target feature edge (0 = input, `layers` = output).
        edge: usize,
    },
    /// Snapshot feature edge `edge`, let the device overwrite it under a
    /// newer version number, then put the stale ciphertext (and its
    /// matching stale MAC) back. Requires `edge >= 1` (the producing
    /// layer is re-run to force the overwrite).
    StaleFeatureReplay {
        /// Target feature edge.
        edge: usize,
    },
    /// Flip one ciphertext bit in layer `layer`'s weight region.
    WeightBitFlip {
        /// Target layer.
        layer: usize,
    },
}

/// What a [`mount_physical_attack`] run observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The device refused: integrity verification caught the tamper.
    Detected(GuardNnError),
    /// The device computed through the tamper (no integrity): `output`
    /// is garbage, but `reference` (the honest result) never leaked.
    Garbled {
        /// The decrypted, corrupted output.
        output: Vec<i32>,
        /// The honest output of the same input, for the caller's
        /// `output != reference` assertion.
        reference: Vec<i32>,
    },
}

impl AttackOutcome {
    /// `true` for [`AttackOutcome::Detected`].
    pub fn detected(&self) -> bool {
        matches!(self, AttackOutcome::Detected(_))
    }
}

/// Mounts `fault` against a session with its model loaded: runs one
/// honest inference of `input` through `server` (populating DRAM and the
/// session's version-number log), applies the fault, then honestly
/// re-runs the forward pass from the tampered point on, straight on the
/// device, and reports whether the device detected the attack or merely
/// garbled. The session's counter mirror is stale afterwards: it is good
/// only for teardown.
///
/// # Errors
///
/// Protocol and state errors other than the expected
/// [`GuardNnError::IntegrityViolation`] propagate;
/// [`GuardNnError::InvalidState`] for a fault edge/layer outside the
/// model.
pub fn mount_physical_attack(
    server: &mut DeviceServer,
    session: SessionId,
    user: &mut RemoteUser,
    network: &Network,
    input: &[i32],
    fault: PhysicalFault,
) -> Result<AttackOutcome, GuardNnError> {
    let reference = server.infer(session, user, input)?;
    let (Some(vns), Some(mut ctrs)) = (server.edge_vns(session), server.counters(session)) else {
        return Err(GuardNnError::UnknownSession {
            session: session.raw(),
        });
    };
    let mut vns = vns.to_vec();
    let device = server.device_mut();
    let layers = network.layers().len();

    let start_layer = match fault {
        PhysicalFault::FeatureBitFlip { edge } => {
            if edge > layers {
                return Err(GuardNnError::InvalidState("fault edge outside the model"));
            }
            let addr = device.feature_region(edge)?;
            device.physical_dram_mut()?.tamper(addr, 0x01);
            edge
        }
        PhysicalFault::StaleFeatureReplay { edge } => {
            if edge == 0 || edge > layers {
                return Err(GuardNnError::InvalidState(
                    "stale-replay edge must be produced by a layer",
                ));
            }
            let addr = device.feature_region(edge)?;
            let stale = device.physical_dram_mut()?.snapshot_chunk(addr);
            // Re-run the producing layer: the device overwrites the edge
            // under a fresh CTR_F,W...
            set_read_ctr_for_edge(device, network, edge - 1, vns[edge - 1])?;
            device.execute(Instruction::Forward { layer: edge - 1 })?;
            ctrs.on_forward()?;
            vns[edge] = ctrs.current_write_vn();
            // ...and the adversary puts the old bytes (and old MAC) back.
            device.physical_dram_mut()?.replay_chunk(addr, stale);
            edge
        }
        PhysicalFault::WeightBitFlip { layer } => {
            if layer >= layers {
                return Err(GuardNnError::InvalidState("fault layer outside the model"));
            }
            let addr = device.weight_region(layer)?;
            device.physical_dram_mut()?.tamper(addr, 0x01);
            layer
        }
    };

    // Honest re-read from the tampered point on: the first instruction
    // that touches the tampered chunk either detects or garbles.
    for layer in start_layer..layers {
        set_read_ctr_for_edge(device, network, layer, vns[layer])?;
        match device.execute(Instruction::Forward { layer }) {
            Ok(_) => {
                ctrs.on_forward()?;
                vns[layer + 1] = ctrs.current_write_vn();
            }
            Err(e @ GuardNnError::IntegrityViolation { .. }) => {
                return Ok(AttackOutcome::Detected(e))
            }
            Err(e) => return Err(e),
        }
    }
    set_read_ctr_for_edge(device, network, layers, vns[layers])?;
    let message = match device.execute(Instruction::ExportOutput) {
        Ok(Response::Output { message }) => message,
        Ok(_) => {
            return Err(GuardNnError::InvalidState(
                "unexpected response to ExportOutput",
            ))
        }
        Err(e @ GuardNnError::IntegrityViolation { .. }) => return Ok(AttackOutcome::Detected(e)),
        Err(e) => return Err(e),
    };
    let output = user.decrypt_tensor(&message)?;
    Ok(AttackOutcome::Garbled { output, reference })
}

// ---------------------------------------------------------------------------
// Primitives for bespoke scenarios.
// ---------------------------------------------------------------------------

/// Issues `SetReadCTR` covering feature edge `edge` of `network` with a
/// version number of the host's choosing: a wrong `vn` garbles the read
/// (or, with integrity, faults it) but never discloses plaintext.
///
/// # Errors
///
/// Propagates device errors.
pub fn set_read_ctr_for_edge(
    device: &mut GuardNnDevice,
    network: &Network,
    edge: usize,
    vn: u64,
) -> Result<(), GuardNnError> {
    let start = device.feature_region(edge)?;
    device.execute(Instruction::SetReadCtr {
        start,
        end: start + edge_extent(network, edge),
        vn,
    })?;
    Ok(())
}

/// Issues `SetReadCTR` covering gradient edge `edge` of `network` (see
/// [`set_read_ctr_for_edge`]).
///
/// # Errors
///
/// Propagates device errors.
pub fn set_read_ctr_for_grad_edge(
    device: &mut GuardNnDevice,
    network: &Network,
    edge: usize,
    vn: u64,
) -> Result<(), GuardNnError> {
    let start = device.grad_region(edge)?;
    device.execute(Instruction::SetReadCtr {
        start,
        end: start + edge_extent(network, edge),
        vn,
    })?;
    Ok(())
}

/// Flips one ciphertext bit in the device's DRAM at `addr`.
///
/// # Errors
///
/// Propagates device state errors (no session / no model).
pub fn tamper_bit(device: &mut GuardNnDevice, addr: u64) -> Result<(), GuardNnError> {
    device.physical_dram_mut()?.tamper(addr, 0x01);
    Ok(())
}

/// Snapshot of one DRAM chunk (ciphertext + MAC), for replay.
pub struct ChunkSnapshot {
    addr: u64,
    data: (Vec<u8>, Option<[u8; 16]>),
}

/// Records chunk `addr` (512-byte aligned region) for a later replay.
///
/// # Errors
///
/// Propagates device state errors.
pub fn snapshot_chunk(
    device: &mut GuardNnDevice,
    addr: u64,
) -> Result<ChunkSnapshot, GuardNnError> {
    let mem = device.physical_dram_mut()?;
    Ok(ChunkSnapshot {
        addr,
        data: mem.snapshot_chunk(addr),
    })
}

/// Replays a previously captured chunk (stale ciphertext + its matching
/// stale MAC) into DRAM.
///
/// # Errors
///
/// Propagates device state errors.
pub fn replay_chunk(
    device: &mut GuardNnDevice,
    snapshot: ChunkSnapshot,
) -> Result<(), GuardNnError> {
    device
        .physical_dram_mut()?
        .replay_chunk(snapshot.addr, snapshot.data);
    Ok(())
}

/// Reads raw DRAM — what a bus probe sees. Used by tests to assert that
/// plaintext never appears off chip.
///
/// # Errors
///
/// Propagates device state errors.
pub fn probe_dram(
    device: &mut GuardNnDevice,
    addr: u64,
    len: usize,
) -> Result<Vec<u8>, GuardNnError> {
    Ok(device.physical_dram_mut()?.raw(addr, len))
}

/// Experiment hook: parks the active session's on-chip version counters
/// at chosen raw values, so exhaustion boundaries are reachable without
/// 2³² protocol steps. Clears the `SetReadCTR` range table (a real
/// `with_raw` epoch change would too) — re-declare read counters before
/// the next read. Not part of the modeled hardware surface.
///
/// # Errors
///
/// Propagates device state errors (no session / no model).
pub fn park_counters(
    device: &mut GuardNnDevice,
    ctr_in: u32,
    ctr_fw: u32,
    ctr_w: u32,
) -> Result<(), GuardNnError> {
    let mem = device.active_memory_mut()?;
    *mem.counters_mut() = VersionCounters::with_raw(ctr_in, ctr_fw, ctr_w);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet;

    /// A served session with weights loaded and one inference run.
    fn loaded_session(integrity: bool) -> (DeviceServer, SessionId, RemoteUser) {
        let (device, maker_pk) = GuardNnDevice::provision(5, 77);
        let mut server = DeviceServer::new(device);
        let mut user = RemoteUser::new(maker_pk, 3);
        let sid = server.connect(&mut user).expect("connect");
        server
            .establish(sid, &mut user, integrity)
            .expect("establish");
        server
            .load_model(
                sid,
                &mut user,
                &testnet::tiny_mlp(),
                &testnet::tiny_mlp_weights(1),
            )
            .expect("load");
        server
            .infer(sid, &mut user, &[9, 8, 7, 6, 5, 4, 3, 2])
            .expect("inference");
        (server, sid, user)
    }

    #[test]
    fn probe_sees_no_plaintext_weights() {
        let (mut server, ..) = loaded_session(false);
        let weights = testnet::tiny_mlp_weights(1);
        let mut wb = Vec::new();
        for v in &weights[0] {
            wb.extend_from_slice(&v.to_le_bytes());
        }
        // Probe the whole first MB of DRAM.
        let raw = probe_dram(server.device_mut(), 0, 1 << 20).expect("probe");
        assert!(
            !raw.windows(wb.len().min(16))
                .any(|w| wb.windows(w.len()).any(|s| s == w)),
            "weight bytes visible in DRAM"
        );
    }

    #[test]
    fn scripted_attacks_detected_with_integrity() {
        let net = testnet::tiny_mlp();
        let input = vec![9, 8, 7, 6, 5, 4, 3, 2];
        for fault in [
            PhysicalFault::FeatureBitFlip { edge: 0 },
            PhysicalFault::FeatureBitFlip { edge: 2 },
            PhysicalFault::StaleFeatureReplay { edge: 1 },
            PhysicalFault::WeightBitFlip { layer: 1 },
        ] {
            let (mut server, sid, mut user) = loaded_session(true);
            let outcome = mount_physical_attack(&mut server, sid, &mut user, &net, &input, fault)
                .expect("attack script");
            match outcome {
                AttackOutcome::Detected(GuardNnError::IntegrityViolation { .. }) => {}
                other => panic!("{fault:?} not detected: {other:?}"),
            }
        }
    }

    #[test]
    fn scripted_attacks_garble_without_integrity() {
        let net = testnet::tiny_mlp();
        let input = vec![9, 8, 7, 6, 5, 4, 3, 2];
        for fault in [
            PhysicalFault::FeatureBitFlip { edge: 0 },
            PhysicalFault::StaleFeatureReplay { edge: 1 },
            PhysicalFault::WeightBitFlip { layer: 0 },
        ] {
            let (mut server, sid, mut user) = loaded_session(false);
            let outcome = mount_physical_attack(&mut server, sid, &mut user, &net, &input, fault)
                .expect("attack script");
            match outcome {
                AttackOutcome::Garbled { output, reference } => {
                    assert_ne!(output, reference, "{fault:?} must corrupt the computation");
                }
                other => panic!("{fault:?} unexpectedly detected: {other:?}"),
            }
        }
    }

    #[test]
    fn fault_plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed, 5);
            let b = FaultPlan::from_seed(seed, 5);
            assert_eq!(a, b);
            match a.fault {
                Fault::Drop | Fault::Reorder => assert!(a.at < 4),
                Fault::Replay | Fault::Corrupt { .. } => assert!(a.at < 5),
            }
        }
    }

    #[test]
    fn tampered_stream_always_trips_channel_auth() {
        let inputs: Vec<Vec<i32>> = (0..4).map(|i| vec![i; 8]).collect();
        for seed in 0..16u64 {
            let plan = FaultPlan::from_seed(seed, inputs.len());
            let (mut server, _, mut user) = loaded_session(true);
            let (_, err) = run_tampered_input_stream(server.device_mut(), &mut user, &inputs, plan)
                .expect("stream runs");
            assert_eq!(err, Some(GuardNnError::ChannelAuth), "plan {plan:?}");
        }
    }

    #[test]
    fn clean_tap_is_a_pass_through() {
        let mut tap = MessageTap::clean();
        for i in 0..5u8 {
            let delivered = tap.relay(vec![i]);
            assert_eq!(delivered, vec![vec![i]]);
        }
        assert!(!tap.fired());
    }

    #[test]
    fn parked_counters_exhaust_on_next_input() {
        let (mut server, _, mut user) = loaded_session(true);
        park_counters(server.device_mut(), u32::MAX, 0, 0).expect("park");
        let msg = user.encrypt_tensor(&[1, 2, 3, 4, 5, 6, 7, 8]).expect("enc");
        assert_eq!(
            server
                .device_mut()
                .execute(Instruction::SetInput { message: msg })
                .unwrap_err(),
            GuardNnError::CounterExhausted { counter: "CTR_IN" }
        );
    }
}
