//! Multi-session batched device serving: the host-side [`DeviceServer`].
//!
//! The paper's deployment model (§II) is an *untrusted* host scheduling
//! ciphertext-only instructions on one accelerator for many remote users.
//! [`DeviceServer`] is that scheduler, and the host's only one: it owns
//! the [`GuardNnDevice`] and multiplexes N independent user sessions over
//! it, keeping per-session host state (counter mirror, protocol phase,
//! `SetReadCTR` checkpoint) in a session table keyed by [`SessionId`]. A
//! *malicious* host's levers (wrong read counters, DRAM tampering) are the
//! [`crate::adversary`] functions, which act on
//! [`DeviceServer::device_mut`].
//!
//! Each session's protocol is an explicit state machine:
//!
//! ```text
//!             connect            establish           load_model
//! (no entry) ────────► Provisioned ────────► Established ────────► ModelLoaded
//!                                                                   │  ▲  │ ▲
//!                                                       begin_infer │  │  │ │ train_step
//!                                                                   ▼  │  ▼ │ (returns)
//!                                                              Inferring  Training
//!                                                          (last job exported)
//! ```
//!
//! One transition is terminal and reachable from every post-`connect`
//! state: [`DeviceServer::fail_session`] moves a session to
//! [`SessionState::Failed`] when its device dies out from under it.
//! A failed session refuses further work with a typed error; the fleet
//! supervisor ([`crate::fleet`]) re-establishes its sessions on a
//! healthy device instead of resuming them in place.
//!
//! Inference runs as a queue of per-input jobs advanced one *instruction*
//! at a time by [`DeviceServer::step`], so the host can interleave
//! instructions from different users at will. When a session is preempted
//! (another session's instruction ran on the device), the shared hardware
//! `SetReadCTR` range table is lost; the server checkpoints every range it
//! has issued since the last compute instruction and replays it after
//! `SelectSession` — resuming the session exactly where it stopped.
//!
//! [`DeviceServer::infer_batch`] is the ISA-level batching entry point:
//! one established session imports its weights once, then pipelines
//! `SetInput` / `SetReadCTR` / `Forward` / `ExportOutput` across the whole
//! batch — key exchange and weight import are amortized over N inputs
//! (the per-instruction cost model lives in [`crate::perf`]). The server
//! counts every instruction it issues ([`InstructionStats`]), which is how
//! the tests pin the amortized instruction budget.

use std::collections::{BTreeMap, VecDeque};

use crate::device::{GuardNnDevice, MAX_SESSIONS};
use crate::error::GuardNnError;
use crate::isa::{Instruction, Response};
use crate::memory::ELEM_BYTES;
use crate::session::RemoteUser;
use guardnn_models::Network;
use guardnn_obs::Recorder;

/// Handle for one user session on a [`DeviceServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw server-side id (public bookkeeping, never secret).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Protocol phase of one session — the explicit state machine the server
/// enforces (see the module docs for the transition diagram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Device certificate verified by the user; no key exchange yet.
    Provisioned,
    /// Key exchange complete: secure channel up, device session allocated.
    Established,
    /// Model structure declared and weights imported; ready for work.
    ModelLoaded,
    /// At least one inference job is queued or in flight.
    Inferring,
    /// A training step is executing.
    Training,
    /// Terminal: the session's device died (or a supervisor declared it
    /// dead) and the session cannot resume in place. Its work must
    /// migrate to another device — fresh key exchange, weights
    /// re-imported, checkpoint replayed — or be torn down with
    /// [`DeviceServer::disconnect`].
    Failed,
}

/// Result of one [`DeviceServer::step`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepProgress {
    /// One instruction was issued; the current job has more to do.
    Working,
    /// The instruction finished a job: a sealed output is ready to take.
    Finished,
    /// The session has no queued work.
    Idle,
}

/// Count of device instructions issued by the server, per mnemonic. Lets
/// tests and benchmarks pin protocol budgets (e.g. "a batch of N inputs
/// performs exactly one INITSESSION and one SETWEIGHT per layer").
#[derive(Clone, Debug, Default)]
pub struct InstructionStats {
    counts: BTreeMap<&'static str, u64>,
}

impl InstructionStats {
    /// Instructions issued with this mnemonic (see
    /// [`Instruction::mnemonic`]).
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// Total instructions issued.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    fn record(&mut self, mnemonic: &'static str) {
        *self.counts.entry(mnemonic).or_insert(0) += 1;
    }
}

/// Mirror of the device's feature counters, maintained by the host from the
/// public instruction stream ("the host CPU can easily reconstruct the VN",
/// §II-D).
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounterMirror {
    ctr_in: u32,
    ctr_fw: u32,
}

impl HostCounterMirror {
    /// Mirrors `SetInput`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::CounterExhausted`] when the mirrored `CTR_IN` would
    /// wrap — the device refuses the same bump, so a wrapping mirror would
    /// silently drift from the on-chip state and reuse a VN.
    pub fn on_set_input(&mut self) -> Result<(), GuardNnError> {
        self.ctr_in = self
            .ctr_in
            .checked_add(1)
            .ok_or(GuardNnError::CounterExhausted { counter: "CTR_IN" })?;
        self.ctr_fw = 0;
        Ok(())
    }

    /// Mirrors a `Forward` (or `Backward`, `SetOutputGrad`) that wrote
    /// features.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::CounterExhausted`] when the mirrored `CTR_F,W`
    /// would wrap (see [`HostCounterMirror::on_set_input`]).
    pub fn on_forward(&mut self) -> Result<(), GuardNnError> {
        self.ctr_fw = self
            .ctr_fw
            .checked_add(1)
            .ok_or(GuardNnError::CounterExhausted { counter: "CTR_F,W" })?;
        Ok(())
    }

    /// The VN the device used for its most recent feature write.
    pub fn current_write_vn(&self) -> u64 {
        ((self.ctr_in as u64) << 32) | self.ctr_fw as u64
    }
}

/// Byte extent of a tensor region holding `elems` device elements, exactly
/// as the device pads it: at least one 16-byte AES block even for empty
/// tensors. Host-issued `SetReadCTR` ranges must use this same rule or the
/// declared range drifts from the region the device actually reads.
pub fn region_extent(elems: u64) -> u64 {
    (elems * ELEM_BYTES).max(16)
}

/// Byte extent of feature (or gradient) edge `edge` of `network`: edge 0
/// is the network input, edge `i + 1` is layer `i`'s output.
pub fn edge_extent(network: &Network, edge: usize) -> u64 {
    let elems = if edge == 0 {
        network.layers().first().map_or(0, |l| l.input_elems())
    } else {
        network.layers()[edge - 1].output_elems()
    };
    region_extent(elems)
}

/// Program counter of one queued inference job: which instruction of the
/// `SetInput → (SetReadCTR → Forward)* → SetReadCTR → ExportOutput`
/// sequence runs next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobPc {
    SetInput,
    ReadCtr(usize),
    Forward(usize),
    ExportCtr,
    Export,
}

/// One in-flight inference input.
struct InferJob {
    /// Channel-sealed input, consumed by the `SetInput` step.
    sealed_input: Option<Vec<u8>>,
    pc: JobPc,
    /// Feature-write VN per edge, reconstructed from the counter mirror.
    edge_vns: Vec<u64>,
    /// Malicious-host override: use this VN for the given edge's
    /// `SetReadCTR` instead of the mirrored one (security experiments).
    poison: Option<(usize, u64)>,
}

/// Per-session host state.
struct HostSession {
    state: SessionState,
    /// Device-side session id (allocated by `InitSession`).
    device_sid: Option<u64>,
    counters: HostCounterMirror,
    network: Option<Network>,
    /// Byte extent per feature edge `0..=layers`, precomputed at
    /// `load_model` so the per-instruction `step` path never walks (or
    /// clones) the network.
    edge_extents: Vec<u64>,
    /// `SetReadCTR` ranges issued since the last compute/export
    /// instruction. The device's range table is a shared hardware
    /// structure that does not survive a context switch, so these are
    /// replayed after `SelectSession` to resume the session.
    checkpoint: Vec<(u64, u64, u64)>,
    jobs: VecDeque<InferJob>,
    /// Sealed outputs of finished jobs, in input order.
    outputs: VecDeque<Vec<u8>>,
    /// Feature-edge VNs of the most recently completed forward pass
    /// (training reads the stashed activations with them).
    last_edge_vns: Vec<u64>,
    /// Logical timestamp of the last instruction this session drove on
    /// the device — the LRU key for idle-session eviction.
    last_active: u64,
}

impl HostSession {
    /// Whether the session can be evicted to free its on-device slot:
    /// it holds a device session but has no queued work, no un-taken
    /// outputs, and is not mid-inference/mid-training.
    fn is_idle(&self) -> bool {
        self.device_sid.is_some()
            && self.jobs.is_empty()
            && self.outputs.is_empty()
            && matches!(
                self.state,
                SessionState::Established | SessionState::ModelLoaded
            )
    }
}

impl HostSession {
    /// Elements the loaded model's input edge expects (0 with no model).
    fn input_elems(&self) -> usize {
        self.network
            .as_ref()
            .and_then(|n| n.layers().first())
            .map_or(0, |l| l.input_elems() as usize)
    }

    /// Elements the loaded model's output edge produces (0 with no model).
    fn output_elems(&self) -> usize {
        self.network
            .as_ref()
            .and_then(|n| n.layers().last())
            .map_or(0, |l| l.output_elems() as usize)
    }
}

/// The multi-session device server (see the module docs).
pub struct DeviceServer {
    device: GuardNnDevice,
    sessions: BTreeMap<u64, HostSession>,
    next_id: u64,
    /// Which server session currently holds the device's hardware context.
    active: Option<u64>,
    stats: InstructionStats,
    /// Logical clock for last-stepped bookkeeping (bumps whenever a
    /// session drives the device).
    clock: u64,
    /// Metrics/event sink: session lifecycle events and per-instruction
    /// step latencies. The process-global (no-op) recorder by default.
    recorder: Recorder,
}

impl std::fmt::Debug for DeviceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceServer")
            .field("sessions", &self.sessions.len())
            .field("active", &self.active)
            .finish()
    }
}

impl DeviceServer {
    /// Creates a server around a provisioned device.
    pub fn new(device: GuardNnDevice) -> Self {
        Self {
            device,
            sessions: BTreeMap::new(),
            next_id: 1,
            active: None,
            stats: InstructionStats::default(),
            clock: 0,
            recorder: Recorder::global().clone(),
        }
    }

    /// Routes this server's lifecycle events and step latencies to
    /// `recorder` instead of the process-global one. With a
    /// [`guardnn_obs::clock::ManualClock`]-driven recorder the reported
    /// latencies are fully deterministic.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Read access to the device (for adversary experiments and tests).
    pub fn device(&self) -> &GuardNnDevice {
        &self.device
    }

    /// Mutable device access — the physical-attack surface.
    pub fn device_mut(&mut self) -> &mut GuardNnDevice {
        &mut self.device
    }

    /// Instruction counts issued so far.
    pub fn stats(&self) -> &InstructionStats {
        &self.stats
    }

    /// Zeroes the instruction counts (e.g. to meter one batch).
    pub fn reset_stats(&mut self) {
        self.stats = InstructionStats::default();
    }

    /// The state of `session`, if it exists.
    pub fn session_state(&self, session: SessionId) -> Option<SessionState> {
        self.sessions.get(&session.0).map(|s| s.state)
    }

    /// Number of sessions in the server's table.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The host's mirror of `session`'s feature counters: public
    /// bookkeeping rebuilt from the instruction stream (§II-D).
    pub fn counters(&self, session: SessionId) -> Option<HostCounterMirror> {
        self.sessions.get(&session.0).map(|s| s.counters)
    }

    /// Feature-write VN per edge of `session`'s most recently completed
    /// forward pass (empty before the first), as the host logged it.
    pub fn edge_vns(&self, session: SessionId) -> Option<&[u64]> {
        self.sessions
            .get(&session.0)
            .map(|s| s.last_edge_vns.as_slice())
    }

    /// Issues one instruction, counting it on success.
    fn exec(&mut self, instr: Instruction) -> Result<Response, GuardNnError> {
        let mnemonic = instr.mnemonic();
        let response = self.device.execute(instr)?;
        self.stats.record(mnemonic);
        Ok(response)
    }

    fn session_mut(&mut self, session: SessionId) -> Result<&mut HostSession, GuardNnError> {
        self.sessions
            .get_mut(&session.0)
            .ok_or(GuardNnError::UnknownSession { session: session.0 })
    }

    /// Stamps `session` as the most recently stepped (the LRU key idle
    /// eviction consults).
    fn touch(&mut self, session: SessionId) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.sessions.get_mut(&session.0) {
            entry.last_active = clock;
        }
    }

    /// Makes `session` the device's active hardware context, replaying its
    /// checkpointed `SetReadCTR` ranges if the context was switched away
    /// (resume-after-preemption).
    fn ensure_active(&mut self, session: SessionId) -> Result<(), GuardNnError> {
        self.touch(session);
        if self.active == Some(session.0) {
            return Ok(());
        }
        let entry = self.session_mut(session)?;
        let device_sid = entry
            .device_sid
            .ok_or(GuardNnError::InvalidState("session not established"))?;
        let replay = entry.checkpoint.clone();
        self.exec(Instruction::SelectSession {
            session: device_sid,
        })?;
        self.active = Some(session.0);
        for (start, end, vn) in replay {
            self.exec(Instruction::SetReadCtr { start, end, vn })?;
        }
        Ok(())
    }

    /// Admits a new user: fetches the device certificate and lets the user
    /// verify it against their pinned manufacturer key. The session enters
    /// [`SessionState::Provisioned`].
    ///
    /// # Errors
    ///
    /// [`GuardNnError::BadCertificate`] when verification fails.
    pub fn connect(&mut self, user: &mut RemoteUser) -> Result<SessionId, GuardNnError> {
        let Response::Pk(cert) = self.exec(Instruction::GetPk)? else {
            return Err(GuardNnError::InvalidState("unexpected response to GetPk"));
        };
        user.authenticate_device(&cert)?;
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            HostSession {
                state: SessionState::Provisioned,
                device_sid: None,
                counters: HostCounterMirror::default(),
                network: None,
                edge_extents: Vec::new(),
                checkpoint: Vec::new(),
                jobs: VecDeque::new(),
                outputs: VecDeque::new(),
                last_edge_vns: Vec::new(),
                last_active: 0,
            },
        );
        if self.recorder.is_enabled() {
            self.recorder
                .event("server.connect", &[("session", &id.to_string())]);
            self.recorder
                .set_gauge("server.sessions", self.sessions.len() as i64);
        }
        Ok(SessionId(id))
    }

    /// Frees one on-device slot by evicting the least-recently-stepped
    /// *idle* session (no queued jobs, no un-taken outputs, not
    /// mid-inference or mid-training): its device session is closed and
    /// the host entry drops back to [`SessionState::Provisioned`], from
    /// which its user can re-establish (new key exchange, reload the
    /// model). Sessions with work in flight are never candidates.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] when every resident session is
    /// active.
    fn evict_lru_idle(&mut self) -> Result<(), GuardNnError> {
        let candidate = self
            .sessions
            .iter()
            .filter(|(_, s)| s.is_idle())
            .min_by_key(|(_, s)| s.last_active)
            .map(|(id, _)| *id);
        let Some(id) = candidate else {
            return Err(GuardNnError::InvalidState(
                "session table full and every session is active",
            ));
        };
        let entry = self
            .sessions
            .get_mut(&id)
            .ok_or(GuardNnError::UnknownSession { session: id })?;
        let device_sid = entry.device_sid.take().ok_or(GuardNnError::InvalidState(
            "idle session has no device slot",
        ))?;
        entry.network = None;
        entry.edge_extents.clear();
        entry.checkpoint.clear();
        entry.last_edge_vns.clear();
        entry.counters = HostCounterMirror::default();
        entry.state = SessionState::Provisioned;
        self.exec(Instruction::CloseSession {
            session: device_sid,
        })?;
        if self.active == Some(id) {
            self.active = None;
        }
        if self.recorder.is_enabled() {
            self.recorder
                .event("server.evict", &[("session", &id.to_string())]);
        }
        Ok(())
    }

    /// Runs the key exchange for a provisioned session:
    /// [`SessionState::Provisioned`] → [`SessionState::Established`].
    ///
    /// When the device's [`crate::device::MAX_SESSIONS`]-entry on-chip
    /// table is full, the server first evicts the least-recently-stepped
    /// *idle* session (closing its device session and dropping it back to
    /// `Provisioned` for a later re-establish) instead of letting
    /// `InitSession` fail. A session with queued jobs, un-taken outputs,
    /// or a training step in flight is never evicted.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] outside `Provisioned`, or when the
    /// table is full and every resident session is active; key-exchange
    /// failures propagate.
    pub fn establish(
        &mut self,
        session: SessionId,
        user: &mut RemoteUser,
        integrity: bool,
    ) -> Result<(), GuardNnError> {
        let entry = self.session_mut(session)?;
        if entry.state != SessionState::Provisioned {
            return Err(GuardNnError::InvalidState("establish needs Provisioned"));
        }
        if self.device.session_count() >= MAX_SESSIONS {
            self.evict_lru_idle()?;
        }
        match self.key_exchange(user, integrity) {
            Ok(device_sid) => {
                // InitSession made the new device session the active
                // hardware context; mirror it.
                self.active = Some(session.0);
                let entry = self.session_mut(session)?;
                entry.device_sid = Some(device_sid);
                entry.counters = HostCounterMirror::default();
                entry.state = SessionState::Established;
                self.touch(session);
                if self.recorder.is_enabled() {
                    self.recorder.event(
                        "server.establish",
                        &[
                            ("session", &session.0.to_string()),
                            ("integrity", if integrity { "true" } else { "false" }),
                        ],
                    );
                }
                Ok(())
            }
            Err(e) => {
                // Either InitSession failed (device context unchanged) or
                // the user rejected the exchange and `key_exchange` closed
                // the half-open session (device context cleared). Dropping
                // the mirror is correct for both: the next instruction
                // re-selects its context explicitly. The entry stays
                // Provisioned for a clean retry.
                self.active = None;
                Err(e)
            }
        }
    }

    /// `begin_session` → `InitSession` → `complete_session`, closing the
    /// half-open device session when the user rejects the device's
    /// ephemeral public value — so repeated failed establishes can never
    /// exhaust the on-chip session table. Returns the new device session
    /// id.
    fn key_exchange(
        &mut self,
        user: &mut RemoteUser,
        integrity: bool,
    ) -> Result<u64, GuardNnError> {
        let user_public = user.begin_session();
        let Response::SessionInit {
            session,
            device_public,
        } = self.exec(Instruction::InitSession {
            user_public,
            enable_integrity: integrity,
        })?
        else {
            return Err(GuardNnError::InvalidState(
                "unexpected response to InitSession",
            ));
        };
        if let Err(e) = user.complete_session(&device_public) {
            let _ = self.exec(Instruction::CloseSession { session });
            return Err(e);
        }
        Ok(session)
    }

    /// Declares the model and imports the session-encrypted weights:
    /// [`SessionState::Established`] → [`SessionState::ModelLoaded`].
    /// This is the import whose cost `infer_batch` amortizes — it runs
    /// once per session, not once per input.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] outside `Established`; device and
    /// channel failures propagate.
    pub fn load_model(
        &mut self,
        session: SessionId,
        user: &mut RemoteUser,
        network: &Network,
        weights: &[Vec<i32>],
    ) -> Result<(), GuardNnError> {
        if self.session_mut(session)?.state != SessionState::Established {
            return Err(GuardNnError::InvalidState("load_model needs Established"));
        }
        self.ensure_active(session)?;
        self.exec(Instruction::LoadModel {
            network: network.clone(),
        })?;
        for (layer, w) in weights.iter().enumerate() {
            // Weightless layers (pooling) import nothing.
            if w.is_empty() {
                continue;
            }
            let message = user.encrypt_tensor(w)?;
            self.exec(Instruction::SetWeight { layer, message })?;
        }
        let entry = self.session_mut(session)?;
        entry.edge_extents = (0..=network.layers().len())
            .map(|edge| edge_extent(network, edge))
            .collect();
        entry.network = Some(network.clone());
        entry.state = SessionState::ModelLoaded;
        if self.recorder.is_enabled() {
            self.recorder.event(
                "server.load_model",
                &[
                    ("session", &session.0.to_string()),
                    ("network", network.name()),
                ],
            );
        }
        Ok(())
    }

    /// Queues one inference input (sealing it through the user's channel):
    /// [`SessionState::ModelLoaded`] → [`SessionState::Inferring`]. More
    /// inputs may be queued while earlier jobs are still in flight — that
    /// is the batching path.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] before the model is loaded.
    pub fn begin_infer(
        &mut self,
        session: SessionId,
        user: &mut RemoteUser,
        input: &[i32],
    ) -> Result<(), GuardNnError> {
        let entry = self.session_mut(session)?;
        if !matches!(
            entry.state,
            SessionState::ModelLoaded | SessionState::Inferring
        ) {
            return Err(GuardNnError::InvalidState("begin_infer needs a model"));
        }
        // Validate the shape locally before sealing: the channel is
        // strictly sequential, so a device-side rejection would burn a
        // sequence number on a message that can never be replayed.
        let expected = entry.input_elems();
        if input.len() != expected {
            return Err(GuardNnError::ShapeMismatch {
                expected,
                actual: input.len(),
            });
        }
        let sealed = user.encrypt_tensor(input)?;
        let entry = self.session_mut(session)?;
        entry.jobs.push_back(InferJob {
            sealed_input: Some(sealed),
            pc: JobPc::SetInput,
            edge_vns: Vec::new(),
            poison: None,
        });
        entry.state = SessionState::Inferring;
        Ok(())
    }

    /// Malicious-host experiment: make the server issue a wrong `CTR_F,R`
    /// for `edge` of the most recently queued job. The computation of that
    /// job garbles (or faults integrity) — the security property under
    /// test is that *other* sessions are unaffected.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] when no job is queued.
    pub fn poison_read_ctr(
        &mut self,
        session: SessionId,
        edge: usize,
        vn: u64,
    ) -> Result<(), GuardNnError> {
        let entry = self.session_mut(session)?;
        let job = entry
            .jobs
            .back_mut()
            .ok_or(GuardNnError::InvalidState("no queued job to poison"))?;
        job.poison = Some((edge, vn));
        Ok(())
    }

    /// Malicious-relay experiment hook: delivers an attacker-chosen
    /// sealed message to the device as this session's next `SetInput`,
    /// bypassing the server's own sealing and counter bookkeeping. The
    /// chaos harness uses this to drive replayed or corrupted wires
    /// through a *served* session — the expected outcome for anything
    /// but a verbatim next-in-sequence message is
    /// [`GuardNnError::ChannelAuth`], observed here as a typed error
    /// without weakening any sealing.
    ///
    /// Note that a message the device *accepts* through this hook
    /// desynchronizes the server's counter mirror for the session (the
    /// device bumped `CTR_IN` behind the server's back); the session is
    /// then good only for teardown.
    ///
    /// # Errors
    ///
    /// Whatever the device surfaces — [`GuardNnError::ChannelAuth`] for
    /// tampered wires; state errors propagate.
    pub fn inject_sealed_input(
        &mut self,
        session: SessionId,
        message: Vec<u8>,
    ) -> Result<Response, GuardNnError> {
        self.ensure_active(session)?;
        self.exec(Instruction::SetInput { message })
    }

    /// Advances `session` by **one instruction** — the interleaving point:
    /// the host calls `step` on whichever session it wants to run next,
    /// and the server transparently restores the hardware context
    /// (`SelectSession` + `SetReadCTR` replay) when it differs from the
    /// last instruction's.
    ///
    /// # Errors
    ///
    /// Device, channel, and counter failures propagate; a failed step
    /// leaves the job where it was.
    pub fn step(&mut self, session: SessionId) -> Result<StepProgress, GuardNnError> {
        if !self.recorder.is_enabled() {
            return self.step_inner(session);
        }
        let start = self.recorder.now_ns();
        let result = self.step_inner(session);
        let elapsed = self.recorder.now_ns().saturating_sub(start);
        self.recorder.observe("server.step_ns", elapsed);
        self.recorder
            .observe(&format!("server.step_ns.session.{}", session.0), elapsed);
        self.recorder.add("server.steps", 1);
        result
    }

    /// [`DeviceServer::step`] minus the latency metering that wraps it.
    fn step_inner(&mut self, session: SessionId) -> Result<StepProgress, GuardNnError> {
        let entry = self.session_mut(session)?;
        if entry.state == SessionState::Failed {
            return Err(GuardNnError::InvalidState(
                "session failed; migrate or disconnect",
            ));
        }
        if entry.jobs.is_empty() {
            return Ok(StepProgress::Idle);
        }
        if entry.network.is_none() {
            return Err(GuardNnError::InvalidState("no model loaded"));
        }
        let layers = entry.edge_extents.len() - 1;
        self.ensure_active(session)?;

        let entry = self.session_mut(session)?;
        let job = entry
            .jobs
            .front_mut()
            .ok_or(GuardNnError::InvalidState("job queue empty mid-step"))?;
        match job.pc {
            JobPc::SetInput => {
                // Clone rather than take: a rejected SetInput (bad shape)
                // must leave the job intact — not for retry (the device
                // consumed the channel sequence number before rejecting,
                // so a replay always fails ChannelAuth) but so the queue
                // is never wedged and `cancel_jobs` can flush it cleanly.
                let message = job
                    .sealed_input
                    .clone()
                    .ok_or(GuardNnError::InvalidState("input already consumed"))?;
                self.exec(Instruction::SetInput { message })?;
                let entry = self.session_mut(session)?;
                entry.counters.on_set_input()?;
                let vn = entry.counters.current_write_vn();
                let job = entry
                    .jobs
                    .front_mut()
                    .ok_or(GuardNnError::InvalidState("job queue empty mid-step"))?;
                job.sealed_input = None;
                job.edge_vns.push(vn);
                job.pc = if layers == 0 {
                    JobPc::ExportCtr
                } else {
                    JobPc::ReadCtr(0)
                };
                Ok(StepProgress::Working)
            }
            JobPc::ReadCtr(layer) => {
                let vn = match job.poison {
                    Some((edge, vn)) if edge == layer => vn,
                    _ => job.edge_vns[layer],
                };
                let extent = entry.edge_extents[layer];
                let start = self.device.feature_region(layer)?;
                let end = start + extent;
                self.exec(Instruction::SetReadCtr { start, end, vn })?;
                let entry = self.session_mut(session)?;
                entry.checkpoint.push((start, end, vn));
                entry
                    .jobs
                    .front_mut()
                    .ok_or(GuardNnError::InvalidState("job queue empty mid-step"))?
                    .pc = JobPc::Forward(layer);
                Ok(StepProgress::Working)
            }
            JobPc::Forward(layer) => {
                self.exec(Instruction::Forward { layer })?;
                let entry = self.session_mut(session)?;
                entry.counters.on_forward()?;
                entry.checkpoint.clear();
                let vn = entry.counters.current_write_vn();
                let job = entry
                    .jobs
                    .front_mut()
                    .ok_or(GuardNnError::InvalidState("job queue empty mid-step"))?;
                job.edge_vns.push(vn);
                job.pc = if layer + 1 < layers {
                    JobPc::ReadCtr(layer + 1)
                } else {
                    JobPc::ExportCtr
                };
                Ok(StepProgress::Working)
            }
            JobPc::ExportCtr => {
                let out_edge = layers;
                let vn = match job.poison {
                    Some((edge, vn)) if edge == out_edge => vn,
                    _ => job.edge_vns[out_edge],
                };
                let extent = entry.edge_extents[out_edge];
                let start = self.device.feature_region(out_edge)?;
                let end = start + extent;
                self.exec(Instruction::SetReadCtr { start, end, vn })?;
                let entry = self.session_mut(session)?;
                entry.checkpoint.push((start, end, vn));
                entry
                    .jobs
                    .front_mut()
                    .ok_or(GuardNnError::InvalidState("job queue empty mid-step"))?
                    .pc = JobPc::Export;
                Ok(StepProgress::Working)
            }
            JobPc::Export => {
                let Response::Output { message } = self.exec(Instruction::ExportOutput)? else {
                    return Err(GuardNnError::InvalidState(
                        "unexpected response to ExportOutput",
                    ));
                };
                let entry = self.session_mut(session)?;
                entry.checkpoint.clear();
                let job = entry
                    .jobs
                    .pop_front()
                    .ok_or(GuardNnError::InvalidState("job queue empty mid-step"))?;
                entry.last_edge_vns = job.edge_vns;
                entry.outputs.push_back(message);
                if entry.jobs.is_empty() {
                    entry.state = SessionState::ModelLoaded;
                }
                Ok(StepProgress::Finished)
            }
        }
    }

    /// Drops every queued (and partially-executed) inference job of
    /// `session`, returning how many were cancelled. Finished outputs are
    /// kept — take them with [`DeviceServer::take_output`]. Safe mid-job:
    /// the next job's `SetInput` starts a fresh `CTR_IN` epoch, so a
    /// half-run pass leaves only garbage the device never exports. This
    /// is the recovery path when a queued input turns out to be
    /// malformed (its `SetInput` is rejected and, the channel being
    /// strictly sequential, can never be replayed).
    ///
    /// Sealed-but-undelivered inputs are still *delivered* (flushed
    /// through `SetInput`, their feature writes never exported): the
    /// channel is strictly sequential, so silently discarding a sealed
    /// message would make the device reject every later message as a
    /// drop and brick the session.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::UnknownSession`] for a dead handle; counter
    /// exhaustion during the flush propagates.
    pub fn cancel_jobs(&mut self, session: SessionId) -> Result<usize, GuardNnError> {
        let entry = self.session_mut(session)?;
        let cancelled = entry.jobs.len();
        if self.recorder.is_enabled() {
            self.recorder.event(
                "server.cancel",
                &[
                    ("session", &session.0.to_string()),
                    ("jobs", &cancelled.to_string()),
                ],
            );
        }
        let entry = self.session_mut(session)?;
        let pending: Vec<Vec<u8>> = entry
            .jobs
            .iter()
            .filter_map(|job| job.sealed_input.clone())
            .collect();
        entry.jobs.clear();
        entry.checkpoint.clear();
        if entry.state == SessionState::Inferring {
            entry.state = SessionState::ModelLoaded;
        }
        if !pending.is_empty() {
            self.ensure_active(session)?;
            for message in pending {
                match self.exec(Instruction::SetInput { message }) {
                    Ok(_) => self.session_mut(session)?.counters.on_set_input()?,
                    // A front job whose input was already delivered-and-
                    // rejected replays here and fails ChannelAuth without
                    // advancing anything; a malformed undelivered input is
                    // rejected after its sequence number was consumed.
                    // Both leave the channel in sync — keep flushing.
                    Err(GuardNnError::ChannelAuth) | Err(GuardNnError::ShapeMismatch { .. }) => {}
                    // Anything else (counter exhaustion, lost session)
                    // means the session needs re-keying — surface it now,
                    // not on the next wedged job.
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(cancelled)
    }

    /// Marks `session` as [`SessionState::Failed`]: its device died out
    /// from under it and nothing on it can resume in place. Queued jobs,
    /// the `SetReadCTR` checkpoint, and un-taken sealed outputs are
    /// dropped — they were sealed under a channel whose device-side half
    /// no longer exists — and the device-side slot handle is forgotten
    /// (there is no live device to `CloseSession` on). The entry stays in
    /// the table so the failure is observable
    /// ([`DeviceServer::session_state`] reports `Failed`,
    /// [`DeviceServer::step`] refuses with a typed
    /// error) until [`DeviceServer::disconnect`] removes it. The fleet
    /// supervisor calls this on every session stranded by a device crash
    /// before re-establishing them elsewhere.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::UnknownSession`] for a dead handle.
    pub fn fail_session(&mut self, session: SessionId) -> Result<(), GuardNnError> {
        let entry = self.session_mut(session)?;
        entry.state = SessionState::Failed;
        entry.device_sid = None;
        entry.jobs.clear();
        entry.outputs.clear();
        entry.checkpoint.clear();
        entry.last_edge_vns.clear();
        if self.active == Some(session.0) {
            self.active = None;
        }
        if self.recorder.is_enabled() {
            self.recorder
                .event("server.fail", &[("session", &session.0.to_string())]);
        }
        Ok(())
    }

    /// Decrypts and pops the oldest finished output of `session`, if any.
    /// Outputs come back in input order (the channel is strictly
    /// sequential, so they must also be *taken* in order). The sealed
    /// output is removed only after a successful decrypt, so a transient
    /// caller error (e.g. the wrong user's channel in a multi-user loop)
    /// is retryable instead of losing the output forever.
    ///
    /// # Errors
    ///
    /// Channel failures propagate.
    pub fn take_output(
        &mut self,
        session: SessionId,
        user: &mut RemoteUser,
    ) -> Result<Option<Vec<i32>>, GuardNnError> {
        let entry = self.session_mut(session)?;
        let Some(sealed) = entry.outputs.front() else {
            return Ok(None);
        };
        let output = user.decrypt_tensor(sealed)?;
        entry.outputs.pop_front();
        Ok(Some(output))
    }

    /// Runs one inference to completion and returns the decrypted output.
    ///
    /// # Errors
    ///
    /// Propagates any device or protocol error.
    pub fn infer(
        &mut self,
        session: SessionId,
        user: &mut RemoteUser,
        input: &[i32],
    ) -> Result<Vec<i32>, GuardNnError> {
        let inputs = [input.to_vec()];
        let outputs = self.infer_batch(session, user, &inputs)?;
        outputs
            .into_iter()
            .next()
            .ok_or(GuardNnError::InvalidState("batch returned no output"))
    }

    /// ISA-level batched inference: queues every input up front, then
    /// pipelines the whole `SetInput`/`SetReadCTR`/`Forward`/
    /// `ExportOutput` stream back-to-back on the device. The session's
    /// key exchange and weight import happened once at `establish` /
    /// `load_model` — their cost is amortized over all `inputs`, which is
    /// the protocol win [`crate::perf::batched_protocol_cost`] models.
    /// Outputs are bit-identical to running [`DeviceServer::infer`] once
    /// per input.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] when the session still has queued
    /// jobs or un-taken outputs (drive those with [`DeviceServer::step`] /
    /// [`DeviceServer::take_output`], or drop them with
    /// [`DeviceServer::cancel_jobs`], before handing the session to a
    /// batch call — otherwise a stale output would be returned as this
    /// batch's first result). Device and protocol errors propagate.
    pub fn infer_batch(
        &mut self,
        session: SessionId,
        user: &mut RemoteUser,
        inputs: &[Vec<i32>],
    ) -> Result<Vec<Vec<i32>>, GuardNnError> {
        let entry = self.session_mut(session)?;
        if !entry.jobs.is_empty() || !entry.outputs.is_empty() {
            return Err(GuardNnError::InvalidState(
                "session has in-flight work; drain or cancel it first",
            ));
        }
        // Validate every shape before sealing ANY input, so a bad input
        // mid-batch rejects the whole batch atomically instead of leaving
        // earlier inputs sealed-and-queued (which would force the caller
        // through the cancel/flush path).
        let expected = entry.input_elems();
        for input in inputs {
            if input.len() != expected {
                return Err(GuardNnError::ShapeMismatch {
                    expected,
                    actual: input.len(),
                });
            }
        }
        for input in inputs {
            self.begin_infer(session, user, input)?;
        }
        let mut finished = 0;
        while finished < inputs.len() {
            match self.step(session)? {
                StepProgress::Finished => finished += 1,
                StepProgress::Working => {}
                StepProgress::Idle => {
                    return Err(GuardNnError::InvalidState("batch underflow"));
                }
            }
        }
        let mut outputs = Vec::with_capacity(inputs.len());
        while let Some(out) = self.take_output(session, user)? {
            outputs.push(out);
        }
        Ok(outputs)
    }

    /// Runs one training step (forward, loss-gradient import, backward
    /// sweep, weight updates) in an established session. The session is
    /// in [`SessionState::Training`] for the duration and returns to
    /// [`SessionState::ModelLoaded`].
    ///
    /// # Errors
    ///
    /// Propagates any device or protocol error.
    pub fn train_step(
        &mut self,
        session: SessionId,
        user: &mut RemoteUser,
        input: &[i32],
        output_grad: &[i32],
        lr_shift: u32,
    ) -> Result<(), GuardNnError> {
        let entry = self.session_mut(session)?;
        if entry.network.is_none() {
            return Err(GuardNnError::InvalidState("no model loaded"));
        }
        // Validate the gradient shape locally before anything runs (same
        // rationale as `begin_infer`: a device-side rejection would burn
        // an unreplayable channel sequence number).
        let expected = entry.output_elems();
        if output_grad.len() != expected {
            return Err(GuardNnError::ShapeMismatch {
                expected,
                actual: output_grad.len(),
            });
        }

        // Forward pass (stashing per-edge VNs in `last_edge_vns`).
        let _ = self.infer(session, user, input)?;
        self.session_mut(session)?.state = SessionState::Training;
        self.ensure_active(session)?;

        let message = user.encrypt_tensor(output_grad)?;
        let sweep = self.backward_sweep(session, message, lr_shift);
        // Leave Training even on a failed sweep — the weights may be
        // half-updated (the user decides whether to retrain or discard),
        // but the session must stay usable rather than wedge in Training.
        // Nothing from the sweep needs replaying after a later preemption.
        let entry = self.session_mut(session)?;
        entry.checkpoint.clear();
        entry.state = SessionState::ModelLoaded;
        sweep
    }

    /// Drives the training backward sweep — `SetOutputGrad`, then per layer
    /// in reverse the feature + gradient `SetReadCTR` pair, `Backward`, and
    /// (for weighted layers) the weight-gradient `SetReadCTR` +
    /// `UpdateWeight` — with the `CTR_F,W` mirror bookkeeping. The sweep
    /// runs in one call (no other session can run mid-sweep), so no
    /// `SetReadCTR` is checkpointed.
    fn backward_sweep(
        &mut self,
        session: SessionId,
        output_grad_message: Vec<u8>,
        lr_shift: u32,
    ) -> Result<(), GuardNnError> {
        let entry = self.session_mut(session)?;
        let network = entry
            .network
            .as_ref()
            .ok_or(GuardNnError::InvalidState("no model loaded"))?;
        // Weight-gradient extent per weighted layer, read up front so the
        // loop below issues instructions without borrowing the session.
        let wgrad_extents: Vec<Option<u64>> = network
            .layers()
            .iter()
            .map(|l| l.has_weights().then(|| region_extent(l.weight_elems())))
            .collect();
        let edge_extents = entry.edge_extents.clone();
        let edge_vns = entry.last_edge_vns.clone();

        // Loss gradient for the final edge; SetOutputGrad bumps CTR_F,W.
        self.exec(Instruction::SetOutputGrad {
            message: output_grad_message,
        })?;
        let counters = &mut self.session_mut(session)?.counters;
        counters.on_forward()?;
        let mut grad_vn = counters.current_write_vn();

        for layer in (0..wgrad_extents.len()).rev() {
            // The device reads: stashed features of edge `layer`, gradient
            // of edge `layer + 1`.
            let start = self.device.feature_region(layer)?;
            self.exec(Instruction::SetReadCtr {
                start,
                end: start + edge_extents[layer],
                vn: edge_vns[layer],
            })?;
            let start = self.device.grad_region(layer + 1)?;
            self.exec(Instruction::SetReadCtr {
                start,
                end: start + edge_extents[layer + 1],
                vn: grad_vn,
            })?;
            self.exec(Instruction::Backward { layer })?;
            let counters = &mut self.session_mut(session)?.counters;
            counters.on_forward()?; // Backward bumps CTR_F,W
            grad_vn = counters.current_write_vn();

            if let Some(extent) = wgrad_extents[layer] {
                // The weight gradient was written with the same VN as the
                // input gradient of this layer.
                let start = self.device.wgrad_region(layer)?;
                self.exec(Instruction::SetReadCtr {
                    start,
                    end: start + extent,
                    vn: grad_vn,
                })?;
                self.exec(Instruction::UpdateWeight { layer, lr_shift })?;
            }
        }
        Ok(())
    }

    /// Requests and verifies the session's signed attestation report
    /// against an expected report the user reconstructed. Note that the
    /// chain records the instructions that *actually executed* in this
    /// session — including any `SetReadCTR` replays the server issued to
    /// resume after preemption — so an auditing user needs the server's
    /// public instruction log for an interleaved run.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::BadAttestation`] on any mismatch.
    pub fn attest(
        &mut self,
        session: SessionId,
        user: &RemoteUser,
        expected: &crate::attestation::AttestationReport,
    ) -> Result<(), GuardNnError> {
        self.ensure_active(session)?;
        let Response::Attestation { report, signature } = self.exec(Instruction::SignOutput)?
        else {
            return Err(GuardNnError::InvalidState(
                "unexpected response to SignOutput",
            ));
        };
        user.verify_attestation(&report, &signature, expected)
    }

    /// Tears the session down, releasing its on-device slot.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::UnknownSession`] for a dead handle.
    pub fn disconnect(&mut self, session: SessionId) -> Result<(), GuardNnError> {
        let entry = self
            .sessions
            .remove(&session.0)
            .ok_or(GuardNnError::UnknownSession { session: session.0 })?;
        if let Some(device_sid) = entry.device_sid {
            self.exec(Instruction::CloseSession {
                session: device_sid,
            })?;
        }
        if self.active == Some(session.0) {
            self.active = None;
        }
        if self.recorder.is_enabled() {
            self.recorder
                .event("server.disconnect", &[("session", &session.0.to_string())]);
            self.recorder
                .set_gauge("server.sessions", self.sessions.len() as i64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet;

    fn server_with_users(n: usize) -> (DeviceServer, Vec<RemoteUser>) {
        let (device, maker_pk) = GuardNnDevice::provision(77, 123);
        let users = (0..n)
            .map(|i| RemoteUser::new(maker_pk.clone(), 1000 + i as u64))
            .collect();
        (DeviceServer::new(device), users)
    }

    fn full_setup(
        server: &mut DeviceServer,
        user: &mut RemoteUser,
        net: &Network,
        weights: &[Vec<i32>],
        integrity: bool,
    ) -> SessionId {
        let sid = server.connect(user).expect("connect");
        assert_eq!(server.session_state(sid), Some(SessionState::Provisioned));
        server.establish(sid, user, integrity).expect("establish");
        assert_eq!(server.session_state(sid), Some(SessionState::Established));
        server.load_model(sid, user, net, weights).expect("load");
        assert_eq!(server.session_state(sid), Some(SessionState::ModelLoaded));
        sid
    }

    #[test]
    fn single_session_matches_reference() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(5);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, true);
        let input = vec![3, 1, -4, 1, 5, -9, 2, 6];
        let out = server.infer(sid, &mut users[0], &input).expect("infer");
        assert_eq!(out, testnet::tiny_mlp_reference(&weights, &input));
    }

    #[test]
    fn state_machine_enforced() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let sid = server.connect(&mut users[0]).expect("connect");
        // load_model before establish is refused.
        assert_eq!(
            server
                .load_model(sid, &mut users[0], &net, &[])
                .unwrap_err(),
            GuardNnError::InvalidState("load_model needs Established")
        );
        server.establish(sid, &mut users[0], false).expect("est");
        // establish twice is refused.
        assert_eq!(
            server.establish(sid, &mut users[0], false).unwrap_err(),
            GuardNnError::InvalidState("establish needs Provisioned")
        );
        // infer before a model is loaded is refused.
        assert_eq!(
            server.begin_infer(sid, &mut users[0], &[1; 8]).unwrap_err(),
            GuardNnError::InvalidState("begin_infer needs a model")
        );
    }

    #[test]
    fn two_sessions_interleave_and_match_serial() {
        let net = testnet::tiny_mlp();
        let wa = testnet::tiny_mlp_weights(3);
        let wb = testnet::tiny_mlp_weights(9);
        let ia = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let ib = vec![-8, 7, -6, 5, -4, 3, -2, 1];

        let (mut server, mut users) = server_with_users(2);
        let (ua, rest) = users.split_at_mut(1);
        let ub = &mut rest[0];
        let sa = full_setup(&mut server, &mut ua[0], &net, &wa, true);
        let sb = full_setup(&mut server, ub, &net, &wb, true);
        server.begin_infer(sa, &mut ua[0], &ia).expect("begin a");
        server.begin_infer(sb, ub, &ib).expect("begin b");
        // Strict alternation: a step of A, then a step of B, until done.
        let mut done = [false, false];
        while !done[0] || !done[1] {
            for (i, sid) in [(0, sa), (1, sb)] {
                if !done[i] {
                    done[i] = server.step(sid).expect("step") == StepProgress::Finished;
                }
            }
        }
        let oa = server.take_output(sa, &mut ua[0]).expect("take").unwrap();
        let ob = server.take_output(sb, ub).expect("take").unwrap();
        assert_eq!(oa, testnet::tiny_mlp_reference(&wa, &ia));
        assert_eq!(ob, testnet::tiny_mlp_reference(&wb, &ib));
    }

    #[test]
    fn batch_amortizes_key_exchange_and_weight_import() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(2);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, false);

        let inputs: Vec<Vec<i32>> = (0..5)
            .map(|t| (0..8).map(|i| i * (t + 1) - 4).collect())
            .collect();
        let batch = server
            .infer_batch(sid, &mut users[0], &inputs)
            .expect("batch");

        // The whole protocol so far: exactly one key exchange and one
        // weight import per layer — amortized over the 5-input batch.
        let n = inputs.len() as u64;
        let layers = net.layers().len() as u64;
        let stats = server.stats();
        assert_eq!(stats.count("GETPK"), 1);
        assert_eq!(stats.count("INITSESSION"), 1);
        assert_eq!(stats.count("LOADMODEL"), 1);
        assert_eq!(stats.count("SETWEIGHT"), layers);
        assert_eq!(stats.count("SETINPUT"), n);
        assert_eq!(stats.count("FORWARD"), n * layers);
        assert_eq!(stats.count("SETREADCTR"), n * (layers + 1));
        assert_eq!(stats.count("EXPORTOUTPUT"), n);
        assert_eq!(stats.count("SELECTSESSION"), 0, "one session never yields");

        // Bit-identical to serial inference in the same kind of session.
        let (mut server2, mut users2) = server_with_users(1);
        let sid2 = full_setup(&mut server2, &mut users2[0], &net, &weights, false);
        for (input, got) in inputs.iter().zip(&batch) {
            let serial = server2.infer(sid2, &mut users2[0], input).expect("serial");
            assert_eq!(&serial, got);
        }
    }

    #[test]
    fn preemption_resumes_via_read_ctr_replay() {
        // Preempt session A between its SetReadCTR and Forward — the
        // worst spot: the read-ctr table is lost with the context switch
        // and must be replayed for A's Forward to decrypt correctly.
        let net = testnet::tiny_mlp();
        let wa = testnet::tiny_mlp_weights(4);
        let wb = testnet::tiny_mlp_weights(6);
        let ia = vec![9, -8, 7, -6, 5, -4, 3, -2];
        let ib = vec![1; 8];

        let (mut server, mut users) = server_with_users(2);
        let (ua, rest) = users.split_at_mut(1);
        let ub = &mut rest[0];
        let sa = full_setup(&mut server, &mut ua[0], &net, &wa, true);
        let sb = full_setup(&mut server, ub, &net, &wb, true);
        server.begin_infer(sa, &mut ua[0], &ia).expect("begin a");
        server.begin_infer(sb, ub, &ib).expect("begin b");

        // A: SetInput, then SetReadCTR(edge 0) — now preempt.
        assert_eq!(server.step(sa).expect("a"), StepProgress::Working);
        assert_eq!(server.step(sa).expect("a"), StepProgress::Working);
        // B runs to completion (clobbers the shared read-ctr table).
        while server.step(sb).expect("b") != StepProgress::Finished {}
        // A resumes: the server replays its checkpoint before Forward.
        while server.step(sa).expect("a") != StepProgress::Finished {}

        let oa = server.take_output(sa, &mut ua[0]).expect("take").unwrap();
        let ob = server.take_output(sb, ub).expect("take").unwrap();
        assert_eq!(oa, testnet::tiny_mlp_reference(&wa, &ia));
        assert_eq!(ob, testnet::tiny_mlp_reference(&wb, &ib));
        assert!(
            server.stats().count("SELECTSESSION") >= 2,
            "the schedule must actually have context-switched"
        );
    }

    #[test]
    fn poisoned_session_garbles_without_touching_neighbor() {
        let net = testnet::tiny_mlp();
        let w = testnet::tiny_mlp_weights(8);
        let input = vec![2, 4, 6, 8, -2, -4, -6, -8];

        let (mut server, mut users) = server_with_users(2);
        let (ua, rest) = users.split_at_mut(1);
        let ub = &mut rest[0];
        // No integrity: a wrong VN garbles instead of faulting.
        let sa = full_setup(&mut server, &mut ua[0], &net, &w, false);
        let sb = full_setup(&mut server, ub, &net, &w, false);
        server.begin_infer(sa, &mut ua[0], &input).expect("begin a");
        server.poison_read_ctr(sa, 0, 0xBAD).expect("poison");
        server.begin_infer(sb, ub, &input).expect("begin b");

        let mut done = [false, false];
        while !done[0] || !done[1] {
            for (i, sid) in [(0, sa), (1, sb)] {
                if !done[i] {
                    done[i] = server.step(sid).expect("step") == StepProgress::Finished;
                }
            }
        }
        let reference = testnet::tiny_mlp_reference(&w, &input);
        let oa = server.take_output(sa, &mut ua[0]).expect("take").unwrap();
        let ob = server.take_output(sb, ub).expect("take").unwrap();
        assert_ne!(oa, reference, "poisoned session must garble");
        assert_eq!(ob, reference, "neighbor session must be untouched");
    }

    #[test]
    fn malformed_input_rejected_before_sealing() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(3);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, false);
        // Wrong shape: tiny_mlp takes 8 elements, send 3. The server
        // rejects locally, BEFORE sealing — a device-side rejection would
        // burn a channel sequence number on an unreplayable message.
        assert_eq!(
            server
                .begin_infer(sid, &mut users[0], &[1, 2, 3])
                .unwrap_err(),
            GuardNnError::ShapeMismatch {
                expected: 8,
                actual: 3
            }
        );
        assert_eq!(server.session_state(sid), Some(SessionState::ModelLoaded));
        // Nothing was queued or sealed: the next inference just works.
        let input = vec![5, -5, 4, -4, 3, -3, 2, -2];
        let out = server.infer(sid, &mut users[0], &input).expect("recovered");
        assert_eq!(out, testnet::tiny_mlp_reference(&weights, &input));
    }

    #[test]
    fn cancel_preserves_channel_sync_for_undelivered_inputs() {
        // Queue two jobs (both inputs sealed eagerly), deliver only the
        // first job's SetInput, then cancel. The second job's sealed
        // message must still be flushed to the device — silently dropping
        // it would desync the strictly-sequential channel and make every
        // later SetInput fail as a drop.
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(7);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, false);
        server
            .begin_infer(sid, &mut users[0], &[1; 8])
            .expect("begin a");
        server
            .begin_infer(sid, &mut users[0], &[2; 8])
            .expect("begin b");
        assert_eq!(server.step(sid).expect("deliver a"), StepProgress::Working);
        assert_eq!(server.cancel_jobs(sid).expect("cancel"), 2);
        // The session keeps serving correctly after the cancellation.
        let input = vec![3, -1, 4, -1, 5, -9, 2, -6];
        let out = server.infer(sid, &mut users[0], &input).expect("infer");
        assert_eq!(out, testnet::tiny_mlp_reference(&weights, &input));
    }

    #[test]
    fn infer_batch_validates_all_shapes_before_sealing_any() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(6);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, false);
        // A bad shape mid-batch must reject the whole batch atomically:
        // nothing sealed, nothing queued, no cancel/flush needed after.
        let batch = vec![vec![1; 8], vec![9, 9, 9]];
        assert_eq!(
            server.infer_batch(sid, &mut users[0], &batch).unwrap_err(),
            GuardNnError::ShapeMismatch {
                expected: 8,
                actual: 3
            }
        );
        assert_eq!(server.session_state(sid), Some(SessionState::ModelLoaded));
        let input = vec![4, -4, 2, -2, 1, -1, 0, 3];
        let out = server.infer(sid, &mut users[0], &input).expect("recovered");
        assert_eq!(out, testnet::tiny_mlp_reference(&weights, &input));
    }

    #[test]
    fn take_output_with_wrong_user_is_retryable() {
        let net = testnet::tiny_mlp();
        let w = testnet::tiny_mlp_weights(2);
        let input = vec![6, 5, 4, 3, 2, 1, 0, -1];
        let (mut server, mut users) = server_with_users(2);
        let (ua, rest) = users.split_at_mut(1);
        let ub = &mut rest[0];
        let sa = full_setup(&mut server, &mut ua[0], &net, &w, false);
        let _sb = full_setup(&mut server, ub, &net, &w, false);
        server.begin_infer(sa, &mut ua[0], &input).expect("begin");
        while server.step(sa).expect("step") != StepProgress::Finished {}
        // Wrong user's channel: decrypt fails, but the sealed output must
        // survive for a retry with the right user.
        assert_eq!(
            server.take_output(sa, ub).unwrap_err(),
            GuardNnError::ChannelAuth
        );
        let out = server
            .take_output(sa, &mut ua[0])
            .expect("retry")
            .expect("still queued");
        assert_eq!(out, testnet::tiny_mlp_reference(&w, &input));
    }

    #[test]
    fn infer_batch_refuses_session_with_inflight_work() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(4);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, false);
        // Run one job to completion but do NOT take its output.
        let first = vec![1, 2, 3, 4, 5, 6, 7, 8];
        server
            .begin_infer(sid, &mut users[0], &first)
            .expect("begin");
        while server.step(sid).expect("step") != StepProgress::Finished {}
        // A batch on the non-quiescent session must refuse rather than
        // hand the stale output back as the new input's result.
        let second = vec![8, 7, 6, 5, 4, 3, 2, 1];
        assert_eq!(
            server.infer(sid, &mut users[0], &second).unwrap_err(),
            GuardNnError::InvalidState("session has in-flight work; drain or cancel it first")
        );
        // Draining the stale output unblocks it, and both results are the
        // right ones for their own inputs.
        let stale = server
            .take_output(sid, &mut users[0])
            .expect("take")
            .expect("finished");
        assert_eq!(stale, testnet::tiny_mlp_reference(&weights, &first));
        let fresh = server.infer(sid, &mut users[0], &second).expect("infer");
        assert_eq!(fresh, testnet::tiny_mlp_reference(&weights, &second));
    }

    #[test]
    fn training_on_server_matches_reference() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(6);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, true);
        let input = vec![2, -3, 5, -7, 11, -13, 17, -19];
        let d_out = vec![3, -2];
        server
            .train_step(sid, &mut users[0], &input, &d_out, 0)
            .expect("train");
        assert_eq!(server.session_state(sid), Some(SessionState::ModelLoaded));
        let probe = vec![1; 8];
        let out = server.infer(sid, &mut users[0], &probe).expect("probe");
        let updated = testnet::reference_train_step(&net, &weights, &input, &d_out, 0);
        assert_eq!(out, testnet::reference_forward(&net, &updated, &probe));
    }

    #[test]
    fn training_cnn_with_pool_and_integrity() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_cnn();
        let weights = testnet::deterministic_weights(&net, 3);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, true);
        let input: Vec<i32> = (0..16).map(|i| (i % 4) - 1).collect();
        let d_out = vec![1, -1, 2, -2];
        server
            .train_step(sid, &mut users[0], &input, &d_out, 1)
            .expect("train");
        let probe: Vec<i32> = (0..16).map(|i| 2 - (i % 3)).collect();
        let out = server.infer(sid, &mut users[0], &probe).expect("probe");
        let updated = testnet::reference_train_step(&net, &weights, &input, &d_out, 1);
        assert_eq!(out, testnet::reference_forward(&net, &updated, &probe));
    }

    #[test]
    fn multiple_training_steps_accumulate() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let mut ref_weights = testnet::tiny_mlp_weights(2);
        let sid = full_setup(&mut server, &mut users[0], &net, &ref_weights, false);
        for step in 0..3 {
            let input: Vec<i32> = (0..8).map(|i| i + step).collect();
            let d_out = vec![step + 1, -(step + 1)];
            server
                .train_step(sid, &mut users[0], &input, &d_out, 2)
                .expect("train");
            ref_weights = testnet::reference_train_step(&net, &ref_weights, &input, &d_out, 2);
        }
        let probe = vec![1, 0, 1, 0, 1, 0, 1, 0];
        let out = server.infer(sid, &mut users[0], &probe).expect("probe");
        assert_eq!(out, testnet::reference_forward(&net, &ref_weights, &probe));
    }

    #[test]
    fn counter_mirror_tracks_device() {
        let mut m = HostCounterMirror::default();
        m.on_set_input().expect("bump");
        assert_eq!(m.current_write_vn(), 1 << 32);
        m.on_forward().expect("bump");
        assert_eq!(m.current_write_vn(), (1 << 32) | 1);
        m.on_set_input().expect("bump");
        assert_eq!(m.current_write_vn(), 2 << 32);
    }

    #[test]
    fn counter_mirror_refuses_to_wrap() {
        let mut m = HostCounterMirror {
            ctr_in: u32::MAX,
            ctr_fw: u32::MAX,
        };
        assert_eq!(
            m.on_set_input().unwrap_err(),
            GuardNnError::CounterExhausted { counter: "CTR_IN" }
        );
        assert_eq!(
            m.on_forward().unwrap_err(),
            GuardNnError::CounterExhausted { counter: "CTR_F,W" }
        );
        // Failed bumps must not move the mirror.
        assert_eq!(m.current_write_vn(), u64::MAX);
    }

    #[test]
    fn wrong_grad_shape_rejected_without_wedging_training_state() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(5);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, false);
        // tiny_mlp's output has 2 elements; send 3. Rejected locally,
        // before the forward pass or any channel traffic.
        assert_eq!(
            server
                .train_step(sid, &mut users[0], &[1; 8], &[1, 2, 3], 0)
                .unwrap_err(),
            GuardNnError::ShapeMismatch {
                expected: 2,
                actual: 3
            }
        );
        assert_eq!(server.session_state(sid), Some(SessionState::ModelLoaded));
        // The session keeps working: a correct train step and an
        // inference still match the reference.
        let input = vec![2, -3, 5, -7, 11, -13, 17, -19];
        let d_out = vec![3, -2];
        server
            .train_step(sid, &mut users[0], &input, &d_out, 0)
            .expect("train");
        let probe = vec![1; 8];
        let out = server.infer(sid, &mut users[0], &probe).expect("probe");
        let updated = testnet::reference_train_step(&net, &weights, &input, &d_out, 0);
        assert_eq!(out, testnet::reference_forward(&net, &updated, &probe));
    }

    #[test]
    fn full_table_evicts_lru_idle_session_and_slot_is_reusable() {
        let (mut server, mut users) = server_with_users(MAX_SESSIONS + 1);
        let mut sids = Vec::new();
        for user in users.iter_mut().take(MAX_SESSIONS) {
            let sid = server.connect(user).expect("connect");
            server.establish(sid, user, false).expect("establish");
            sids.push(sid);
        }
        assert_eq!(server.device().session_count(), MAX_SESSIONS);

        // The 65th establish evicts the least-recently-stepped idle
        // session — the first one — instead of failing.
        let (head, tail) = users.split_at_mut(MAX_SESSIONS);
        let newcomer = &mut tail[0];
        let sid_new = server.connect(newcomer).expect("connect");
        server
            .establish(sid_new, newcomer, false)
            .expect("establish evicts an idle session");
        assert_eq!(server.device().session_count(), MAX_SESSIONS);
        assert_eq!(
            server.session_state(sids[0]),
            Some(SessionState::Provisioned),
            "oldest idle session dropped back to Provisioned"
        );
        assert_eq!(
            server.session_state(sids[1]),
            Some(SessionState::Established),
            "younger sessions untouched"
        );

        // The evicted slot is reusable: its user re-establishes (a fresh
        // key exchange), evicting the next-oldest idle session, and the
        // session serves inference again end to end.
        let user0 = &mut head[0];
        server
            .establish(sids[0], user0, false)
            .expect("evicted session re-establishes");
        assert_eq!(server.device().session_count(), MAX_SESSIONS);
        assert_eq!(
            server.session_state(sids[1]),
            Some(SessionState::Provisioned),
            "next-oldest idle session evicted in turn"
        );
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(3);
        server
            .load_model(sids[0], user0, &net, &weights)
            .expect("reload model");
        let input = vec![1, -2, 3, -4, 5, -6, 7, -8];
        let out = server.infer(sids[0], user0, &input).expect("infer");
        assert_eq!(out, testnet::tiny_mlp_reference(&weights, &input));
    }

    #[test]
    fn active_sessions_are_never_evicted() {
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(4);
        let (mut server, mut users) = server_with_users(MAX_SESSIONS + 1);
        let mut sids = Vec::new();
        for user in users.iter_mut().take(MAX_SESSIONS) {
            let sid = full_setup(&mut server, user, &net, &weights, false);
            sids.push(sid);
        }
        // The OLDEST session queues a job: despite being LRU it must
        // survive eviction; the second-oldest (idle) goes instead.
        let input = vec![2, 4, 6, 8, -2, -4, -6, -8];
        server
            .begin_infer(sids[0], &mut users[0], &input)
            .expect("queue job");
        let (head, tail) = users.split_at_mut(MAX_SESSIONS);
        let newcomer = &mut tail[0];
        let sid_new = server.connect(newcomer).expect("connect");
        server
            .establish(sid_new, newcomer, false)
            .expect("establish evicts an idle session");
        assert_eq!(
            server.session_state(sids[0]),
            Some(SessionState::Inferring),
            "busy LRU session must not be evicted"
        );
        assert_eq!(
            server.session_state(sids[1]),
            Some(SessionState::Provisioned),
            "idle second-oldest evicted instead"
        );
        // The busy session's job completes correctly after the shuffle.
        while server.step(sids[0]).expect("step") != StepProgress::Finished {}
        let out = server
            .take_output(sids[0], &mut head[0])
            .expect("take")
            .expect("finished");
        assert_eq!(out, testnet::tiny_mlp_reference(&weights, &input));
    }

    #[test]
    fn all_sessions_active_refuses_new_establish() {
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(2);
        let (mut server, mut users) = server_with_users(MAX_SESSIONS + 1);
        let input = vec![1; 8];
        for user in users.iter_mut().take(MAX_SESSIONS) {
            let sid = full_setup(&mut server, user, &net, &weights, false);
            server.begin_infer(sid, user, &input).expect("queue job");
        }
        let (_, tail) = users.split_at_mut(MAX_SESSIONS);
        let newcomer = &mut tail[0];
        let sid_new = server.connect(newcomer).expect("connect");
        assert_eq!(
            server.establish(sid_new, newcomer, false).unwrap_err(),
            GuardNnError::InvalidState("session table full and every session is active")
        );
        // The refused session stays Provisioned for a later retry.
        assert_eq!(
            server.session_state(sid_new),
            Some(SessionState::Provisioned)
        );
    }

    #[test]
    fn disconnect_frees_the_device_slot() {
        let (mut server, mut users) = server_with_users(1);
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(1);
        let sid = full_setup(&mut server, &mut users[0], &net, &weights, false);
        assert_eq!(server.device().session_count(), 1);
        server.disconnect(sid).expect("disconnect");
        assert_eq!(server.device().session_count(), 0);
        assert_eq!(
            server.infer(sid, &mut users[0], &[1; 8]).unwrap_err(),
            GuardNnError::UnknownSession { session: sid.raw() }
        );
    }
}
