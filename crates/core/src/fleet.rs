//! Fault-tolerant fleet supervision: M devices, one [`FleetSupervisor`].
//!
//! [`crate::server::DeviceServer`] multiplexes sessions over *one*
//! device; a serving fleet has many, and devices fail. This module adds
//! the fault-tolerance layer the future wire protocol will sit on:
//!
//! * **Fault injection** — every device carries a [`DeviceFaultPlan`],
//!   a scripted schedule in the style of [`crate::adversary`]: crash at
//!   operation k, hang past the deadline for a window, a burst of
//!   transient channel faults. Plans are consulted *before* an operation
//!   executes, so a faulted operation never ran and retrying it is safe.
//! * **Typed fault classification** — [`FaultClass::of`] splits every
//!   [`GuardNnError`] into `Transient` (retry in place) and `Fatal`
//!   (propagate, or migrate when the fault names a device). The match is
//!   exhaustive on purpose: adding an error variant forces a decision.
//! * **Bounded retry** — transient faults are retried with exponential
//!   backoff counted in *scheduler steps*, not wall time
//!   ([`FleetPolicy::backoff_steps`]); with a [`ManualClock`] attached the whole
//!   schedule is deterministic and testable. A device that stays stalled
//!   past the retry budget escalates to [`GuardNnError::DeviceLost`].
//! * **Migration** — when a device dies, each of its sessions is
//!   re-established on a healthy device: fresh DH key exchange, weights
//!   re-imported **once** per migrated model (amortized over the
//!   session's remaining inputs, like `infer_batch`), every not-yet-
//!   finished input re-queued. Finished outputs are decrypted eagerly at
//!   each `Finished` step, so nothing sealed under the dead channel is
//!   ever lost — a migrated run is bit-identical to an unfaulted one.
//! * **Admission control** — per-device session budgets
//!   ([`FleetPolicy::per_device_budget`]); when every healthy device is
//!   full, [`FleetSupervisor::connect`] sheds load with a typed
//!   [`GuardNnError::FleetOverloaded`] instead of queueing. Draining a
//!   device ([`FleetSupervisor::drain`]) stops admissions to it while
//!   its in-flight sessions finish.
//!
//! Everything is instrumented through [`guardnn_obs`]: failover
//! counters (`fleet.retries`, `fleet.migrations`, `fleet.shed`, ...),
//! recovery-latency histograms (`fleet.recovery_ns`,
//! `fleet.backoff_steps`), per-device session gauges, and journal
//! events for every fault, retry, migration, drain, and device death.
//!
//! # Example: a device crash mid-batch is absorbed by migration
//!
//! ```
//! use guardnn::device::GuardNnDevice;
//! use guardnn::fleet::{DeviceFaultPlan, DeviceId, FleetPolicy, FleetSupervisor};
//! use guardnn::session::RemoteUser;
//! use guardnn::testnet;
//!
//! # fn main() -> Result<(), guardnn::GuardNnError> {
//! // Two devices issued by the same manufacturer; the user pins its key.
//! let (d0, manufacturer_pk) = GuardNnDevice::provision(1, 42);
//! let (d1, _) = GuardNnDevice::provision(2, 42);
//! let mut fleet = FleetSupervisor::new(vec![d0, d1], FleetPolicy::default());
//! // Device 0 dies permanently at its 6th operation — mid-batch.
//! fleet.set_fault_plan(DeviceId(0), DeviceFaultPlan::crash_at(5))?;
//!
//! let mut user = RemoteUser::new(manufacturer_pk, 7);
//! let net = testnet::tiny_mlp();
//! let weights = testnet::tiny_mlp_weights(3);
//! let sid = fleet.connect()?;
//! fleet.establish(sid, &mut user, true)?;
//! fleet.load_model(sid, &mut user, &net, &weights)?;
//!
//! let inputs: Vec<Vec<i32>> = (0..3i32).map(|k| vec![k; 8]).collect();
//! let outputs = fleet.infer_batch(sid, &mut user, &inputs)?;
//! // The crash was absorbed: the session migrated to device 1 and the
//! // outputs are bit-identical to an unfaulted run.
//! for (input, output) in inputs.iter().zip(&outputs) {
//!     assert_eq!(output, &testnet::tiny_mlp_reference(&weights, input));
//! }
//! assert_eq!(fleet.session_migrations(sid), Some(1));
//! assert_eq!(fleet.session_device(sid), Some(DeviceId(1)));
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, VecDeque};

use crate::device::GuardNnDevice;
use crate::error::GuardNnError;
use crate::server::{DeviceServer, InstructionStats, SessionId, StepProgress};
use crate::session::RemoteUser;
use guardnn_models::Network;
use guardnn_obs::clock::ManualClock;
use guardnn_obs::Recorder;

/// Index of a device in a [`FleetSupervisor`]'s fleet (position in the
/// `Vec` passed to [`FleetSupervisor::new`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(
    /// Zero-based fleet position.
    pub usize,
);

/// Handle for one user session routed by a [`FleetSupervisor`]. Distinct
/// from the per-device [`SessionId`]: a fleet session keeps its handle
/// across migrations while its device-side session changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FleetSessionId(u64);

impl FleetSessionId {
    /// The raw supervisor-side id (public bookkeeping, never secret).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// One scripted fault in a device's lifetime, positioned by the device's
/// operation counter: every fleet-driven device operation (connect, key
/// exchange, model import, instruction step, teardown) ticks it once,
/// including faulted attempts — so a retry window is consumed by the
/// retries themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceFault {
    /// Permanent death: from operation `at` onward the device never
    /// responds again.
    Crash {
        /// Operation index the crash strikes at.
        at: u64,
    },
    /// The device stalls past its deadline for `lasts` operations
    /// starting at `at`, then recovers. Bounded backoff rides a short
    /// hang out; one outlasting the retry budget escalates to
    /// [`GuardNnError::DeviceLost`].
    Hang {
        /// First stalled operation index.
        at: u64,
        /// How many consecutive operations stall.
        lasts: u64,
    },
    /// A burst of transient channel faults: `count` operations starting
    /// at `at` each time out once and succeed when re-driven later.
    Transient {
        /// First faulted operation index.
        at: u64,
        /// How many consecutive operations fault.
        count: u64,
    },
}

/// A scripted fault schedule for one device — the injection seam the
/// chaos scenarios, the differential tests, and the `fleet` load
/// generator drive (same spirit as [`crate::adversary::FaultPlan`], but
/// indexed by device operations instead of channel messages).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceFaultPlan {
    /// The scripted faults, checked in order at every operation; a
    /// `Crash` wins over any overlapping window.
    pub faults: Vec<DeviceFault>,
}

impl DeviceFaultPlan {
    /// The empty plan: the device never faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with one permanent crash at operation `at`.
    pub fn crash_at(at: u64) -> Self {
        Self {
            faults: vec![DeviceFault::Crash { at }],
        }
    }

    /// A plan with one deadline-miss window.
    pub fn hang(at: u64, lasts: u64) -> Self {
        Self {
            faults: vec![DeviceFault::Hang { at, lasts }],
        }
    }

    /// A plan with one transient-fault burst.
    pub fn transient(at: u64, count: u64) -> Self {
        Self {
            faults: vec![DeviceFault::Transient { at, count }],
        }
    }

    /// Derives one scripted fault from `seed`, positioned in
    /// `[0, horizon)` — splitmix64, the same scheme as
    /// [`crate::adversary::FaultPlan::from_seed`], so sweeps get
    /// reproducible variety without a shared RNG.
    pub fn from_seed(seed: u64, horizon: u64) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let at = next() % horizon.max(1);
        match next() % 3 {
            0 => Self::crash_at(at),
            1 => Self::hang(at, 1 + next() % 3),
            _ => Self::transient(at, 1 + next() % 3),
        }
    }

    /// The fault striking operation `op`, if any (`Crash` wins ties).
    pub fn fault_at(&self, op: u64) -> Option<DeviceFault> {
        let crash = self
            .faults
            .iter()
            .find(|f| matches!(f, DeviceFault::Crash { at } if op >= *at));
        if let Some(f) = crash {
            return Some(*f);
        }
        self.faults
            .iter()
            .find(|f| match f {
                DeviceFault::Crash { .. } => false,
                DeviceFault::Hang { at, lasts } => op >= *at && op < at.saturating_add(*lasts),
                DeviceFault::Transient { at, count } => op >= *at && op < at.saturating_add(*count),
            })
            .copied()
    }
}

/// Transient-vs-fatal classification of a [`GuardNnError`] — the retry
/// decision table (rendered in ARCHITECTURE.md "Fleet supervision").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// The operation never executed and may be retried in place with
    /// bounded backoff.
    Transient,
    /// Retrying cannot help: propagate the error, or migrate the session
    /// when the fault names a dead device.
    Fatal,
}

impl FaultClass {
    /// Classifies `err`. Exhaustive by construction — a new error
    /// variant fails to compile until it is placed in a class.
    pub fn of(err: &GuardNnError) -> FaultClass {
        match err {
            // The operation did not execute; a later attempt can succeed
            // (timeout) or a later connect can be admitted (overload).
            GuardNnError::DeviceTimeout { .. } | GuardNnError::FleetOverloaded { .. } => {
                FaultClass::Transient
            }
            // Everything else is a protocol, security, or state error:
            // the secure channel is strictly sequential, so re-driving
            // the same message can never turn a failure into a success.
            GuardNnError::NoSession
            | GuardNnError::ChannelAuth
            | GuardNnError::IntegrityViolation { .. }
            | GuardNnError::BadCertificate
            | GuardNnError::BadAttestation
            | GuardNnError::BadLayerIndex { .. }
            | GuardNnError::InvalidState(_)
            | GuardNnError::ShapeMismatch { .. }
            | GuardNnError::BadPublicKey
            | GuardNnError::CounterExhausted { .. }
            | GuardNnError::UnknownSession { .. }
            | GuardNnError::DeviceLost { .. } => FaultClass::Fatal,
        }
    }
}

/// Supervisor tuning: session budgets and the retry/backoff schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetPolicy {
    /// Sessions each device carries before admission control sheds load
    /// (clamped to `1..=`[`crate::device::MAX_SESSIONS`] so the budget
    /// never exceeds the on-chip session table).
    pub per_device_budget: usize,
    /// Transient-fault retries per operation before the device is
    /// declared lost.
    pub max_retries: u32,
    /// First backoff wait, in scheduler steps.
    pub base_backoff: u64,
    /// Backoff ceiling, in scheduler steps (the schedule is
    /// `min(base << attempt, max)`).
    pub max_backoff: u64,
    /// Nanoseconds one scheduler step advances an attached
    /// [`ManualClock`] — the deterministic time base recovery-latency
    /// histograms are measured in.
    pub step_ns: u64,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self {
            per_device_budget: 8,
            max_retries: 4,
            base_backoff: 1,
            max_backoff: 8,
            step_ns: 1_000,
        }
    }
}

impl FleetPolicy {
    /// The backoff wait before retry `attempt` (0-based), in scheduler
    /// steps: exponential from [`FleetPolicy::base_backoff`], capped at
    /// [`FleetPolicy::max_backoff`], never below 1.
    pub fn backoff_steps(&self, attempt: u32) -> u64 {
        self.base_backoff
            .checked_shl(attempt)
            .unwrap_or(u64::MAX)
            .clamp(1, self.max_backoff.max(1))
    }
}

/// Lifecycle state of one fleet device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Serving and accepting new sessions.
    Healthy,
    /// Graceful retirement: in-flight sessions finish, no new sessions
    /// are placed on it, and it contributes nothing to fleet capacity.
    Draining,
    /// Dead: every operation fails [`GuardNnError::DeviceLost`] and its
    /// sessions have been stranded for migration.
    Failed,
}

/// One supervised device and its bookkeeping.
struct DeviceNode {
    server: DeviceServer,
    plan: DeviceFaultPlan,
    /// Operations driven at this device so far — the index the fault
    /// plan is consulted with.
    ops: u64,
    health: DeviceHealth,
    /// Fleet sessions currently placed on this device.
    established: usize,
}

/// Supervisor-side state of one fleet session.
struct FleetSession {
    device: Option<usize>,
    inner: Option<SessionId>,
    integrity: bool,
    /// The model, kept so migration can re-import it (once) on the new
    /// device.
    model: Option<(Network, Vec<Vec<i32>>)>,
    /// Plaintext inputs submitted but not yet finished, in order; the
    /// front entry is the in-flight job. Migration re-seals and
    /// re-queues exactly these.
    pending: VecDeque<Vec<i32>>,
    /// Finished outputs, decrypted eagerly at each `Finished` step so a
    /// later device death cannot strand them sealed under a dead
    /// channel.
    finished: VecDeque<Vec<i32>>,
    migrations: u64,
}

/// The fleet supervisor: owns M [`DeviceServer`]s and routes user
/// sessions across them with retry, migration, and load shedding (see
/// the module docs).
pub struct FleetSupervisor {
    devices: Vec<DeviceNode>,
    sessions: BTreeMap<u64, FleetSession>,
    next_id: u64,
    policy: FleetPolicy,
    recorder: Recorder,
    clock: Option<ManualClock>,
    ticks: u64,
}

impl FleetSupervisor {
    /// Builds a supervisor over `devices` (fleet order = [`DeviceId`]
    /// order). All devices must have been provisioned by the same
    /// manufacturer for one user to verify their certificates.
    pub fn new(devices: Vec<GuardNnDevice>, policy: FleetPolicy) -> Self {
        let policy = FleetPolicy {
            per_device_budget: policy
                .per_device_budget
                .clamp(1, crate::device::MAX_SESSIONS),
            ..policy
        };
        let devices: Vec<DeviceNode> = devices
            .into_iter()
            .map(|device| DeviceNode {
                server: DeviceServer::new(device),
                plan: DeviceFaultPlan::none(),
                ops: 0,
                health: DeviceHealth::Healthy,
                established: 0,
            })
            .collect();
        let fleet = Self {
            devices,
            sessions: BTreeMap::new(),
            next_id: 1,
            policy,
            recorder: Recorder::global().clone(),
            clock: None,
            ticks: 0,
        };
        fleet.update_health_gauge();
        fleet
    }

    /// Routes fleet metrics (and every owned server's) to `recorder`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for node in &mut self.devices {
            node.server.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
        self.update_health_gauge();
    }

    /// Attaches the [`ManualClock`] driving the recorder: every
    /// scheduler step (operation or backoff wait) advances it by
    /// [`FleetPolicy::step_ns`], making recovery-latency histograms
    /// exact and deterministic.
    pub fn set_manual_clock(&mut self, clock: ManualClock) {
        self.clock = Some(clock);
    }

    /// Installs the scripted fault schedule for `device`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] for an out-of-range device.
    pub fn set_fault_plan(
        &mut self,
        device: DeviceId,
        plan: DeviceFaultPlan,
    ) -> Result<(), GuardNnError> {
        let node = self
            .devices
            .get_mut(device.0)
            .ok_or(GuardNnError::InvalidState("no such device"))?;
        node.plan = plan;
        Ok(())
    }

    /// Number of devices in the fleet (all health states).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Health of `device`, if it exists.
    pub fn device_health(&self, device: DeviceId) -> Option<DeviceHealth> {
        self.devices.get(device.0).map(|n| n.health)
    }

    /// Fleet sessions currently placed on `device`.
    pub fn device_established(&self, device: DeviceId) -> Option<usize> {
        self.devices.get(device.0).map(|n| n.established)
    }

    /// Instruction counts issued at `device` — how tests pin the
    /// one-key-exchange-one-weight-import budget of a migration.
    pub fn device_stats(&self, device: DeviceId) -> Option<&InstructionStats> {
        self.devices.get(device.0).map(|n| n.server.stats())
    }

    /// Fleet-wide session capacity: healthy devices × per-device budget
    /// (draining and failed devices contribute nothing).
    pub fn capacity(&self) -> usize {
        let healthy = self
            .devices
            .iter()
            .filter(|n| n.health == DeviceHealth::Healthy)
            .count();
        healthy * self.policy.per_device_budget
    }

    /// Sessions currently admitted (established or not).
    pub fn admitted(&self) -> usize {
        self.sessions.len()
    }

    /// Logical scheduler steps elapsed (operations + backoff waits) —
    /// the deterministic time base.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// How many times `sid` has migrated between devices.
    pub fn session_migrations(&self, sid: FleetSessionId) -> Option<u64> {
        self.sessions.get(&sid.0).map(|s| s.migrations)
    }

    /// The device `sid` is currently placed on, if established.
    pub fn session_device(&self, sid: FleetSessionId) -> Option<DeviceId> {
        self.sessions
            .get(&sid.0)
            .and_then(|s| s.device)
            .map(DeviceId)
    }

    /// Health-checks `device` without driving an operation: reports the
    /// typed error its *next* operation would surface (the observation
    /// hook the chaos scenarios assert on).
    ///
    /// # Errors
    ///
    /// [`GuardNnError::DeviceLost`] for a failed (or crash-scheduled)
    /// device, [`GuardNnError::DeviceTimeout`] inside a stall window,
    /// [`GuardNnError::InvalidState`] for an out-of-range device.
    pub fn probe(&self, device: DeviceId) -> Result<(), GuardNnError> {
        let node = self
            .devices
            .get(device.0)
            .ok_or(GuardNnError::InvalidState("no such device"))?;
        if node.health == DeviceHealth::Failed {
            return Err(GuardNnError::DeviceLost {
                device: device.0 as u64,
            });
        }
        match node.plan.fault_at(node.ops) {
            Some(DeviceFault::Crash { .. }) => Err(GuardNnError::DeviceLost {
                device: device.0 as u64,
            }),
            Some(_) => Err(GuardNnError::DeviceTimeout {
                device: device.0 as u64,
            }),
            None => Ok(()),
        }
    }

    /// Gracefully retires `device`: it stops counting toward capacity
    /// and receives no new sessions, but its in-flight sessions run to
    /// completion.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::DeviceLost`] if the device already failed,
    /// [`GuardNnError::InvalidState`] for an out-of-range device.
    pub fn drain(&mut self, device: DeviceId) -> Result<(), GuardNnError> {
        let node = self
            .devices
            .get_mut(device.0)
            .ok_or(GuardNnError::InvalidState("no such device"))?;
        if node.health == DeviceHealth::Failed {
            return Err(GuardNnError::DeviceLost {
                device: device.0 as u64,
            });
        }
        node.health = DeviceHealth::Draining;
        if self.recorder.is_enabled() {
            self.recorder
                .event("fleet.drain", &[("device", &device.0.to_string())]);
        }
        self.update_health_gauge();
        Ok(())
    }

    /// Admission control: registers a new fleet session if the fleet has
    /// spare capacity.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::FleetOverloaded`] when every healthy device is at
    /// its budget — the typed load-shedding rejection.
    pub fn connect(&mut self) -> Result<FleetSessionId, GuardNnError> {
        let capacity = self.capacity();
        if self.sessions.len() >= capacity {
            return Err(self.shed());
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            FleetSession {
                device: None,
                inner: None,
                integrity: false,
                model: None,
                pending: VecDeque::new(),
                finished: VecDeque::new(),
                migrations: 0,
            },
        );
        Ok(FleetSessionId(id))
    }

    /// Places `sid` on the least-loaded healthy device and runs the key
    /// exchange there. A device that dies mid-exchange is failed over
    /// transparently: the session re-establishes cleanly on the next
    /// candidate.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::FleetOverloaded`] when no healthy device has
    /// budget left; key-exchange failures propagate.
    pub fn establish(
        &mut self,
        sid: FleetSessionId,
        user: &mut RemoteUser,
        integrity: bool,
    ) -> Result<(), GuardNnError> {
        let sess = self.session_mut(sid)?;
        if sess.inner.is_some() {
            return Err(GuardNnError::InvalidState(
                "fleet session already established",
            ));
        }
        sess.integrity = integrity;
        loop {
            let Some(d) = self.pick_device() else {
                return Err(self.shed());
            };
            match self.place(d, user, integrity, None, &[]) {
                Ok(inner) => {
                    self.bind(sid, d, inner)?;
                    return Ok(());
                }
                // The candidate died during placement; the next one gets
                // a clean re-establish (fresh key exchange).
                Err(GuardNnError::DeviceLost { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Declares the model and imports the weights on `sid`'s device,
    /// remembering both so a later migration can re-import them (once)
    /// elsewhere.
    ///
    /// # Errors
    ///
    /// Device and protocol errors propagate; a device death mid-import
    /// triggers migration instead.
    pub fn load_model(
        &mut self,
        sid: FleetSessionId,
        user: &mut RemoteUser,
        network: &Network,
        weights: &[Vec<i32>],
    ) -> Result<(), GuardNnError> {
        let (d, inner) = self.bound(sid)?;
        let sess = self.session_mut(sid)?;
        if sess.model.is_some() {
            return Err(GuardNnError::InvalidState(
                "fleet session already has a model",
            ));
        }
        sess.model = Some((network.clone(), weights.to_vec()));
        match self.guarded(d, |srv| srv.load_model(inner, user, network, weights)) {
            Ok(()) => Ok(()),
            // Migration re-imports the remembered model on the new device.
            Err(GuardNnError::DeviceLost { .. }) => self.migrate(sid, user),
            Err(e) => {
                // The model never reached a device; forget it so the
                // session can retry with a corrected one.
                if let Ok(sess) = self.session_mut(sid) {
                    sess.model = None;
                }
                Err(e)
            }
        }
    }

    /// Queues one inference input on `sid`, keeping the plaintext in the
    /// replay buffer until its job finishes (migration re-seals from
    /// it).
    ///
    /// # Errors
    ///
    /// Shape and protocol errors propagate; a device death triggers
    /// migration (the input is re-queued on the new device).
    pub fn submit(
        &mut self,
        sid: FleetSessionId,
        user: &mut RemoteUser,
        input: &[i32],
    ) -> Result<(), GuardNnError> {
        let (d, inner) = self.bound(sid)?;
        match self.guarded(d, |srv| srv.begin_infer(inner, user, input)) {
            Ok(()) => {
                self.session_mut(sid)?.pending.push_back(input.to_vec());
                Ok(())
            }
            Err(GuardNnError::DeviceLost { .. }) => {
                self.session_mut(sid)?.pending.push_back(input.to_vec());
                self.migrate(sid, user)
            }
            Err(e) => Err(e),
        }
    }

    /// Advances `sid` by one device instruction, transparently migrating
    /// (and re-driving the step) when its device dies. On `Finished` the
    /// output is decrypted immediately into the session's finished queue
    /// — take it with [`FleetSupervisor::take`].
    ///
    /// # Errors
    ///
    /// Protocol errors propagate; [`GuardNnError::FleetOverloaded`] when
    /// a needed migration finds no healthy device with budget.
    pub fn step(
        &mut self,
        sid: FleetSessionId,
        user: &mut RemoteUser,
    ) -> Result<StepProgress, GuardNnError> {
        loop {
            let (d, inner) = self.bound(sid)?;
            match self.guarded(d, |srv| srv.step(inner)) {
                Ok(StepProgress::Finished) => {
                    // Decrypting the sealed output is host-side work (no
                    // device operation), so it is not fault-injected —
                    // and draining it eagerly means no output is ever
                    // stranded under a channel that dies with a device.
                    let output = self.devices[d].server.take_output(inner, user)?;
                    let sess = self.session_mut(sid)?;
                    sess.pending.pop_front();
                    match output {
                        Some(output) => sess.finished.push_back(output),
                        None => {
                            return Err(GuardNnError::InvalidState(
                                "finished step produced no output",
                            ))
                        }
                    }
                    self.recorder.add("fleet.steps", 1);
                    return Ok(StepProgress::Finished);
                }
                Ok(progress) => {
                    self.recorder.add("fleet.steps", 1);
                    return Ok(progress);
                }
                Err(GuardNnError::DeviceLost { .. }) => self.migrate(sid, user)?,
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops the oldest finished (already-decrypted) output of `sid`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::UnknownSession`] for a dead handle.
    pub fn take(&mut self, sid: FleetSessionId) -> Result<Option<Vec<i32>>, GuardNnError> {
        Ok(self.session_mut(sid)?.finished.pop_front())
    }

    /// Batched inference through the fleet: queues every input, then
    /// steps the session to completion, riding out transient faults and
    /// device deaths along the way. Outputs come back in input order,
    /// bit-identical to an unfaulted serial run.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] when the session already has
    /// in-flight work; device and protocol errors propagate.
    pub fn infer_batch(
        &mut self,
        sid: FleetSessionId,
        user: &mut RemoteUser,
        inputs: &[Vec<i32>],
    ) -> Result<Vec<Vec<i32>>, GuardNnError> {
        let sess = self.session_mut(sid)?;
        if !sess.pending.is_empty() || !sess.finished.is_empty() {
            return Err(GuardNnError::InvalidState(
                "fleet session has in-flight work; drain it first",
            ));
        }
        for input in inputs {
            self.submit(sid, user, input)?;
        }
        let mut outputs = Vec::with_capacity(inputs.len());
        while outputs.len() < inputs.len() {
            match self.step(sid, user)? {
                StepProgress::Finished => {
                    if let Some(output) = self.take(sid)? {
                        outputs.push(output);
                    }
                }
                StepProgress::Working => {}
                StepProgress::Idle => {
                    return Err(GuardNnError::InvalidState("fleet batch underflow"));
                }
            }
        }
        Ok(outputs)
    }

    /// Removes `sid` from the fleet, closing its device-side session
    /// when its device is still alive.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::UnknownSession`] for a dead handle; teardown
    /// errors other than a device death propagate.
    pub fn disconnect(&mut self, sid: FleetSessionId) -> Result<(), GuardNnError> {
        let sess = self
            .sessions
            .remove(&sid.0)
            .ok_or(GuardNnError::UnknownSession { session: sid.0 })?;
        if let (Some(d), Some(inner)) = (sess.device, sess.inner) {
            self.devices[d].established = self.devices[d].established.saturating_sub(1);
            self.update_session_gauge(d);
            if self.devices[d].health != DeviceHealth::Failed {
                // CloseSession is a device operation: a death discovered
                // during teardown is swallowed — the session is gone
                // either way.
                match self.guarded(d, |srv| srv.disconnect(inner)) {
                    Ok(()) | Err(GuardNnError::DeviceLost { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        if self.recorder.is_enabled() {
            self.recorder
                .event("fleet.disconnect", &[("session", &sid.0.to_string())]);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn session_mut(&mut self, sid: FleetSessionId) -> Result<&mut FleetSession, GuardNnError> {
        self.sessions
            .get_mut(&sid.0)
            .ok_or(GuardNnError::UnknownSession { session: sid.0 })
    }

    fn bound(&self, sid: FleetSessionId) -> Result<(usize, SessionId), GuardNnError> {
        let sess = self
            .sessions
            .get(&sid.0)
            .ok_or(GuardNnError::UnknownSession { session: sid.0 })?;
        match (sess.device, sess.inner) {
            (Some(d), Some(inner)) => Ok((d, inner)),
            _ => Err(GuardNnError::InvalidState("fleet session not established")),
        }
    }

    /// The least-loaded healthy device with budget to spare.
    fn pick_device(&self) -> Option<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.health == DeviceHealth::Healthy && n.established < self.policy.per_device_budget
            })
            .min_by_key(|(i, n)| (n.established, *i))
            .map(|(i, _)| i)
    }

    /// Builds the typed load-shedding rejection, counting it.
    fn shed(&mut self) -> GuardNnError {
        let sessions = self.sessions.len();
        let capacity = self.capacity();
        self.recorder.add("fleet.shed", 1);
        if self.recorder.is_enabled() {
            self.recorder.event(
                "fleet.shed",
                &[
                    ("sessions", &sessions.to_string()),
                    ("capacity", &capacity.to_string()),
                ],
            );
        }
        GuardNnError::FleetOverloaded { sessions, capacity }
    }

    /// One logical scheduler step: advances the deterministic tick count
    /// and the attached manual clock (if any).
    fn tick(&mut self) {
        self.ticks += 1;
        if let Some(clock) = &self.clock {
            clock.advance(self.policy.step_ns);
        }
    }

    /// Consults `device`'s fault plan for the operation about to run,
    /// ticking its operation counter. Faults fire *instead of* the
    /// operation, so the device never saw it and a retry is safe.
    fn injected_fault(&mut self, d: usize) -> Option<GuardNnError> {
        if self.devices[d].health == DeviceHealth::Failed {
            return Some(GuardNnError::DeviceLost { device: d as u64 });
        }
        let node = &mut self.devices[d];
        let op = node.ops;
        node.ops += 1;
        match node.plan.fault_at(op) {
            Some(DeviceFault::Crash { .. }) => Some(GuardNnError::DeviceLost { device: d as u64 }),
            Some(DeviceFault::Hang { .. } | DeviceFault::Transient { .. }) => {
                Some(GuardNnError::DeviceTimeout { device: d as u64 })
            }
            None => None,
        }
    }

    /// Drives one operation at device `d` through the fault-injection
    /// seam with bounded-backoff retry: transient faults wait
    /// [`FleetPolicy::backoff_steps`] and re-drive (each attempt ticks
    /// the device's operation counter, so a fault window is consumed by
    /// the retries); a fatal fault — or a transient streak outlasting
    /// the retry budget — fails the device and surfaces
    /// [`GuardNnError::DeviceLost`].
    fn guarded<T>(
        &mut self,
        d: usize,
        mut op: impl FnMut(&mut DeviceServer) -> Result<T, GuardNnError>,
    ) -> Result<T, GuardNnError> {
        let mut attempt: u32 = 0;
        loop {
            match self.injected_fault(d) {
                Some(fault) if FaultClass::of(&fault) == FaultClass::Fatal => {
                    self.fail_device(d);
                    return Err(fault);
                }
                Some(fault) => {
                    self.recorder.add("fleet.faults.transient", 1);
                    if self.recorder.is_enabled() {
                        self.recorder.event(
                            "fleet.fault",
                            &[
                                ("device", &d.to_string()),
                                ("error", fault.name()),
                                ("attempt", &attempt.to_string()),
                            ],
                        );
                    }
                    if attempt >= self.policy.max_retries {
                        // Out of retry budget: a stall this long is
                        // indistinguishable from death — escalate.
                        self.fail_device(d);
                        return Err(GuardNnError::DeviceLost { device: d as u64 });
                    }
                    let wait = self.policy.backoff_steps(attempt);
                    self.recorder.observe("fleet.backoff_steps", wait);
                    for _ in 0..wait {
                        self.tick();
                    }
                    self.recorder.add("fleet.retries", 1);
                    if self.recorder.is_enabled() {
                        self.recorder.event(
                            "fleet.retry",
                            &[
                                ("device", &d.to_string()),
                                ("wait_steps", &wait.to_string()),
                            ],
                        );
                    }
                    attempt += 1;
                }
                None => {
                    self.tick();
                    return op(&mut self.devices[d].server);
                }
            }
        }
    }

    /// Marks device `d` failed and strands every session placed on it
    /// (server-side [`SessionState::Failed`](crate::server::SessionState)),
    /// so nothing resumes in place.
    fn fail_device(&mut self, d: usize) {
        if self.devices[d].health == DeviceHealth::Failed {
            return;
        }
        self.devices[d].health = DeviceHealth::Failed;
        self.recorder.add("fleet.faults.fatal", 1);
        if self.recorder.is_enabled() {
            self.recorder
                .event("fleet.device_failed", &[("device", &d.to_string())]);
        }
        self.update_health_gauge();
        let stranded: Vec<SessionId> = self
            .sessions
            .values()
            .filter(|s| s.device == Some(d))
            .filter_map(|s| s.inner)
            .collect();
        for inner in stranded {
            // The entry may already be gone (e.g. evicted); either way
            // the fleet session migrates off this device.
            let _ = self.devices[d].server.fail_session(inner);
        }
    }

    /// Runs the full placement sequence for a session at device `d`:
    /// connect (certificate check), key exchange, model re-import, and
    /// re-queue of every pending input — all through the guarded seam.
    fn place(
        &mut self,
        d: usize,
        user: &mut RemoteUser,
        integrity: bool,
        model: Option<&(Network, Vec<Vec<i32>>)>,
        pending: &[Vec<i32>],
    ) -> Result<SessionId, GuardNnError> {
        let inner = self.guarded(d, |srv| srv.connect(user))?;
        self.guarded(d, |srv| srv.establish(inner, user, integrity))?;
        if let Some((network, weights)) = model {
            self.guarded(d, |srv| srv.load_model(inner, user, network, weights))?;
        }
        for input in pending {
            self.guarded(d, |srv| srv.begin_infer(inner, user, input))?;
        }
        Ok(inner)
    }

    /// Binds `sid` to device `d` / inner session `inner`, updating
    /// placement counts and gauges.
    fn bind(
        &mut self,
        sid: FleetSessionId,
        d: usize,
        inner: SessionId,
    ) -> Result<(), GuardNnError> {
        self.devices[d].established += 1;
        let sess = self.session_mut(sid)?;
        sess.device = Some(d);
        sess.inner = Some(inner);
        self.update_session_gauge(d);
        Ok(())
    }

    /// Moves `sid` off its (dead) device: detach, drop the stale user
    /// channel, then re-place on the least-loaded healthy device —
    /// fresh key exchange, one weight re-import, every pending input
    /// re-queued. Candidates that die during placement are skipped.
    fn migrate(&mut self, sid: FleetSessionId, user: &mut RemoteUser) -> Result<(), GuardNnError> {
        let start_ns = self.recorder.now_ns();
        let (old_device, integrity, model, pending) = {
            let sess = self.session_mut(sid)?;
            let detached = (
                sess.device,
                sess.integrity,
                sess.model.clone(),
                sess.pending.iter().cloned().collect::<Vec<Vec<i32>>>(),
            );
            sess.device = None;
            sess.inner = None;
            detached
        };
        if let Some(d) = old_device {
            self.devices[d].established = self.devices[d].established.saturating_sub(1);
            self.update_session_gauge(d);
        }
        // The old channel's device-side half died with the device; drop
        // the user-side half so stale use fails loudly.
        user.reset_channel();
        loop {
            let Some(d) = self.pick_device() else {
                return Err(self.shed());
            };
            match self.place(d, user, integrity, model.as_ref(), &pending) {
                Ok(inner) => {
                    self.bind(sid, d, inner)?;
                    let sess = self.session_mut(sid)?;
                    sess.migrations += 1;
                    self.recorder.add("fleet.migrations", 1);
                    self.recorder.observe(
                        "fleet.recovery_ns",
                        self.recorder.now_ns().saturating_sub(start_ns),
                    );
                    if self.recorder.is_enabled() {
                        self.recorder.event(
                            "fleet.migrate",
                            &[
                                ("session", &sid.0.to_string()),
                                ("from", &old_device.map_or(-1i64, |d| d as i64).to_string()),
                                ("to", &d.to_string()),
                            ],
                        );
                    }
                    return Ok(());
                }
                Err(GuardNnError::DeviceLost { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn update_session_gauge(&self, d: usize) {
        if self.recorder.is_enabled() {
            self.recorder.set_gauge(
                &format!("fleet.device{d}.sessions"),
                self.devices[d].established as i64,
            );
        }
    }

    fn update_health_gauge(&self) {
        if self.recorder.is_enabled() {
            let healthy = self
                .devices
                .iter()
                .filter(|n| n.health == DeviceHealth::Healthy)
                .count();
            self.recorder
                .set_gauge("fleet.devices.healthy", healthy as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet;

    fn fleet_of(n: usize, policy: FleetPolicy) -> (FleetSupervisor, RemoteUser) {
        let mut devices = Vec::new();
        let mut maker = None;
        for i in 0..n {
            let (d, pk) = GuardNnDevice::provision(100 + i as u64, 4242);
            maker = Some(pk);
            devices.push(d);
        }
        let user = RemoteUser::new(maker.expect("at least one device"), 9);
        (FleetSupervisor::new(devices, policy), user)
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let policy = FleetPolicy::default();
        let schedule: Vec<u64> = (0..6).map(|a| policy.backoff_steps(a)).collect();
        assert_eq!(schedule, [1, 2, 4, 8, 8, 8]);
        // Degenerate bases never stall the schedule at zero.
        let zero = FleetPolicy {
            base_backoff: 0,
            ..policy
        };
        assert_eq!(zero.backoff_steps(0), 1);
        // Huge attempts saturate instead of overflowing.
        assert_eq!(policy.backoff_steps(200), 8);
    }

    #[test]
    fn fault_classification_splits_transient_from_fatal() {
        assert_eq!(
            FaultClass::of(&GuardNnError::DeviceTimeout { device: 0 }),
            FaultClass::Transient
        );
        assert_eq!(
            FaultClass::of(&GuardNnError::FleetOverloaded {
                sessions: 1,
                capacity: 1
            }),
            FaultClass::Transient
        );
        for fatal in [
            GuardNnError::DeviceLost { device: 0 },
            GuardNnError::ChannelAuth,
            GuardNnError::IntegrityViolation { chunk_addr: 0x40 },
            GuardNnError::CounterExhausted { counter: "CTR_IN" },
            GuardNnError::InvalidState("x"),
        ] {
            assert_eq!(FaultClass::of(&fatal), FaultClass::Fatal, "{fatal}");
        }
    }

    #[test]
    fn fault_plans_are_deterministic_and_windowed() {
        assert_eq!(
            DeviceFaultPlan::from_seed(7, 100),
            DeviceFaultPlan::from_seed(7, 100)
        );
        let plan = DeviceFaultPlan::transient(5, 2);
        assert_eq!(plan.fault_at(4), None);
        assert!(plan.fault_at(5).is_some() && plan.fault_at(6).is_some());
        assert_eq!(plan.fault_at(7), None);
        // A crash dominates an overlapping window and never clears.
        let plan = DeviceFaultPlan {
            faults: vec![
                DeviceFault::Transient { at: 3, count: 10 },
                DeviceFault::Crash { at: 4 },
            ],
        };
        assert!(matches!(
            plan.fault_at(3),
            Some(DeviceFault::Transient { .. })
        ));
        assert!(matches!(plan.fault_at(4), Some(DeviceFault::Crash { .. })));
        assert!(matches!(
            plan.fault_at(1_000_000),
            Some(DeviceFault::Crash { .. })
        ));
    }

    #[test]
    fn transient_burst_recovers_in_place_without_migration() {
        let policy = FleetPolicy::default();
        let (mut fleet, mut user) = fleet_of(1, policy);
        let clock = ManualClock::new();
        let rec = Recorder::builder().manual_clock(clock.clone()).build();
        fleet.set_recorder(rec.clone());
        fleet.set_manual_clock(clock);
        // Ops 2 and 3 (the model import attempt and its first retry)
        // time out; the second retry succeeds.
        fleet
            .set_fault_plan(DeviceId(0), DeviceFaultPlan::transient(2, 2))
            .unwrap();
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(5);
        let sid = fleet.connect().unwrap();
        fleet.establish(sid, &mut user, true).unwrap();
        fleet.load_model(sid, &mut user, &net, &weights).unwrap();
        let input = vec![3; 8];
        let out = fleet
            .infer_batch(sid, &mut user, std::slice::from_ref(&input))
            .unwrap();
        assert_eq!(out[0], testnet::tiny_mlp_reference(&weights, &input));
        assert_eq!(fleet.session_migrations(sid), Some(0));
        assert_eq!(
            fleet.device_health(DeviceId(0)),
            Some(DeviceHealth::Healthy)
        );
        let snap = rec.snapshot();
        assert_eq!(snap.counters["fleet.retries"], 2);
        assert_eq!(snap.counters["fleet.faults.transient"], 2);
        // Backoff schedule 1 then 2 steps, recorded exactly.
        let h = &snap.histograms["fleet.backoff_steps"];
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 1, 2, 3));
        assert!(!snap.counters.contains_key("fleet.migrations"));
    }

    #[test]
    fn hang_past_retry_budget_escalates_to_device_lost() {
        let policy = FleetPolicy {
            max_retries: 2,
            ..FleetPolicy::default()
        };
        let (mut fleet, mut user) = fleet_of(1, policy);
        fleet
            .set_fault_plan(DeviceId(0), DeviceFaultPlan::hang(0, 50))
            .unwrap();
        let sid = fleet.connect().unwrap();
        // The only device never comes back inside the retry budget, so
        // establish exhausts the fleet and sheds.
        let err = fleet.establish(sid, &mut user, true).unwrap_err();
        assert!(matches!(err, GuardNnError::FleetOverloaded { .. }), "{err}");
        assert_eq!(fleet.device_health(DeviceId(0)), Some(DeviceHealth::Failed));
        assert!(matches!(
            fleet.probe(DeviceId(0)),
            Err(GuardNnError::DeviceLost { device: 0 })
        ));
    }

    #[test]
    fn admission_sheds_typed_overload_and_drain_stops_admission() {
        let policy = FleetPolicy {
            per_device_budget: 1,
            ..FleetPolicy::default()
        };
        let (mut fleet, mut user) = fleet_of(1, policy);
        assert_eq!(fleet.capacity(), 1);
        let sid = fleet.connect().unwrap();
        let err = fleet.connect().unwrap_err();
        assert_eq!(
            err,
            GuardNnError::FleetOverloaded {
                sessions: 1,
                capacity: 1
            }
        );
        fleet.establish(sid, &mut user, false).unwrap();
        // Drain: the fleet stops admitting, but the in-flight session
        // still serves to completion on the draining device.
        fleet.drain(DeviceId(0)).unwrap();
        assert_eq!(fleet.capacity(), 0);
        assert!(matches!(
            fleet.connect(),
            Err(GuardNnError::FleetOverloaded { .. })
        ));
        let net = testnet::tiny_mlp();
        let weights = testnet::tiny_mlp_weights(2);
        fleet.load_model(sid, &mut user, &net, &weights).unwrap();
        let input = vec![1; 8];
        let out = fleet
            .infer_batch(sid, &mut user, std::slice::from_ref(&input))
            .unwrap();
        assert_eq!(out[0], testnet::tiny_mlp_reference(&weights, &input));
        fleet.disconnect(sid).unwrap();
        // Still no capacity after the drain — retirement is sticky.
        assert!(matches!(
            fleet.connect(),
            Err(GuardNnError::FleetOverloaded { .. })
        ));
    }
}
