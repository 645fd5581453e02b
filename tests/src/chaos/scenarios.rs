//! The scenario families: each mounts one scripted adversary against a
//! live session (or a full [`DeviceServer`] table) and its untampered
//! twin, reporting a [`ScenarioResult`] for the matrix driver to judge.
//!
//! Every scenario is self-contained — it provisions its own device(s),
//! so families can be fanned out across worker threads without sharing
//! state. The functional world has no plaintext mode, so a perf
//! [`Scheme`] maps onto the session's integrity flag via
//! [`integrity_of`](super::integrity_of).

use guardnn::adversary::{
    mount_physical_attack, park_counters, run_tampered_input_stream, AttackOutcome, Fault,
    FaultPlan, PhysicalFault,
};
use guardnn::device::{GuardNnDevice, MAX_SESSIONS};
use guardnn::fleet::{DeviceFaultPlan, DeviceId, FleetPolicy, FleetSessionId, FleetSupervisor};
use guardnn::perf::Scheme;
use guardnn::server::{DeviceServer, SessionId, SessionState, StepProgress};
use guardnn::session::RemoteUser;
use guardnn::testnet;
use guardnn::GuardNnError;
use guardnn_crypto::schnorr::VerifyingKey;
use guardnn_models::Network;

use super::{integrity_of, ChaosConfig, Outcome, ScenarioResult};
use crate::serve;

const WEIGHT_SEED: i32 = 7;

/// One single-session world with its model loaded: the serving host, the
/// session, its user, and the model both sides agreed on.
struct Rig {
    server: DeviceServer,
    sid: SessionId,
    user: RemoteUser,
    net: Network,
    weights: Vec<Vec<i32>>,
}

fn rig(scheme: Scheme, cfg: &ChaosConfig) -> Result<Rig, GuardNnError> {
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(WEIGHT_SEED);
    let (device, maker_pk) = GuardNnDevice::provision(cfg.seed ^ 0xD00D, cfg.seed ^ 0xFA);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(maker_pk, cfg.seed ^ 0x5EED);
    let sid = serve(&mut server, &mut user, &net, &weights, integrity_of(scheme))?;
    Ok(Rig {
        server,
        sid,
        user,
        net,
        weights,
    })
}

/// A deterministic 8-element input derived from `seed`.
fn base_input(seed: u64) -> Vec<i32> {
    (0..8)
        .map(|i| ((seed as i64 + i * 3) % 17 - 8) as i32)
        .collect()
}

/// Shared clean twin: a fresh rig's honest inference must be bit-exact
/// against the unprotected reference computation.
fn clean_twin(scheme: Scheme, cfg: &ChaosConfig) -> Result<bool, GuardNnError> {
    let mut c = rig(scheme, cfg)?;
    let input = base_input(cfg.seed);
    let out = c.server.infer(c.sid, &mut c.user, &input)?;
    Ok(out == testnet::tiny_mlp_reference(&c.weights, &input))
}

// ---------------------------------------------------------------------------
// Malicious-relay families: the host tampers with the sealed stream.
// ---------------------------------------------------------------------------

/// Drives a stream of sealed inputs through a [`MessageTap`] running
/// `fault` mid-stream. The injection point is clamped so drop/reorder
/// always have a successor message to surface on.
///
/// [`MessageTap`]: guardnn::adversary::MessageTap
fn host_fault(
    scheme: Scheme,
    cfg: &ChaosConfig,
    fault: Fault,
) -> Result<ScenarioResult, GuardNnError> {
    let len = cfg.stream_len.max(2);
    let inputs: Vec<Vec<i32>> = (0..len)
        .map(|k| base_input(cfg.seed.wrapping_add(k as u64)))
        .collect();
    let at = (len / 2).min(len - 2);
    let mut r = rig(scheme, cfg)?;
    let (_, err) = run_tampered_input_stream(
        r.server.device_mut(),
        &mut r.user,
        &inputs,
        FaultPlan { fault, at },
    )?;
    let tampered = match err {
        Some(e) => Outcome::Detected(e.name()),
        None => Outcome::Clean,
    };
    Ok(ScenarioResult {
        tampered,
        clean: clean_twin(scheme, cfg)?,
    })
}

pub(super) fn host_drop(s: Scheme, cfg: &ChaosConfig) -> Result<ScenarioResult, GuardNnError> {
    host_fault(s, cfg, Fault::Drop)
}

pub(super) fn host_replay(s: Scheme, cfg: &ChaosConfig) -> Result<ScenarioResult, GuardNnError> {
    host_fault(s, cfg, Fault::Replay)
}

pub(super) fn host_reorder(s: Scheme, cfg: &ChaosConfig) -> Result<ScenarioResult, GuardNnError> {
    host_fault(s, cfg, Fault::Reorder)
}

pub(super) fn host_corrupt(s: Scheme, cfg: &ChaosConfig) -> Result<ScenarioResult, GuardNnError> {
    host_fault(s, cfg, Fault::Corrupt { byte: 11 })
}

// ---------------------------------------------------------------------------
// Physical DRAM families.
// ---------------------------------------------------------------------------

fn physical(
    scheme: Scheme,
    cfg: &ChaosConfig,
    fault: PhysicalFault,
) -> Result<ScenarioResult, GuardNnError> {
    let input = base_input(cfg.seed);
    let mut r = rig(scheme, cfg)?;
    let outcome = mount_physical_attack(&mut r.server, r.sid, &mut r.user, &r.net, &input, fault)?;
    let tampered = match outcome {
        AttackOutcome::Detected(e) => Outcome::Detected(e.name()),
        AttackOutcome::Garbled { output, reference } => {
            if output == reference {
                Outcome::Clean
            } else {
                Outcome::Garbled
            }
        }
    };
    Ok(ScenarioResult {
        tampered,
        clean: clean_twin(scheme, cfg)?,
    })
}

pub(super) fn dram_bitflip(s: Scheme, cfg: &ChaosConfig) -> Result<ScenarioResult, GuardNnError> {
    physical(s, cfg, PhysicalFault::FeatureBitFlip { edge: 1 })
}

pub(super) fn dram_stale_replay(
    s: Scheme,
    cfg: &ChaosConfig,
) -> Result<ScenarioResult, GuardNnError> {
    physical(s, cfg, PhysicalFault::StaleFeatureReplay { edge: 1 })
}

// ---------------------------------------------------------------------------
// Server-table families.
// ---------------------------------------------------------------------------

/// Preemption storm: every session of a (clamped) full server table runs
/// one inference, single-instruction round-robin so every step context
/// switches, with session 0's read counter poisoned mid-job. The victim
/// must detect (integrity) or garble; every bystander must stay
/// bit-exact.
pub(super) fn preempt_storm(
    scheme: Scheme,
    cfg: &ChaosConfig,
) -> Result<ScenarioResult, GuardNnError> {
    let integrity = integrity_of(scheme);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(WEIGHT_SEED);
    let n = cfg.sessions.clamp(2, MAX_SESSIONS);
    let (device, maker_pk) = GuardNnDevice::provision(cfg.seed ^ 0xBEEF, cfg.seed ^ 0xB1);
    let mut server = DeviceServer::new(device);
    let mut users = Vec::with_capacity(n);
    let mut sids = Vec::with_capacity(n);
    let mut inputs = Vec::with_capacity(n);
    for i in 0..n {
        let mut user = RemoteUser::new(maker_pk.clone(), cfg.seed.wrapping_add(i as u64 * 11 + 1));
        let sid = serve(&mut server, &mut user, &net, &weights, integrity)?;
        let input = base_input(cfg.seed.wrapping_add(i as u64));
        server.begin_infer(sid, &mut user, &input)?;
        users.push(user);
        sids.push(sid);
        inputs.push(input);
    }
    // Poison the victim's edge-1 read counter with a VN it never wrote.
    server.poison_read_ctr(sids[0], 1, (1 << 32) | 77)?;

    let mut done = vec![false; n];
    let mut victim_err: Option<GuardNnError> = None;
    while done.iter().any(|d| !d) {
        for i in 0..n {
            if done[i] {
                continue;
            }
            match server.step(sids[i]) {
                Ok(StepProgress::Working) => {}
                Ok(StepProgress::Finished | StepProgress::Idle) => done[i] = true,
                Err(e) if i == 0 => {
                    victim_err = Some(e);
                    server.cancel_jobs(sids[0])?;
                    done[0] = true;
                }
                Err(e) => return Err(e),
            }
        }
    }
    let tampered = match victim_err {
        Some(e) => Outcome::Detected(e.name()),
        None => {
            let reference = testnet::tiny_mlp_reference(&weights, &inputs[0]);
            match server.take_output(sids[0], &mut users[0])? {
                Some(out) if out == reference => Outcome::Clean,
                _ => Outcome::Garbled,
            }
        }
    };
    // Clean part: the schedule really did context-switch per step, and
    // every bystander's output is bit-exact despite the storm.
    let mut clean = server.stats().count("SELECTSESSION") >= n as u64;
    for i in 1..n {
        let reference = testnet::tiny_mlp_reference(&weights, &inputs[i]);
        let out = server.take_output(sids[i], &mut users[i])?;
        clean &= out.as_deref() == Some(reference.as_slice());
    }
    Ok(ScenarioResult { tampered, clean })
}

/// Mid-batch cancellation churn: three queued jobs, cancelled four
/// instructions in (one sealed input delivered, two flushed), then a
/// fresh batch must be bit-exact; finally a corrupted sealed wire is
/// injected and must be refused.
pub(super) fn cancel_churn(
    scheme: Scheme,
    cfg: &ChaosConfig,
) -> Result<ScenarioResult, GuardNnError> {
    let integrity = integrity_of(scheme);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(WEIGHT_SEED);
    let (device, maker_pk) = GuardNnDevice::provision(cfg.seed ^ 0xCAFE, cfg.seed ^ 0xC2);
    let mut server = DeviceServer::new(device);
    let mut user = RemoteUser::new(maker_pk, cfg.seed ^ 0xAB);
    let sid = serve(&mut server, &mut user, &net, &weights, integrity)?;

    let batch: Vec<Vec<i32>> = (0..3).map(|k| vec![k + 1; 8]).collect();
    for input in &batch {
        server.begin_infer(sid, &mut user, input)?;
    }
    for _ in 0..4 {
        server.step(sid)?;
    }
    let mut clean = server.cancel_jobs(sid)? == batch.len();
    let outputs = server.infer_batch(sid, &mut user, &batch)?;
    clean &= outputs.len() == batch.len();
    for (out, input) in outputs.iter().zip(&batch) {
        clean &= *out == testnet::tiny_mlp_reference(&weights, input);
    }
    // Tampered last — an accepted injection would desync the session, a
    // rejected one burns it either way.
    let mut wire = user.encrypt_tensor(&[5; 8])?;
    wire[0] ^= 0x01;
    let tampered = match server.inject_sealed_input(sid, wire) {
        Err(e) => Outcome::Detected(e.name()),
        Ok(_) => Outcome::Clean,
    };
    Ok(ScenarioResult { tampered, clean })
}

/// LRU-eviction churn: fill the device's on-chip table, let the
/// (MAX_SESSIONS + 1)-th establish evict the least-recently-used idle
/// session, re-establish the evictee and run a bit-exact inference —
/// then flip a weight bit in its freshly reloaded model and re-infer.
pub(super) fn lru_churn(scheme: Scheme, cfg: &ChaosConfig) -> Result<ScenarioResult, GuardNnError> {
    let integrity = integrity_of(scheme);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(WEIGHT_SEED);
    let (device, maker_pk) = GuardNnDevice::provision(cfg.seed ^ 0x10B0, cfg.seed ^ 0x3C);
    let mut server = DeviceServer::new(device);
    let mut users = Vec::with_capacity(MAX_SESSIONS);
    let mut sids = Vec::with_capacity(MAX_SESSIONS);
    for i in 0..MAX_SESSIONS {
        let mut user = RemoteUser::new(maker_pk.clone(), cfg.seed.wrapping_add(i as u64 * 7 + 5));
        let sid = server.connect(&mut user)?;
        server.establish(sid, &mut user, integrity)?;
        users.push(user);
        sids.push(sid);
    }
    // The table is full: the newcomer's establish must evict session 0
    // (least recently stepped, idle) back to Provisioned.
    let mut newcomer = RemoteUser::new(maker_pk, cfg.seed ^ 0x9999);
    let nsid = server.connect(&mut newcomer)?;
    server.establish(nsid, &mut newcomer, integrity)?;
    let mut clean = server.session_state(sids[0]) == Some(SessionState::Provisioned);

    // The evictee re-keys onto the (again full) table and serves bit-exact.
    server.establish(sids[0], &mut users[0], integrity)?;
    server.load_model(sids[0], &mut users[0], &net, &weights)?;
    let input = base_input(cfg.seed);
    let reference = testnet::tiny_mlp_reference(&weights, &input);
    clean &= server.infer(sids[0], &mut users[0], &input)? == reference;

    // Tamper the re-imported weights behind the device's back.
    let addr = server.device_mut().weight_region(0)?;
    server.device_mut().physical_dram_mut()?.tamper(addr, 0x01);
    let tampered = match server.infer(sids[0], &mut users[0], &input) {
        Err(e @ GuardNnError::IntegrityViolation { .. }) => Outcome::Detected(e.name()),
        Err(e) => return Err(e),
        Ok(out) if out == reference => Outcome::Clean,
        Ok(_) => Outcome::Garbled,
    };
    Ok(ScenarioResult { tampered, clean })
}

// ---------------------------------------------------------------------------
// Counter exhaustion.
// ---------------------------------------------------------------------------

/// Counter exhaustion at the u32 boundary: with `CTR_IN` parked at
/// `u32::MAX`, the next sealed input must be refused *before* a version
/// number reuse — and a fresh key exchange on the same slot must restore
/// bit-exact service.
pub(super) fn ctr_exhaust(
    scheme: Scheme,
    cfg: &ChaosConfig,
) -> Result<ScenarioResult, GuardNnError> {
    let mut r = rig(scheme, cfg)?;
    let input = base_input(cfg.seed);
    let reference = testnet::tiny_mlp_reference(&r.weights, &input);
    let mut clean = r.server.infer(r.sid, &mut r.user, &input)? == reference;

    park_counters(r.server.device_mut(), u32::MAX, 0, 0)?;
    let message = r.user.encrypt_tensor(&input)?;
    let tampered = match r.server.inject_sealed_input(r.sid, message) {
        Err(e) => Outcome::Detected(e.name()),
        Ok(_) => Outcome::Clean,
    };

    // Recovery: re-key (the host closes the old slot first), then the
    // same user infers bit-exact again under the fresh counters.
    r.server.disconnect(r.sid)?;
    let sid = serve(
        &mut r.server,
        &mut r.user,
        &r.net,
        &r.weights,
        integrity_of(scheme),
    )?;
    clean &= r.server.infer(sid, &mut r.user, &input)? == reference;
    Ok(ScenarioResult { tampered, clean })
}

// ---------------------------------------------------------------------------
// Fleet families: device failover over a FleetSupervisor.
// ---------------------------------------------------------------------------

/// A fleet of `devices` servers provisioned by one manufacturer, plus a
/// user pinning that manufacturer's key (so one user can verify every
/// device's certificate across migrations).
fn fleet_rig(
    cfg: &ChaosConfig,
    devices: usize,
    budget: usize,
) -> (FleetSupervisor, RemoteUser, VerifyingKey) {
    let maker_seed = cfg.seed ^ 0xF1EE7;
    let mut fleet_devices = Vec::new();
    let mut maker = None;
    for i in 0..devices {
        let (d, pk) = GuardNnDevice::provision(0x10 + i as u64, maker_seed);
        maker = Some(pk);
        fleet_devices.push(d);
    }
    let maker = maker.expect("at least one device");
    let user = RemoteUser::new(maker.clone(), cfg.seed ^ 0x5EED);
    let policy = FleetPolicy {
        per_device_budget: budget,
        ..FleetPolicy::default()
    };
    (FleetSupervisor::new(fleet_devices, policy), user, maker)
}

/// Runs one batch through the fleet and reports whether every output is
/// bit-exact against the unprotected reference.
fn fleet_batch_exact(
    fleet: &mut FleetSupervisor,
    sid: FleetSessionId,
    user: &mut RemoteUser,
    weights: &[Vec<i32>],
    cfg: &ChaosConfig,
) -> Result<bool, GuardNnError> {
    let len = cfg.stream_len.max(2);
    let inputs: Vec<Vec<i32>> = (0..len)
        .map(|k| base_input(cfg.seed.wrapping_add(k as u64)))
        .collect();
    let outputs = fleet.infer_batch(sid, user, &inputs)?;
    Ok(outputs.len() == inputs.len()
        && inputs
            .iter()
            .zip(&outputs)
            .all(|(i, o)| *o == testnet::tiny_mlp_reference(weights, i)))
}

/// Device crash mid-batch: the session must migrate to the healthy
/// device (fresh key exchange, one weight re-import) and finish the
/// batch bit-exact. The tampered observation is the dead device's typed
/// probe error.
pub(super) fn fleet_crash_migrate(
    scheme: Scheme,
    cfg: &ChaosConfig,
) -> Result<ScenarioResult, GuardNnError> {
    let (mut fleet, mut user, _) = fleet_rig(cfg, 2, FleetPolicy::default().per_device_budget);
    // Ops 0..2 are connect/establish/load, 3.. begin the batch; op 12 is
    // well inside the first job's instruction stream.
    fleet.set_fault_plan(DeviceId(0), DeviceFaultPlan::crash_at(12))?;
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(WEIGHT_SEED);
    let sid = fleet.connect()?;
    fleet.establish(sid, &mut user, integrity_of(scheme))?;
    fleet.load_model(sid, &mut user, &net, &weights)?;
    let mut clean = fleet_batch_exact(&mut fleet, sid, &mut user, &weights, cfg)?;
    clean &= fleet.session_migrations(sid) == Some(1);
    clean &= fleet.session_device(sid) == Some(DeviceId(1));
    let tampered = match fleet.probe(DeviceId(0)) {
        Err(e) => Outcome::Detected(e.name()),
        Ok(()) => Outcome::Clean,
    };
    Ok(ScenarioResult { tampered, clean })
}

/// Device crash during the key exchange: `establish` must fail over to
/// the healthy device transparently — a clean re-establish, no typed
/// error surfacing to the session.
pub(super) fn fleet_keyx_crash(
    scheme: Scheme,
    cfg: &ChaosConfig,
) -> Result<ScenarioResult, GuardNnError> {
    let (mut fleet, mut user, _) = fleet_rig(cfg, 2, FleetPolicy::default().per_device_budget);
    // Op 0 is the certificate fetch, op 1 the key exchange itself.
    fleet.set_fault_plan(DeviceId(0), DeviceFaultPlan::crash_at(1))?;
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(WEIGHT_SEED);
    let sid = fleet.connect()?;
    fleet.establish(sid, &mut user, integrity_of(scheme))?;
    let mut clean = fleet.session_device(sid) == Some(DeviceId(1));
    fleet.load_model(sid, &mut user, &net, &weights)?;
    clean &= fleet_batch_exact(&mut fleet, sid, &mut user, &weights, cfg)?;
    let tampered = match fleet.probe(DeviceId(0)) {
        Err(e) => Outcome::Detected(e.name()),
        Ok(()) => Outcome::Clean,
    };
    Ok(ScenarioResult { tampered, clean })
}

/// Admission control: a one-device, one-session fleet must shed the
/// second session with the typed overload rejection — and admit it
/// cleanly (bit-exact service) once the first session disconnects.
pub(super) fn fleet_overload(
    scheme: Scheme,
    cfg: &ChaosConfig,
) -> Result<ScenarioResult, GuardNnError> {
    let (mut fleet, mut user_a, maker) = fleet_rig(cfg, 1, 1);
    let net = testnet::tiny_mlp();
    let weights = testnet::tiny_mlp_weights(WEIGHT_SEED);
    let sid_a = fleet.connect()?;
    fleet.establish(sid_a, &mut user_a, integrity_of(scheme))?;
    fleet.load_model(sid_a, &mut user_a, &net, &weights)?;
    let mut clean = fleet_batch_exact(&mut fleet, sid_a, &mut user_a, &weights, cfg)?;

    // The fleet is at capacity: the next admission must shed, typed.
    let tampered = match fleet.connect() {
        Err(e) => Outcome::Detected(e.name()),
        Ok(_) => Outcome::Clean,
    };

    // Shedding is not a wedge: once the slot frees, a second user is
    // admitted and served bit-exact.
    fleet.disconnect(sid_a)?;
    let mut user_b = RemoteUser::new(maker, cfg.seed ^ 0xB0B);
    let sid_b = fleet.connect()?;
    fleet.establish(sid_b, &mut user_b, integrity_of(scheme))?;
    fleet.load_model(sid_b, &mut user_b, &net, &weights)?;
    clean &= fleet_batch_exact(&mut fleet, sid_b, &mut user_b, &weights, cfg)?;
    Ok(ScenarioResult { tampered, clean })
}
