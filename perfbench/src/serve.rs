//! Secure-serving churn: a two-device `FleetSupervisor` keeps
//! [`LIVE_SESSIONS`] GuardNN_CI sessions live. Each session connects,
//! establishes a key, loads a small functional CNN, runs
//! [`INFERENCES_PER_SESSION`] inferences with one input outstanding, and
//! disconnects; a new user takes its place. One thread steps the
//! live sessions round-robin, one instruction each, so every step switches
//! the device's context.

use std::collections::BTreeMap;
use std::time::Instant;

use guardnn::fleet::{FleetPolicy, FleetSessionId, FleetSupervisor};
use guardnn::memory::{DeviceMemory, ELEM_BYTES};
use guardnn::server::{InstructionStats, StepProgress};
use guardnn::{nn, testnet, GuardNnDevice, GuardNnError, RemoteUser};
use guardnn_crypto::schnorr::VerifyingKey;
use guardnn_memprot::functional::ProtectedMemory;
use guardnn_models::layer::{conv, fc};
use guardnn_models::Network;
use guardnn_obs::Recorder;

use crate::report::{Metrics, Tally};
use crate::stats::{median, min, tail, Rng};

/// Sessions kept live at once (two per device).
pub const LIVE_SESSIONS: usize = 4;
/// Inferences each session runs before it disconnects.
pub const INFERENCES_PER_SESSION: usize = 10;
/// Serving metrics are taken over stretches of this many consecutive
/// inferences (or sessions), one starting every tenth of a stretch; a
/// stretch holds enough samples for its p99 (p90 for sessions) to have ten
/// beyond it. A timed run also serves in windows of this many inferences,
/// between its simulation sweeps.
const WINDOW_INFERENCES: usize = 1000;
const WINDOW_SESSIONS: usize = 100;
/// Sessions in each slice of the traced run.
const TRACE_SESSIONS: usize = 100;
/// Distinct weight sets and inputs the seed draws; every served output is
/// checked against the reference computed for its pair.
const WEIGHT_SETS: usize = 4;
const INPUTS: usize = 16;

/// The served network: conv 8×8×4→8, conv 8×8×8→8, fc 512→10.
pub fn serving_cnn() -> Network {
    Network::new(
        "perfbench-cnn",
        vec![
            conv("conv1", 8, 4, 8, 3, 1, 1),
            conv("conv2", 8, 8, 8, 3, 1, 1),
            fc("fc", 1, 8 * 8 * 8, 10),
        ],
    )
}

/// A provisioned fleet plus the seeded model, inputs and reference
/// outputs of one run.
pub struct ServeSetup {
    pub fleet: FleetSupervisor,
    manufacturer_pk: VerifyingKey,
    net: Network,
    weights: Vec<Vec<Vec<i32>>>,
    inputs: Vec<Vec<i32>>,
    /// `references[w][i]`: the plaintext forward pass of input `i` under
    /// weight set `w`.
    references: Vec<Vec<Vec<i32>>>,
    rng: Rng,
}

/// Provisions two devices from one manufacturer under the default fleet
/// policy and draws the weights, inputs and user seeds from `seed`.
pub fn setup(seed: u64) -> ServeSetup {
    let mut rng = Rng::new(seed ^ 0x5E2F_E000_0000_0000);
    let device_seed = rng.next_u64();
    let (d0, manufacturer_pk) = GuardNnDevice::provision(1, device_seed);
    let (d1, _) = GuardNnDevice::provision(2, device_seed);
    let fleet = FleetSupervisor::new(vec![d0, d1], FleetPolicy::default());
    let net = serving_cnn();
    let weights: Vec<Vec<Vec<i32>>> = (0..WEIGHT_SETS)
        .map(|_| {
            net.layers()
                .iter()
                .map(|l| (0..l.weight_elems()).map(|_| rng.small_i32()).collect())
                .collect()
        })
        .collect();
    let input_elems = net.layers()[0].input_elems();
    let inputs: Vec<Vec<i32>> = (0..INPUTS)
        .map(|_| (0..input_elems).map(|_| rng.small_i32()).collect())
        .collect();
    let references = weights
        .iter()
        .map(|w| {
            inputs
                .iter()
                .map(|x| testnet::reference_forward(&net, w, x))
                .collect()
        })
        .collect();
    ServeSetup {
        fleet,
        manufacturer_pk,
        net,
        weights,
        inputs,
        references,
        rng,
    }
}

/// The instructions one `step` issued: the job's work instruction plus the
/// context-switch overhead (`SelectSession` and `SetReadCTR` replays).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepAttribution {
    /// The work instruction (`None` when the step issued none).
    pub work: Option<&'static str>,
    pub selects: u64,
    pub replays: u64,
    /// Every instruction the step issued, of any mnemonic.
    pub total: u64,
}

/// Attributes the instructions issued between two snapshots of a device's
/// [`InstructionStats`] to one step.
pub fn attribute(before: &InstructionStats, after: &InstructionStats) -> StepAttribution {
    let delta = |m: &str| after.count(m) - before.count(m);
    let read_ctrs = delta("SETREADCTR");
    let work = [
        ("FORWARD", "Forward"),
        ("SETINPUT", "SetInput"),
        ("EXPORTOUTPUT", "ExportOutput"),
    ]
    .into_iter()
    .find(|(m, _)| delta(m) > 0)
    .map(|(_, label)| label)
    .or((read_ctrs > 0).then_some("SetReadCTR"));
    StepAttribution {
        work,
        selects: delta("SELECTSESSION"),
        replays: read_ctrs - u64::from(work == Some("SetReadCTR")),
        total: after.total() - before.total(),
    }
}

/// The process-wide crypto counters: AES blocks, CMAC tags, SHA-256
/// compressions, modular exponentiations.
const CRYPTO_COUNTERS: [&str; 4] = [
    "crypto.aes_blocks",
    "crypto.cmac_tags",
    "crypto.sha256_compressions",
    "crypto.modexp",
];

fn crypto_counts() -> [u64; 4] {
    let snap = Recorder::global().snapshot();
    CRYPTO_COUNTERS.map(|c| snap.counters.get(c).copied().unwrap_or(0))
}

/// What the traced loop records around each fleet call.
#[derive(Debug, Default)]
struct ServeTrace {
    connect_ms: Vec<f64>,
    establish_ms: Vec<f64>,
    load_ms: Vec<f64>,
    step_us: BTreeMap<&'static str, Vec<f64>>,
    step_instrs: u64,
    work_instrs: u64,
    setup_ns: u64,
    infer_ns: u64,
    teardown_ns: u64,
    /// Crypto counter deltas over set-up and teardown calls, and over
    /// inference calls.
    crypto_session: [u64; 4],
    crypto_infer: [u64; 4],
    /// (weight set, input) of every verified inference, for the replay.
    served: Vec<(usize, usize)>,
}

impl ServeTrace {
    /// Runs one fleet call, adding its wall time and crypto work to the
    /// given buckets.
    fn call<T>(ns: &mut u64, crypto: &mut [u64; 4], f: impl FnOnce() -> T) -> (T, f64) {
        let before = crypto_counts();
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let after = crypto_counts();
        for (acc, (a, b)) in crypto.iter_mut().zip(after.iter().zip(before)) {
            *acc += a - b;
        }
        *ns += elapsed.as_nanos() as u64;
        (out, elapsed.as_secs_f64())
    }
}

/// One live session.
struct Slot {
    sid: FleetSessionId,
    user: RemoteUser,
    weights: usize,
    done: usize,
    /// The input in flight and when it was submitted.
    in_flight: Option<(usize, Instant)>,
}

/// The live sessions of a churn loop. They stay live across measurement
/// windows, and the time between windows is not charged to the
/// inferences they have in flight.
pub struct Churn {
    slots: Vec<Option<Slot>>,
    /// The slot the round-robin visits next.
    next: usize,
    paused_at: Option<Instant>,
}

impl Churn {
    pub fn new() -> Self {
        Self {
            slots: (0..LIVE_SESSIONS).map(|_| None).collect(),
            next: 0,
            paused_at: None,
        }
    }
}

/// When a serving loop stops.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// Once this many more inferences have been verified; the live
    /// sessions stay live.
    Inferences(usize),
    /// Once this many sessions have started and every one has finished.
    Sessions(usize),
}

/// Failed operations after which one serving loop gives up, so a broken
/// build ends with a failed result instead of looping.
const MAX_FAILURES: u64 = 100;

/// What the serving of a run measured.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Latency of each verified inference, in completion order.
    pub infer_ms: Vec<f64>,
    /// Host seconds spent serving when each of those inferences was
    /// verified. The clock stops between windows, so no stretch spans a
    /// simulation sweep.
    infer_at_s: Vec<f64>,
    /// Set-up time of each session, in start order.
    pub session_ms: Vec<f64>,
    /// Serving seconds of the windows before the current one, and when the
    /// current one started.
    served_s: f64,
    window_start: Option<Instant>,
}

fn open_session(
    s: &mut ServeSetup,
    trace: &mut Option<&mut ServeTrace>,
) -> Result<(Slot, f64), (Option<FleetSessionId>, GuardNnError)> {
    let mut user = RemoteUser::new(s.manufacturer_pk.clone(), s.rng.next_u64());
    let weights = s.rng.below(WEIGHT_SETS as u64) as usize;
    let start = Instant::now();
    let (sid, establish, load) = match trace {
        None => {
            let sid = s.fleet.connect().map_err(|e| (None, e))?;
            s.fleet
                .establish(sid, &mut user, true)
                .map_err(|e| (Some(sid), e))?;
            s.fleet
                .load_model(sid, &mut user, &s.net, &s.weights[weights])
                .map_err(|e| (Some(sid), e))?;
            (sid, None, None)
        }
        Some(t) => {
            let fleet = &mut s.fleet;
            let (sid, connect) =
                ServeTrace::call(&mut t.setup_ns, &mut t.crypto_session, || fleet.connect());
            let sid = sid.map_err(|e| (None, e))?;
            let (r, establish) = ServeTrace::call(&mut t.setup_ns, &mut t.crypto_session, || {
                fleet.establish(sid, &mut user, true)
            });
            r.map_err(|e| (Some(sid), e))?;
            let (net, w) = (&s.net, &s.weights[weights]);
            let (r, load) = ServeTrace::call(&mut t.setup_ns, &mut t.crypto_session, || {
                fleet.load_model(sid, &mut user, net, w)
            });
            r.map_err(|e| (Some(sid), e))?;
            t.connect_ms.push(connect * 1e3);
            (sid, Some(establish), Some(load))
        }
    };
    let session_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(t) = trace {
        t.establish_ms.push(establish.unwrap_or_default() * 1e3);
        t.load_ms.push(load.unwrap_or_default() * 1e3);
    }
    Ok((
        Slot {
            sid,
            user,
            weights,
            done: 0,
            in_flight: None,
        },
        session_ms,
    ))
}

fn close_session(
    s: &mut ServeSetup,
    sid: FleetSessionId,
    trace: &mut Option<&mut ServeTrace>,
) -> bool {
    match trace {
        None => s.fleet.disconnect(sid).is_ok(),
        Some(t) => {
            let fleet = &mut s.fleet;
            ServeTrace::call(&mut t.teardown_ns, &mut t.crypto_session, || {
                fleet.disconnect(sid)
            })
            .0
            .is_ok()
        }
    }
}

/// Advances one live session by one instruction: submits its next input
/// when none is in flight, steps it, and on a finished job verifies the
/// output against the plaintext reference. Returns whether the session
/// has run all its inferences, or the error that ended it.
fn advance(
    s: &mut ServeSetup,
    slot: &mut Slot,
    trace: &mut Option<&mut ServeTrace>,
    out: &mut ServeOutcome,
    tally: &mut Tally,
) -> Result<bool, GuardNnError> {
    let fleet = &mut s.fleet;
    if slot.in_flight.is_none() {
        let input = s.rng.below(INPUTS as u64) as usize;
        let x = &s.inputs[input];
        let submitted = Instant::now();
        match trace {
            None => fleet.submit(slot.sid, &mut slot.user, x)?,
            Some(t) => {
                let user = &mut slot.user;
                ServeTrace::call(&mut t.infer_ns, &mut t.crypto_infer, || {
                    fleet.submit(slot.sid, user, x)
                })
                .0?
            }
        }
        slot.in_flight = Some((input, submitted));
    }
    let progress = match trace {
        None => fleet.step(slot.sid, &mut slot.user)?,
        Some(t) => {
            let device = fleet
                .session_device(slot.sid)
                .ok_or(GuardNnError::InvalidState("session has no device"))?;
            let before = fleet.device_stats(device).cloned().unwrap_or_default();
            let user = &mut slot.user;
            let (progress, secs) = ServeTrace::call(&mut t.infer_ns, &mut t.crypto_infer, || {
                fleet.step(slot.sid, user)
            });
            let after = fleet.device_stats(device).cloned().unwrap_or_default();
            let a = attribute(&before, &after);
            t.step_instrs += a.total;
            if let Some(work) = a.work {
                t.work_instrs += 1;
                t.step_us.entry(work).or_default().push(secs * 1e6);
            }
            progress?
        }
    };
    if progress != StepProgress::Finished {
        return Ok(false);
    }
    let output = match trace {
        None => fleet.take(slot.sid)?,
        Some(t) => {
            ServeTrace::call(&mut t.infer_ns, &mut t.crypto_infer, || {
                fleet.take(slot.sid)
            })
            .0?
        }
    };
    let (input, submitted) = slot.in_flight.take().ok_or(GuardNnError::InvalidState(
        "finished with nothing in flight",
    ))?;
    let ok = output.as_ref() == Some(&s.references[slot.weights][input]);
    tally.record(ok);
    if ok {
        let now = Instant::now();
        out.infer_ms.push((now - submitted).as_secs_f64() * 1e3);
        let window = out.window_start.map_or(0.0, |w| (now - w).as_secs_f64());
        out.infer_at_s.push(out.served_s + window);
        if let Some(t) = trace {
            t.served.push((slot.weights, input));
        }
    }
    slot.done += 1;
    Ok(slot.done == INFERENCES_PER_SESSION)
}

/// The serving loop: steps the live sessions round-robin, one instruction
/// each, and replaces every session that finishes. Each session set-up
/// counts as one operation and each inference as one; a typed error fails
/// the operation it ended and closes the session. Returns the loop's host
/// seconds.
fn drive(
    s: &mut ServeSetup,
    churn: &mut Churn,
    stop: Stop,
    mut trace: Option<&mut ServeTrace>,
    tally: &mut Tally,
    out: &mut ServeOutcome,
) -> f64 {
    let start = Instant::now();
    if let Some(paused) = churn.paused_at.take() {
        let pause = start - paused;
        for slot in churn.slots.iter_mut().flatten() {
            if let Some((_, submitted)) = &mut slot.in_flight {
                *submitted += pause;
            }
        }
    }
    out.window_start = Some(start);
    let (served_before, failed_before) = (out.infer_ms.len(), tally.failed);
    let mut started = 0usize;
    loop {
        let may_start = match stop {
            Stop::Inferences(_) => true,
            Stop::Sessions(n) => started < n,
        };
        let done = match stop {
            Stop::Inferences(n) => out.infer_ms.len() - served_before >= n,
            Stop::Sessions(_) => !may_start && churn.slots.iter().all(Option::is_none),
        };
        if done || tally.failed - failed_before > MAX_FAILURES {
            break;
        }
        let k = churn.next;
        churn.next = (k + 1) % LIVE_SESSIONS;
        let entry = &mut churn.slots[k];
        if entry.is_none() {
            if !may_start {
                continue;
            }
            started += 1;
            match open_session(s, &mut trace) {
                Ok((slot, ms)) => {
                    tally.record(true);
                    out.session_ms.push(ms);
                    *entry = Some(slot);
                }
                Err((sid, _)) => {
                    tally.record(false);
                    if let Some(sid) = sid {
                        close_session(s, sid, &mut trace);
                    }
                    continue;
                }
            }
        }
        let Some(slot) = entry.as_mut() else { continue };
        match advance(s, slot, &mut trace, out, tally) {
            Ok(false) => {}
            Ok(true) => {
                let sid = slot.sid;
                *entry = None;
                if !close_session(s, sid, &mut trace) {
                    tally.record(false);
                }
            }
            Err(_) => {
                tally.record(false);
                let sid = slot.sid;
                *entry = None;
                close_session(s, sid, &mut trace);
            }
        }
    }
    let now = Instant::now();
    churn.paused_at = Some(now);
    let secs = (now - start).as_secs_f64();
    out.served_s += secs;
    out.window_start = None;
    secs
}

/// One round of churn before measuring, so the allocator and caches are
/// warm; its samples are dropped.
pub fn warm_up(s: &mut ServeSetup, churn: &mut Churn, tally: &mut Tally) {
    let stop = Stop::Inferences(LIVE_SESSIONS * INFERENCES_PER_SESSION);
    drive(s, churn, stop, None, tally, &mut ServeOutcome::default());
}

/// One measurement window: serves until [`WINDOW_INFERENCES`] more
/// inferences are verified.
pub fn window(s: &mut ServeSetup, churn: &mut Churn, tally: &mut Tally, out: &mut ServeOutcome) {
    let stop = Stop::Inferences(WINDOW_INFERENCES);
    drive(s, churn, stop, None, tally, out);
}

/// Start indices of the stretches of `size` consecutive samples among `n`,
/// one every tenth of a stretch.
fn stretches(n: usize, size: usize) -> impl Iterator<Item = usize> {
    (0..(n + 1).saturating_sub(size)).step_by(size / 10)
}

impl ServeOutcome {
    /// Stretches of inferences and of sessions the run measured.
    pub fn stretches(&self) -> (usize, usize) {
        (
            stretches(self.infer_ms.len(), WINDOW_INFERENCES).count(),
            stretches(self.session_ms.len(), WINDOW_SESSIONS).count(),
        )
    }
}

/// The serving end-to-end metrics, each reported for the run's best
/// stretch (min-of-N): other tenants of a shared host slow the loop in
/// bursts, and the best stretch is the one they disturbed least.
pub fn report(out: &ServeOutcome, metrics: &mut Metrics) -> Result<(), String> {
    if out.stretches().0 == 0 || out.stretches().1 == 0 {
        return Err("too few samples for one stretch: raise the serving budget".to_string());
    }
    let best = |values: &[f64], size: usize, stat: &dyn Fn(&[f64]) -> f64| -> f64 {
        let per_stretch: Vec<f64> = stretches(values.len(), size)
            .map(|k| stat(&values[k..k + size]))
            .collect();
        min(&per_stretch)
    };
    let tail_of = |q: f64| move |w: &[f64]| tail(w, q).expect("a stretch supports its tail");
    let (infers, sessions) = (&out.infer_ms, &out.session_ms);
    // Serving seconds each stretch of inferences took.
    let durations: Vec<f64> = stretches(infers.len(), WINDOW_INFERENCES)
        .map(|k| {
            let begin = if k == 0 { 0.0 } else { out.infer_at_s[k - 1] };
            out.infer_at_s[k + WINDOW_INFERENCES - 1] - begin
        })
        .collect();
    metrics.set(
        "infer_ms_p50",
        best(infers, WINDOW_INFERENCES, &median),
        "ms",
    );
    metrics.set(
        "infer_ms_p99",
        best(infers, WINDOW_INFERENCES, &tail_of(0.99)),
        "ms",
    );
    metrics.set(
        "infer_per_s",
        WINDOW_INFERENCES as f64 / min(&durations),
        "1/s",
    );
    metrics.set(
        "session_ms_p50",
        best(sessions, WINDOW_SESSIONS, &median),
        "ms",
    );
    metrics.set(
        "session_ms_p90",
        best(sessions, WINDOW_SESSIONS, &tail_of(0.90)),
        "ms",
    );
    Ok(())
}

/// Replays the device's functional work for every served inference —
/// `SetInput`'s feature write, each `Forward`'s reads, kernel and write,
/// and `ExportOutput`'s read — calling `ProtectedMemory` and
/// `nn::forward_layer` directly on the served layers, operands and byte
/// ranges, and times each call. Returns (memory ns, kernel ns, mismatches).
fn replay(s: &ServeSetup, served: &[(usize, usize)]) -> (u64, u64, u64) {
    const K_MENC: [u8; 16] = [0x42; 16];
    const K_MAC: [u8; 16] = [0x24; 16];
    let layout = DeviceMemory::new(ProtectedMemory::new(&K_MENC, None), &s.net);
    let mut mem = ProtectedMemory::new(&K_MENC, Some(K_MAC));
    let bytes = |v: &[i32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let ints = |b: &[u8]| {
        b.chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect::<Vec<i32>>()
    };
    let (mut mem_ns, mut nn_ns, mut mismatches) = (0u64, 0u64, 0u64);
    let timed = |acc: &mut u64, start: Instant| *acc += start.elapsed().as_nanos() as u64;
    let layers = s.net.layers();
    let weight_vn = 1u64;
    let mut loaded = None;
    let mut vn = 1u64;
    for &(w, i) in served {
        // Weight import belongs to session set-up, so it is not timed.
        if loaded != Some(w) {
            for (l, layer) in layers.iter().enumerate() {
                if layer.has_weights() {
                    mem.write(layout.weight_region(l), &bytes(&s.weights[w][l]), weight_vn);
                }
            }
            loaded = Some(w);
        }
        vn += 1;
        let t = Instant::now();
        mem.write(layout.feature_region(0), &bytes(&s.inputs[i]), vn);
        timed(&mut mem_ns, t);
        let mut out = Vec::new();
        for (l, layer) in layers.iter().enumerate() {
            let t = Instant::now();
            let input = mem
                .read(
                    layout.feature_region(l),
                    (layer.input_elems() * ELEM_BYTES) as usize,
                    vn,
                )
                .map(|b| ints(&b));
            let weights = if layer.has_weights() {
                mem.read(
                    layout.weight_region(l),
                    (layer.weight_elems() * ELEM_BYTES) as usize,
                    weight_vn,
                )
                .map(|b| ints(&b))
            } else {
                Ok(Vec::new())
            };
            timed(&mut mem_ns, t);
            let (Ok(input), Ok(weights)) = (input, weights) else {
                mismatches += 1;
                break;
            };
            let t = Instant::now();
            let y = nn::forward_layer(layer, &input, &weights);
            timed(&mut nn_ns, t);
            let Ok(y) = y else {
                mismatches += 1;
                break;
            };
            vn += 1;
            let t = Instant::now();
            mem.write(layout.feature_region(l + 1), &bytes(&y), vn);
            timed(&mut mem_ns, t);
            out = y;
        }
        let t = Instant::now();
        let exported = mem
            .read(
                layout.feature_region(layers.len()),
                out.len() * ELEM_BYTES as usize,
                vn,
            )
            .map(|b| ints(&b));
        timed(&mut mem_ns, t);
        if exported.as_ref() != Ok(&s.references[w][i]) {
            mismatches += 1;
        }
    }
    (mem_ns, nn_ns, mismatches)
}

/// Untraced and traced slices alternate this many times in a traced run;
/// each kind's fastest slice is reported (min-of-N, as the timed run).
pub const TRACE_PAIRS: usize = 2;

/// The traced serving phase: slices of [`TRACE_SESSIONS`] sessions,
/// alternately untraced and with every fleet call timed and attributed,
/// then the functional replay of the fastest traced slice's inferences.
pub fn traced(
    s: &mut ServeSetup,
    fleet_recorder: &Recorder,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> ServeOutcome {
    let slice = Stop::Sessions(TRACE_SESSIONS);
    let mut untraced_s = f64::INFINITY;
    let mut best: Option<(f64, ServeTrace, ServeOutcome)> = None;
    for _ in 0..TRACE_PAIRS {
        let mut out = ServeOutcome::default();
        untraced_s = untraced_s.min(drive(s, &mut Churn::new(), slice, None, tally, &mut out));
        let mut t = ServeTrace::default();
        let mut out = ServeOutcome::default();
        let secs = drive(s, &mut Churn::new(), slice, Some(&mut t), tally, &mut out);
        if best.as_ref().is_none_or(|(b, _, _)| secs < *b) {
            best = Some((secs, t, out));
        }
    }
    let (traced_s, t, out) = best.expect("at least one traced slice");
    let (mem_ns, nn_ns, mismatches) = replay(s, &t.served);
    for _ in 0..mismatches {
        tally.record(false);
    }

    let inferences = t.served.len().max(1) as f64;
    let sessions = t.load_ms.len().max(1) as f64;
    metrics.set("session.connect_ms_p50", median(&t.connect_ms), "ms");
    metrics.set("session.establish_ms_p50", median(&t.establish_ms), "ms");
    metrics.set("session.load_ms_p50", median(&t.load_ms), "ms");
    for label in ["SetInput", "SetReadCTR", "Forward", "ExportOutput"] {
        let us = t.step_us.get(label).map_or(0.0, |v| median(v));
        metrics.set(format!("server.step_us.{label}"), us, "us");
    }
    metrics.set(
        "server.instr_per_infer",
        t.step_instrs as f64 / inferences,
        "count",
    );
    metrics.set(
        "server.useful_instr_ratio",
        t.work_instrs as f64 / t.step_instrs.max(1) as f64,
        "ratio",
    );
    metrics.set(
        "memprot.functional_us_per_infer",
        mem_ns as f64 / 1e3 / inferences,
        "us",
    );
    metrics.set(
        "nn.forward_us_per_infer",
        nn_ns as f64 / 1e3 / inferences,
        "us",
    );
    metrics.set(
        "crypto.aes_blocks_per_infer",
        t.crypto_infer[0] as f64 / inferences,
        "count",
    );
    metrics.set(
        "crypto.cmac_tags_per_infer",
        t.crypto_infer[1] as f64 / inferences,
        "count",
    );
    metrics.set(
        "crypto.sha256_per_session",
        t.crypto_session[2] as f64 / sessions,
        "count",
    );
    metrics.set(
        "crypto.modexp_per_session",
        t.crypto_session[3] as f64 / sessions,
        "count",
    );
    let counters = fleet_recorder.snapshot().counters;
    for c in ["fleet.retries", "fleet.migrations", "fleet.shed"] {
        let n = counters.get(c).copied().unwrap_or(0);
        metrics.set(c, n as f64, "count");
        tally.record(n == 0);
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    let calls = t.setup_ns + t.infer_ns + t.teardown_ns;
    metrics.set("serve.setup_calls_s", secs(t.setup_ns), "s");
    metrics.set("serve.infer_calls_s", secs(t.infer_ns), "s");
    metrics.set("serve.teardown_calls_s", secs(t.teardown_ns), "s");
    metrics.set("serve.residual_s", traced_s - secs(calls), "s");
    metrics.set("serve.traced_wall_s", traced_s, "s");
    metrics.set("serve.untraced_wall_s", untraced_s, "s");
    metrics.set("serve.trace_overhead_s", traced_s - untraced_s, "s");
    metrics.set("serve.replay_s", secs(mem_ns + nn_ns), "s");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_attributions_sum_to_the_instruction_total() {
        let mut s = setup(11);
        let mut tally = Tally::default();
        let mut slots = Vec::new();
        for _ in 0..LIVE_SESSIONS {
            let (slot, _) = open_session(&mut s, &mut None).expect("session opens");
            slots.push(slot);
        }
        let totals = |s: &ServeSetup| -> u64 {
            (0..2)
                .map(|d| {
                    s.fleet
                        .device_stats(guardnn::DeviceId(d))
                        .map_or(0, InstructionStats::total)
                })
                .sum()
        };
        let start = totals(&s);
        let mut t = ServeTrace::default();
        let mut out = ServeOutcome::default();
        let mut attributed = 0;
        for _ in 0..3 * INFERENCES_PER_SESSION {
            for slot in &mut slots {
                let before = t.step_instrs;
                advance(&mut s, slot, &mut Some(&mut t), &mut out, &mut tally).expect("step");
                attributed += t.step_instrs - before;
            }
        }
        assert_eq!(attributed, totals(&s) - start);
        assert_eq!(tally.failed, 0);
        assert!(tally.attempted > 0);
        // Every step did one unit of work, and round-robin stepping makes
        // every step pay a context switch.
        let steps: usize = t.step_us.values().map(Vec::len).sum();
        assert_eq!(t.work_instrs as usize, steps);
        assert!(t.step_instrs > 2 * t.work_instrs);
    }

    #[test]
    fn attribution_separates_work_from_replays() {
        let mut s = setup(5);
        // Placement is least-loaded first, so `a` and `b` share device 0.
        let (mut a, _) = open_session(&mut s, &mut None).expect("session opens");
        let _other_device = open_session(&mut s, &mut None).expect("session opens");
        let (mut b, _) = open_session(&mut s, &mut None).expect("session opens");
        let mut tally = Tally::default();
        let mut out = ServeOutcome::default();
        // Run `a` to its first Forward, then switch to `b` and back: the
        // switch back replays a's SetReadCTR range.
        for _ in 0..2 {
            advance(&mut s, &mut a, &mut None, &mut out, &mut tally).expect("step");
        }
        advance(&mut s, &mut b, &mut None, &mut out, &mut tally).expect("step");
        let device = s.fleet.session_device(a.sid).expect("placed");
        assert_eq!(
            s.fleet.session_device(b.sid),
            Some(device),
            "both on one device"
        );
        let before = s.fleet.device_stats(device).cloned().expect("device");
        advance(&mut s, &mut a, &mut None, &mut out, &mut tally).expect("step");
        let after = s.fleet.device_stats(device).cloned().expect("device");
        let attr = attribute(&before, &after);
        assert_eq!(attr.work, Some("Forward"));
        assert_eq!(attr.selects, 1);
        assert_eq!(attr.replays, 1);
        assert_eq!(attr.total, 3);
    }

    #[test]
    fn stretches_slide_by_a_tenth_and_stay_whole() {
        let starts = |n, size| stretches(n, size).collect::<Vec<usize>>();
        assert_eq!(starts(999, 1000), Vec::<usize>::new());
        assert_eq!(starts(1000, 1000), [0]);
        assert_eq!(starts(1099, 1000), [0]);
        assert_eq!(starts(1100, 1000), [0, 100]);
        assert_eq!(starts(125, 100), [0, 10, 20]);
    }

    #[test]
    fn replay_reproduces_the_reference_outputs() {
        let s = setup(3);
        let served: Vec<(usize, usize)> = (0..8).map(|k| (k % WEIGHT_SETS, k % INPUTS)).collect();
        let (mem_ns, nn_ns, mismatches) = replay(&s, &served);
        assert_eq!(mismatches, 0);
        assert!(mem_ns > 0 && nn_ns > 0);
    }
}
