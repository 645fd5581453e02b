//! GuardNN: a secure DNN accelerator architecture model.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: a functional model of the GuardNN device — a DNN
//! accelerator that keeps every confidential tensor encrypted outside its
//! trust boundary — together with the remote-user protocol, the untrusted
//! host's scheduler, adversary models, and the performance-evaluation glue.
//!
//! * [`isa`] — the GuardNN instruction set (`GetPK`, `InitSession`,
//!   `SetWeight`, `SetInput`, `Forward`, `SetReadCTR`, `ExportOutput`,
//!   `SignOutput`).
//! * [`device`] — the trusted accelerator: private key + certificate,
//!   session state, on-chip version counters, protected DRAM, and a real
//!   (functional) integer DNN execution engine.
//! * [`session`] — the remote user: device authentication, key exchange,
//!   tensor encryption, output decryption, attestation verification.
//! * [`attestation`] — instruction/operand hash chain and signed reports.
//! * [`nn`] — integer tensor kernels (conv / GEMM / pooling / embedding)
//!   used for functional execution.
//! * [`memory`] — the device's DRAM layout on top of
//!   [`guardnn_memprot::functional::ProtectedMemory`].
//! * [`server`] — the untrusted host's one protocol scheduler, the
//!   multi-session [`server::DeviceServer`]: one device, N interleaved
//!   user sessions, explicit per-session state machines, the `CTR_F,R`
//!   bookkeeping the paper offloads to the host, `SetReadCTR`
//!   checkpoint/replay on preemption, and ISA-level input batching
//!   (`infer_batch`).
//! * [`fleet`] — fault-tolerant fleet supervision over M servers:
//!   scripted device faults ([`fleet::DeviceFaultPlan`]), transient-vs-
//!   fatal classification with bounded backoff, session migration, and
//!   typed load shedding ([`fleet::FleetSupervisor`]).
//! * [`adversary`] — scripted fault injection ([`adversary::FaultPlan`]
//!   message-stream faults, [`adversary::PhysicalFault`] DRAM attacks)
//!   and the malicious host's `SetReadCTR` primitives, shared by the
//!   security suites, the chaos harness, and the examples.
//! * [`perf`] — one-call performance evaluation used by the benchmark
//!   harness (network × {NP, BP, GuardNN_C, GuardNN_CI} → cycles/traffic).
//!
//! # Example: end-to-end private inference
//!
//! ```
//! use guardnn::device::GuardNnDevice;
//! use guardnn::server::DeviceServer;
//! use guardnn::session::RemoteUser;
//! use guardnn::testnet;
//!
//! # fn main() -> Result<(), guardnn::GuardNnError> {
//! let (device, manufacturer_pk) = GuardNnDevice::provision(7, 1);
//! let mut server = DeviceServer::new(device);
//! let mut user = RemoteUser::new(manufacturer_pk, 99);
//!
//! let net = testnet::tiny_mlp();
//! let weights = testnet::tiny_mlp_weights(3);
//! let input = vec![1, -2, 3, 4, -5, 6, 7, -8];
//!
//! // The untrusted host relays ciphertext only: certificate check, key
//! // exchange, encrypted weights, then one encrypted inference.
//! let session = server.connect(&mut user)?;
//! server.establish(session, &mut user, true)?;
//! server.load_model(session, &mut user, &net, &weights)?;
//! let output = server.infer(session, &mut user, &input)?;
//! assert_eq!(output, testnet::tiny_mlp_reference(&weights, &input));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod adversary;
pub mod attestation;
pub mod device;
pub mod error;
pub mod fleet;
pub mod isa;
pub mod memory;
pub mod nn;
pub mod perf;
pub mod server;
pub mod session;
pub mod testnet;

pub use device::GuardNnDevice;
pub use error::GuardNnError;
pub use fleet::{DeviceFaultPlan, DeviceId, FleetPolicy, FleetSessionId, FleetSupervisor};
pub use isa::{Instruction, Response};
pub use server::{DeviceServer, SessionId, SessionState};
pub use session::RemoteUser;
