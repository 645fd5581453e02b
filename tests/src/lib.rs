//! Integration test crate for the GuardNN workspace.
//!
//! Besides hosting the cross-crate integration suites under `tests/`,
//! this crate exports the [`chaos`] security harness: a declarative
//! scenario layer that mounts scripted adversaries (malicious relays,
//! DRAM tampering, preemption storms, counter exhaustion) across the
//! full (scheme × channel-mode × parallelism) evaluation grid. The
//! harness is a library so both the in-tree chaos tests and the
//! `guardnn-bench` `chaos` binary drive the exact same matrix.

#![deny(missing_docs)]

pub mod chaos;

use guardnn::server::{DeviceServer, SessionId};
use guardnn::session::RemoteUser;
use guardnn::GuardNnError;
use guardnn_models::Network;

/// Admits `user` to `server` with `network` loaded — `connect` →
/// `establish` → `load_model`, the honest set-up every served-session
/// suite starts from.
///
/// # Errors
///
/// Whatever the three protocol steps surface.
pub fn serve(
    server: &mut DeviceServer,
    user: &mut RemoteUser,
    network: &Network,
    weights: &[Vec<i32>],
    integrity: bool,
) -> Result<SessionId, GuardNnError> {
    let sid = server.connect(user)?;
    server.establish(sid, user, integrity)?;
    server.load_model(sid, user, network, weights)?;
    Ok(sid)
}
