//! Zero-dependency observability for the GuardNN stack.
//!
//! The whole workspace reports into this one crate: monotonic counters,
//! last-write-wins gauges, log-linear latency [histograms](hist) with
//! bounded-error p50/p90/p99/p99.9 queries, bounded
//! [time-series](series), scoped [`Span`] timers, and a drop-oldest
//! structured [event journal](journal) — all behind a cloneable
//! [`Recorder`] handle. A *disabled* recorder (the default) carries no
//! allocation and every call is a single `Option` check, so
//! instrumented hot paths cost nothing unless observability is switched
//! on via [`Recorder::global`] (the `GUARDNN_OBS` environment variable)
//! or an explicit [`Recorder::enabled`]/[`Recorder::builder`] handle.
//!
//! Time flows through a [`clock::Clock`]: wall time by default, or a
//! hand-advanced [`clock::ManualClock`] so tests assert exact latencies.
//!
//! # Example: spans land in histograms
//!
//! ```
//! use guardnn_obs::clock::ManualClock;
//! use guardnn_obs::Recorder;
//!
//! let clock = ManualClock::new();
//! let rec = Recorder::builder().manual_clock(clock.clone()).build();
//!
//! for step_ns in [1_000u64, 3_000] {
//!     let _span = rec.span("demo.step_ns"); // records on drop
//!     clock.advance(step_ns);
//! }
//! rec.add("demo.steps", 2);
//!
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["demo.steps"], 2);
//! let h = &snap.histograms["demo.step_ns"];
//! assert_eq!((h.count, h.min, h.max), (2, 1_000, 3_000));
//! assert!(h.p50 >= 1_000 && h.p50 <= 1_032); // <= 1/32 relative error
//! ```
//!
//! # Example: disabled recorders are inert
//!
//! ```
//! let rec = guardnn_obs::Recorder::disabled();
//! rec.add("never", 1);
//! assert!(!rec.is_enabled());
//! assert!(rec.snapshot().counters.is_empty());
//! ```

#![deny(missing_docs)]

pub mod clock;
pub mod hist;
pub mod journal;
pub mod series;
pub mod snapshot;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::clock::{Clock, ManualClock};
use crate::hist::Histogram;
use crate::journal::Journal;
use crate::series::Series;
use crate::snapshot::{HistSummary, SeriesSnapshot, Snapshot};

/// Default bound on retained journal events.
const DEFAULT_JOURNAL_CAPACITY: usize = 1024;
/// Default bound on retained points per time-series.
const DEFAULT_SERIES_CAPACITY: usize = 512;

/// Environment variable that switches the process-global recorder on.
///
/// Truthy values: `1`, `on`, `true`, `yes` (case-insensitive).
pub const ENV_OBS: &str = "GUARDNN_OBS";

/// The process-global recorder, initialized once on first use.
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// All collected metric state behind one lock.
#[derive(Debug)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Series>,
    journal: Journal,
}

/// Shared core of an enabled recorder.
#[derive(Debug)]
struct Inner {
    clock: Clock,
    series_capacity: usize,
    state: Mutex<State>,
}

/// A cloneable metrics handle; `None` inner means fully disabled.
///
/// Clones share the same underlying store. The default value is the
/// disabled recorder.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder: every method is an `Option` check.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled recorder on the wall clock with default buffer bounds.
    pub fn enabled() -> Self {
        Self::builder().build()
    }

    /// Starts configuring an enabled recorder.
    pub fn builder() -> RecorderBuilder {
        RecorderBuilder::default()
    }

    /// The process-global recorder.
    ///
    /// First use reads [`ENV_OBS`]; unless that makes it enabled (or
    /// [`Recorder::install_global`] ran earlier) the global stays the
    /// disabled no-op, which is what instrumented library code sees by
    /// default.
    pub fn global() -> &'static Recorder {
        GLOBAL.get_or_init(|| {
            let on = std::env::var(ENV_OBS)
                .map(|v| {
                    matches!(
                        v.trim().to_ascii_lowercase().as_str(),
                        "1" | "on" | "true" | "yes"
                    )
                })
                .unwrap_or(false);
            if on {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            }
        })
    }

    /// Installs `rec` as the process-global recorder.
    ///
    /// Returns `false` if the global was already initialized (by an
    /// earlier call or an earlier [`Recorder::global`] read); call this
    /// at the top of `main`, before any instrumented code runs.
    pub fn install_global(rec: Recorder) -> bool {
        GLOBAL.set(rec).is_ok()
    }

    /// Whether this handle actually collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock reading in nanoseconds (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Adds `n` to the counter `name`. Only the first update of a
    /// counter allocates its name.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(mut st) = self.lock() {
            match st.counters.get_mut(name) {
                Some(c) => *c = c.saturating_add(n),
                None => {
                    st.counters.insert(name.to_string(), n);
                }
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: i64) {
        if let Some(mut st) = self.lock() {
            st.gauges.insert(name.to_string(), value);
        }
    }

    /// Records `value` into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(mut st) = self.lock() {
            st.hists.entry(name.to_string()).or_default().record(value);
        }
    }

    /// Appends `(x, y)` to the bounded time-series `name`.
    pub fn sample(&self, name: &str, x: u64, y: f64) {
        if let Some(inner) = &self.inner {
            let cap = inner.series_capacity;
            if let Some(mut st) = self.lock() {
                st.series
                    .entry(name.to_string())
                    .or_insert_with(|| Series::new(cap))
                    .push(x, y);
            }
        }
    }

    /// Appends a structured event to the journal.
    pub fn event(&self, kind: &str, fields: &[(&str, &str)]) {
        if let Some(inner) = &self.inner {
            let t_ns = inner.clock.now_ns();
            if let Some(mut st) = self.lock() {
                st.journal.push(t_ns, kind, fields);
            }
        }
    }

    /// Opens a scoped timer; dropping the returned [`Span`] records the
    /// elapsed clock time into the histogram `name`.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            Some(inner) => Span {
                state: Some((self.clone(), name.to_string(), inner.clock.now_ns())),
            },
            None => Span { state: None },
        }
    }

    /// Copies out everything collected so far.
    pub fn snapshot(&self) -> Snapshot {
        let Some(st) = self.lock() else {
            return Snapshot::default();
        };
        Snapshot {
            enabled: true,
            counters: st.counters.clone(),
            gauges: st.gauges.clone(),
            histograms: st
                .hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistSummary {
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min(),
                            max: h.max(),
                            p50: h.quantile(0.50),
                            p90: h.quantile(0.90),
                            p99: h.quantile(0.99),
                            p999: h.quantile(0.999),
                        },
                    )
                })
                .collect(),
            series: st
                .series
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        SeriesSnapshot {
                            dropped: s.dropped(),
                            points: s.points().iter().copied().collect(),
                        },
                    )
                })
                .collect(),
            events_dropped: st.journal.dropped(),
            events: st.journal.entries().iter().cloned().collect(),
        }
    }

    /// Locks the state; a poisoned lock is recovered, never propagated.
    fn lock(&self) -> Option<MutexGuard<'_, State>> {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Configures an enabled [`Recorder`].
#[derive(Debug)]
pub struct RecorderBuilder {
    clock: Clock,
    journal_capacity: usize,
    series_capacity: usize,
}

impl Default for RecorderBuilder {
    fn default() -> Self {
        Self {
            clock: Clock::wall(),
            journal_capacity: DEFAULT_JOURNAL_CAPACITY,
            series_capacity: DEFAULT_SERIES_CAPACITY,
        }
    }
}

impl RecorderBuilder {
    /// Drives all span timers and event timestamps from `clock`.
    pub fn manual_clock(mut self, clock: ManualClock) -> Self {
        self.clock = Clock::manual(clock);
        self
    }

    /// Caps the event journal at `capacity` entries (min 1).
    pub fn journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// Caps every time-series at `capacity` points (min 1).
    pub fn series_capacity(mut self, capacity: usize) -> Self {
        self.series_capacity = capacity;
        self
    }

    /// Builds the enabled recorder.
    pub fn build(self) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                clock: self.clock,
                series_capacity: self.series_capacity,
                state: Mutex::new(State {
                    counters: BTreeMap::new(),
                    gauges: BTreeMap::new(),
                    hists: BTreeMap::new(),
                    series: BTreeMap::new(),
                    journal: Journal::new(self.journal_capacity),
                }),
            })),
        }
    }
}

/// Scoped timer returned by [`Recorder::span`]; records on drop.
#[derive(Debug)]
#[must_use = "a span records when dropped; binding it to `_` drops immediately"]
pub struct Span {
    state: Option<(Recorder, String, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((rec, name, start)) = self.state.take() {
            let elapsed = rec.now_ns().saturating_sub(start);
            rec.observe(&name, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let rec = Recorder::disabled();
        rec.add("c", 1);
        rec.set_gauge("g", 2);
        rec.observe("h", 3);
        rec.sample("s", 4, 5.0);
        rec.event("e", &[("k", "v")]);
        drop(rec.span("sp"));
        let snap = rec.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty() && snap.events.is_empty());
    }

    #[test]
    fn clones_share_one_store() {
        let rec = Recorder::enabled();
        let other = rec.clone();
        rec.add("n", 1);
        other.add("n", 2);
        assert_eq!(rec.snapshot().counters["n"], 3);
    }

    #[test]
    fn manual_clock_gives_exact_spans_and_timestamps() {
        let clock = ManualClock::new();
        let rec = Recorder::builder().manual_clock(clock.clone()).build();
        clock.set(100);
        rec.event("boot", &[]);
        {
            let _span = rec.span("t");
            clock.advance(250);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events[0].t_ns, 100);
        assert_eq!(snap.histograms["t"].max, 250);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let rec = Recorder::enabled();
        rec.set_gauge("depth", 7);
        rec.set_gauge("depth", 3);
        assert_eq!(rec.snapshot().gauges["depth"], 3);
    }
}
