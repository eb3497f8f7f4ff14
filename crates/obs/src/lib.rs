//! Pipeline-wide observability substrate (DESIGN.md §12).
//!
//! The paper's contribution is workload *characterization* — per-phase
//! time breakdowns (Fig. 7), thread scaling (Fig. 10) — so the
//! reproduction needs first-class instrumentation, not ad-hoc timers.
//! This crate provides, with zero dependencies:
//!
//! * lock-free [`Counter`] / [`Gauge`] scalars (single relaxed atomics),
//! * a fixed-bucket log2 [`Histogram`] with p50/p95/p99 estimation,
//! * named [`Span`] timers for the pipeline phases,
//! * a sharded [`Registry`] with snapshot-on-read semantics, and
//! * Prometheus-text and JSON exporters over [`Snapshot`].
//!
//! # The `Recorder` contract
//!
//! Every instrumentation point in the workspace goes through a
//! [`Recorder`] handle. A recorder is either *disabled* — every
//! operation is an inlined no-op on a `None`, so the zero-metrics path
//! stays measurably free — or bound to a registry, in which case
//! resolving a metric takes a brief sharded lock **once** and the
//! returned handle records with nothing but relaxed atomic increments.
//! Long-lived subsystems (the serve stack) own their own
//! `Arc<Registry>`; batch runs use the process-global registry, switched
//! on by [`set_global_enabled`] (the CLI's `--metrics-out` does this) and
//! reached via [`Recorder::global`], whose cost when disabled is one
//! relaxed bool load.

mod export;
mod histogram;
mod metric;
mod registry;
mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Duration;

pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use metric::{Counter, Gauge};
pub use registry::{MetricValue, Registry, Snapshot};
pub use span::Span;

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL_REGISTRY: LazyLock<Arc<Registry>> = LazyLock::new(|| Arc::new(Registry::new()));

/// Turns the process-global recorder on or off. Off by default; the CLI
/// enables it when `--metrics-out` is given, before the run starts.
pub fn set_global_enabled(on: bool) {
    GLOBAL_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`Recorder::global`] currently records (one relaxed load).
#[inline]
pub fn global_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry ([`Recorder::global`] records here).
/// Always accessible for snapshotting, even while recording is disabled.
pub fn global_registry() -> Arc<Registry> {
    Arc::clone(&GLOBAL_REGISTRY)
}

/// This process's peak resident set size (`VmHWM`) in bytes, read from
/// `/proc/self/status`. `None` off Linux or when the field is missing.
///
/// The high-water mark is monotone over the process lifetime — it can
/// only tell *which earlier allocation was largest*, so comparative
/// measurements must run the lower-memory candidate first.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: "VmHWM:   123456 kB".
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Entry point for instrumentation: either a no-op or a binding to one
/// [`Registry`]. Cheap to clone (an `Option<Arc>`).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    registry: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder whose every operation is a no-op.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// A recorder bound to `registry`.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self { registry: Some(registry) }
    }

    /// The process-global recorder: bound to [`global_registry`] when
    /// [`global_enabled`] is set, disabled otherwise.
    #[inline]
    pub fn global() -> Self {
        if global_enabled() {
            Self::with_registry(global_registry())
        } else {
            Self::disabled()
        }
    }

    /// Whether any metric recorded through this handle goes anywhere.
    /// Guards for instrumentation that must pay setup cost (clock reads,
    /// scratch) only when someone is listening.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The bound registry, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Resolves a counter handle (no-op handle when disabled).
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle(self.registry.as_ref().map(|r| r.counter(name)))
    }

    /// Resolves a gauge handle (no-op handle when disabled).
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle(self.registry.as_ref().map(|r| r.gauge(name)))
    }

    /// Resolves a histogram handle (no-op handle when disabled).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.registry.as_ref().map(|r| r.histogram(name)))
    }

    /// Starts a [`Span`] recording into histogram `name` (a disabled
    /// recorder yields a span that never reads the clock).
    pub fn span(&self, name: &str) -> Span {
        match &self.registry {
            Some(r) => Span::started(r.histogram(name)),
            None => Span::disabled(),
        }
    }

    /// Records `d` (as nanoseconds) into histogram `name`; convenience
    /// for call sites that already hold an elapsed duration.
    pub fn record_duration(&self, name: &str, d: Duration) {
        if let Some(r) = &self.registry {
            r.histogram(name).record_duration(d);
        }
    }
}

/// Pre-resolved counter; `inc`/`add` are a single relaxed atomic add, or
/// nothing at all when the handle came from a disabled recorder.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    /// A handle that records nowhere.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.inc();
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }
}

/// Pre-resolved gauge handle (see [`CounterHandle`]).
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<Gauge>>);

impl GaugeHandle {
    /// A handle that records nowhere.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.add(n);
        }
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.sub(n);
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Current value (0 when disabled).
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

/// Pre-resolved histogram handle (see [`CounterHandle`]).
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// A handle that records nowhere.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if let Some(h) = &self.0 {
            h.record_duration(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter("c").inc();
        rec.gauge("g").add(1);
        rec.histogram("h").record(1);
        rec.span("s").stop();
        rec.record_duration("d", Duration::from_nanos(1));
        assert!(rec.registry().is_none());
    }

    #[test]
    fn bound_recorder_routes_to_registry() {
        let reg = Arc::new(Registry::new());
        let rec = Recorder::with_registry(Arc::clone(&reg));
        rec.counter("c_total").add(2);
        rec.gauge("g").set(5);
        rec.histogram("h_ns").record(999);
        rec.record_duration("d_ns", Duration::from_micros(1));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total"), Some(2));
        assert_eq!(snap.gauge("g"), Some(5));
        assert_eq!(snap.histogram("h_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("d_ns").unwrap().sum, 1_000);
    }

    #[cfg(not(miri))] // Span reads the wall clock
    #[test]
    fn span_routes_to_registry() {
        let reg = Arc::new(Registry::new());
        let rec = Recorder::with_registry(Arc::clone(&reg));
        rec.span("phase_ns{phase=\"x\"}").stop();
        assert_eq!(reg.snapshot().histogram("phase_ns{phase=\"x\"}").unwrap().count, 1);
    }

    #[cfg(not(miri))] // reads /proc
    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let hwm = peak_rss_bytes().expect("Linux exposes VmHWM");
            // A running test binary occupies at least a megabyte and the
            // value is kB-granular.
            assert!(hwm >= 1 << 20, "implausible VmHWM {hwm}");
            assert_eq!(hwm % 1024, 0);
        }
    }

    #[test]
    fn global_recorder_follows_enable_flag() {
        // Serialized against nothing: the global flag defaults to off and
        // only this test (in-crate) flips it, so restore it when done.
        assert!(!global_enabled());
        assert!(!Recorder::global().is_enabled());
        set_global_enabled(true);
        let rec = Recorder::global();
        assert!(rec.is_enabled());
        rec.counter("obs_selftest_total").inc();
        set_global_enabled(false);
        assert!(!Recorder::global().is_enabled());
        // The registry outlives the flag: snapshots still see the data.
        assert_eq!(global_registry().snapshot().counter("obs_selftest_total"), Some(1));
    }
}
