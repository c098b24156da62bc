//! The global recorder: an `AtomicBool` gate in front of preallocated
//! per-thread event rings.
//!
//! * **Disabled** (the default), every recording call is one relaxed
//!   atomic load and a branch — cheap enough to leave in the CG hot loop.
//! * **Enabled**, a recording call locks the calling thread's own ring
//!   (uncontended in steady state) and writes one fixed-size
//!   [`SpanEvent`] into storage sized up front — no allocation.  When a
//!   ring fills, further events are counted as dropped, never reallocated.
//!
//! Threads register their ring lazily on first use after an
//! [`Recorder::install`]; that one-time registration allocates, which is
//! why callers that must prove allocation-freedom (see
//! `tests/alloc_free.rs`) warm the recorder up with one throwaway
//! recording first — exactly the pattern already used for `CgScratch`.

use crate::clock::ObsClock;
use crate::drift::DriftSample;
use crate::event::{LabelId, SpanEvent};
use crate::metrics::MetricsRegistry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Recorder configuration for [`Recorder::install`].
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// The time source span stamps come from.
    pub clock: ObsClock,
    /// Capacity of each per-thread event ring.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            clock: ObsClock::Modeled,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

/// One thread's preallocated event storage.
struct Ring {
    events: Vec<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Append without ever growing the allocation.
    fn push(&mut self, event: SpanEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

/// Interned label table: stable ids for runtime strings (backend names,
/// stages) so hot-path events carry a `u32` instead of a `String`.
#[derive(Default)]
struct LabelTable {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl LabelTable {
    fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.index.get(name) {
            return LabelId(id);
        }
        let id = u32::try_from(self.names.len() + 1).unwrap_or(u32::MAX);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        LabelId(id)
    }
}

/// Shared state of one installed recorder.
struct Core {
    clock: ObsClock,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
    labels: Mutex<LabelTable>,
    metrics: MetricsRegistry,
    drift: Mutex<Vec<DriftSample>>,
}

/// The gate every recording call branches on.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every install/uninstall so thread caches re-register.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// The installed core (behind a mutex so tests can reinstall).
static CORE: Mutex<Option<Arc<Core>>> = Mutex::new(None);

thread_local! {
    /// Per-thread cache: (generation, core, this thread's ring).
    static THREAD: RefCell<Option<ThreadCache>> = const { RefCell::new(None) };
}

struct ThreadCache {
    generation: u64,
    core: Arc<Core>,
    ring: Arc<Mutex<Ring>>,
}

/// Run `f` against the calling thread's cache, registering a ring for this
/// thread first if the recorder was (re)installed since the last call.
fn with_thread<R>(f: impl FnOnce(&ThreadCache) -> R) -> Option<R> {
    let generation = GENERATION.load(Ordering::Acquire);
    THREAD.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = slot
            .as_ref()
            .is_none_or(|cache| cache.generation != generation);
        if stale {
            let core = {
                let guard = CORE.lock().ok()?;
                guard.as_ref().map(Arc::clone)?
            };
            let ring = Arc::new(Mutex::new(Ring::with_capacity(core.ring_capacity)));
            if let Ok(mut rings) = core.rings.lock() {
                rings.push(Arc::clone(&ring));
            }
            *slot = Some(ThreadCache {
                generation,
                core,
                ring,
            });
        }
        slot.as_ref().map(f)
    })
}

/// A copy of everything the recorder holds, taken at export time.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Whether stamps came from the deterministic modelled clock.
    pub modeled_clock: bool,
    /// Every recorded event, tagged with the id of the ring it came from.
    pub events: Vec<(u32, SpanEvent)>,
    /// Interned label strings; `labels[id - 1]` resolves a [`LabelId`].
    pub labels: Vec<String>,
    /// Events lost to full rings.
    pub dropped_events: u64,
}

impl TraceSnapshot {
    /// Resolve an interned label (empty string for [`LabelId::NONE`] or an
    /// unknown id).
    #[must_use]
    pub fn label(&self, id: LabelId) -> &str {
        if id.0 == 0 {
            return "";
        }
        self.labels
            .get(id.0 as usize - 1)
            .map_or("", String::as_str)
    }
}

/// The zero-sized handle every layer records through; obtain it with
/// [`recorder()`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Recorder;

/// The global recorder handle.
#[must_use]
pub fn recorder() -> Recorder {
    Recorder
}

impl Recorder {
    /// Install (or replace) the global recorder and enable recording.
    pub fn install(config: ObsConfig) {
        let core = Arc::new(Core {
            clock: config.clock,
            ring_capacity: config.ring_capacity.max(1),
            rings: Mutex::new(Vec::new()),
            labels: Mutex::new(LabelTable::default()),
            metrics: MetricsRegistry::new(),
            drift: Mutex::new(Vec::new()),
        });
        if let Ok(mut slot) = CORE.lock() {
            *slot = Some(core);
        }
        GENERATION.fetch_add(1, Ordering::AcqRel);
        ENABLED.store(true, Ordering::Release);
    }

    /// Disable and drop the global recorder (thread caches expire lazily).
    pub fn uninstall() {
        ENABLED.store(false, Ordering::Release);
        GENERATION.fetch_add(1, Ordering::AcqRel);
        if let Ok(mut slot) = CORE.lock() {
            *slot = None;
        }
    }

    /// Whether recording is enabled — the one branch disabled call sites
    /// pay.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Stamp one instant: the supplied modelled seconds under the modelled
    /// clock, host seconds since the install epoch under the wall clock.
    /// Returns the argument unchanged when disabled.
    #[must_use]
    pub fn stamp(self, modeled_seconds: f64) -> f64 {
        if !self.is_enabled() {
            return modeled_seconds;
        }
        with_thread(|cache| cache.core.clock.stamp(modeled_seconds)).unwrap_or(modeled_seconds)
    }

    /// Whether the installed clock is the deterministic modelled one
    /// (true when disabled: disabled recording is trivially deterministic).
    #[must_use]
    pub fn clock_is_modeled(self) -> bool {
        if !self.is_enabled() {
            return true;
        }
        with_thread(|cache| cache.core.clock.is_modeled()).unwrap_or(true)
    }

    /// Record one span into the calling thread's ring.  Allocation-free
    /// after the thread's first recording (which registers the ring).
    pub fn record(self, event: SpanEvent) {
        if !self.is_enabled() {
            return;
        }
        with_thread(|cache| {
            if let Ok(mut ring) = cache.ring.lock() {
                ring.push(event);
            }
        });
    }

    /// Intern a label, returning a stable id (idempotent; allocates only
    /// on a label's first appearance).  [`LabelId::NONE`] when disabled.
    #[must_use]
    pub fn intern(self, name: &str) -> LabelId {
        if !self.is_enabled() {
            return LabelId::NONE;
        }
        with_thread(|cache| {
            cache
                .core
                .labels
                .lock()
                .map_or(LabelId::NONE, |mut table| table.intern(name))
        })
        .unwrap_or(LabelId::NONE)
    }

    /// Add to a counter (no-op when disabled).
    pub fn counter_add(self, name: &'static str, labels: &[(&str, &str)], delta: u64) {
        if !self.is_enabled() {
            return;
        }
        with_thread(|cache| cache.core.metrics.counter_add(name, labels, delta));
    }

    /// Set a gauge (no-op when disabled).
    pub fn gauge_set(self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        if !self.is_enabled() {
            return;
        }
        with_thread(|cache| cache.core.metrics.gauge_set(name, labels, value));
    }

    /// Observe one value into a histogram (no-op when disabled).
    pub fn observe(self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        if !self.is_enabled() {
            return;
        }
        with_thread(|cache| cache.core.metrics.observe(name, labels, value));
    }

    /// Record one model-drift sample (no-op when disabled).  Drift
    /// recording happens once per request at job-assembly time, off the
    /// hot path, so samples may allocate.
    pub fn record_drift(self, sample: DriftSample) {
        if !self.is_enabled() {
            return;
        }
        with_thread(|cache| {
            if let Ok(mut samples) = cache.core.drift.lock() {
                samples.push(sample);
            }
        });
    }

    /// Copy out every recorded event, label, and ring-drop count.
    /// Returns an empty snapshot when disabled.
    #[must_use]
    pub fn trace_snapshot(self) -> TraceSnapshot {
        let empty = TraceSnapshot {
            modeled_clock: true,
            events: Vec::new(),
            labels: Vec::new(),
            dropped_events: 0,
        };
        if !self.is_enabled() {
            return empty;
        }
        with_thread(|cache| {
            let mut events = Vec::new();
            let mut dropped = 0_u64;
            if let Ok(rings) = cache.core.rings.lock() {
                for (ring_id, ring) in rings.iter().enumerate() {
                    if let Ok(ring) = ring.lock() {
                        let id = u32::try_from(ring_id).unwrap_or(u32::MAX);
                        events.extend(ring.events.iter().map(|&e| (id, e)));
                        dropped += ring.dropped;
                    }
                }
            }
            let labels = cache
                .core
                .labels
                .lock()
                .map(|table| table.names.clone())
                .unwrap_or_default();
            TraceSnapshot {
                modeled_clock: cache.core.clock.is_modeled(),
                events,
                labels,
                dropped_events: dropped,
            }
        })
        .unwrap_or(empty)
    }

    /// Copy out every recorded drift sample.
    #[must_use]
    pub fn drift_samples(self) -> Vec<DriftSample> {
        if !self.is_enabled() {
            return Vec::new();
        }
        with_thread(|cache| {
            cache
                .core
                .drift
                .lock()
                .map(|samples| samples.clone())
                .unwrap_or_default()
        })
        .unwrap_or_default()
    }

    /// Render the metrics registry as Prometheus text (the ring-drop
    /// counter is folded in so exports surface lossy traces).
    #[must_use]
    pub fn prometheus_text(self) -> String {
        if !self.is_enabled() {
            return String::new();
        }
        with_thread(|cache| {
            let mut dropped = 0_u64;
            if let Ok(rings) = cache.core.rings.lock() {
                for ring in &*rings {
                    if let Ok(ring) = ring.lock() {
                        dropped += ring.dropped;
                    }
                }
            }
            // A gauge, not a counter: re-snapshotting must stay idempotent.
            cache
                .core
                .metrics
                .gauge_set("sem_obs_dropped_events_count", &[], dropped as f64);
            cache.core.metrics.prometheus_text()
        })
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Scope, SpanKind};

    /// The recorder is global state; serialize tests touching it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _guard = locked();
        Recorder::uninstall();
        let obs = recorder();
        assert!(!obs.is_enabled());
        obs.record(SpanEvent::new(
            SpanKind::CgIteration,
            Scope::Deterministic,
            0.0,
            1.0,
        ));
        assert_eq!(obs.stamp(2.5), 2.5);
        assert_eq!(obs.intern("cpu"), LabelId::NONE);
        assert!(obs.trace_snapshot().events.is_empty());
        assert!(obs.prometheus_text().is_empty());
    }

    #[test]
    fn enabled_recorder_captures_events_and_labels() {
        let _guard = locked();
        Recorder::install(ObsConfig::default());
        let obs = recorder();
        let label = obs.intern("fpga:test");
        assert_eq!(obs.intern("fpga:test"), label, "interning is idempotent");
        obs.record(
            SpanEvent::new(SpanKind::Upload, Scope::Deterministic, 1.0, 2.0).with_label(label),
        );
        let snapshot = obs.trace_snapshot();
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.label(snapshot.events[0].1.label), "fpga:test");
        assert!(snapshot.modeled_clock);
        assert_eq!(snapshot.dropped_events, 0);
        Recorder::uninstall();
    }

    #[test]
    fn full_ring_counts_drops_instead_of_growing() {
        let _guard = locked();
        Recorder::install(ObsConfig {
            clock: ObsClock::Modeled,
            ring_capacity: 4,
        });
        let obs = recorder();
        for i in 0..10 {
            obs.record(SpanEvent::new(
                SpanKind::CgIteration,
                Scope::Deterministic,
                f64::from(i),
                f64::from(i),
            ));
        }
        let snapshot = obs.trace_snapshot();
        assert_eq!(snapshot.events.len(), 4);
        assert_eq!(snapshot.dropped_events, 6);
        Recorder::uninstall();
    }

    #[test]
    fn reinstall_resets_state() {
        let _guard = locked();
        Recorder::install(ObsConfig::default());
        let obs = recorder();
        obs.record(SpanEvent::new(
            SpanKind::Solve,
            Scope::Deterministic,
            0.0,
            1.0,
        ));
        assert_eq!(obs.trace_snapshot().events.len(), 1);
        Recorder::install(ObsConfig::default());
        assert!(obs.trace_snapshot().events.is_empty());
        Recorder::uninstall();
    }

    #[test]
    fn rings_from_other_threads_are_collected() {
        let _guard = locked();
        Recorder::install(ObsConfig::default());
        let obs = recorder();
        obs.record(SpanEvent::new(
            SpanKind::Solve,
            Scope::Deterministic,
            0.0,
            1.0,
        ));
        std::thread::spawn(move || {
            recorder().record(SpanEvent::new(
                SpanKind::WorkerPark,
                Scope::ScheduleDependent,
                0.5,
                0.5,
            ));
        })
        .join()
        .expect("worker thread");
        let snapshot = recorder().trace_snapshot();
        assert_eq!(snapshot.events.len(), 2);
        Recorder::uninstall();
    }
}
