//! The metrics registry and its recording handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::{HistogramCell, HistogramSnapshot};

/// A monotonic counter cell: one relaxed atomic `u64`.
///
/// This is the primitive `cij-storage`'s `IoStats` is built from; registering the *same* `Arc<CounterCell>` in a
/// [`MetricsRegistry`] makes the registry a live, bit-exact view of the
/// legacy counters.
#[derive(Debug, Default)]
pub struct CounterCell(AtomicU64);

impl CounterCell {
    /// Creates a zeroed cell.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the value — used by publish-style views that mirror an
    /// externally accumulated total (e.g. `JoinCounters`) into the
    /// registry, and by `reset`.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge cell: one relaxed atomic `i64`.
#[derive(Debug, Default)]
pub struct GaugeCell(AtomicI64);

impl GaugeCell {
    /// Creates a zeroed cell.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Counter handle. `None` inside = no-op (disabled registry).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// A handle that records nothing.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds `n` (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }

    /// Adds one (no-op when disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the value (no-op when disabled). See
    /// [`CounterCell::store`].
    #[inline]
    pub fn store(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.store(v);
        }
    }
}

/// Gauge handle. `None` inside = no-op (disabled registry).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// A handle that records nothing.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    /// Sets the value (no-op when disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Adds `n` (no-op when disabled).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.add(n);
        }
    }
}

/// Histogram handle. `None` inside = no-op (disabled registry).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// A handle that records nothing.
    #[must_use]
    pub fn noop() -> Self {
        Self(None)
    }

    /// Records one observation (no-op when disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Starts a timing span recording into this histogram on drop.
    /// Disabled handles return an inert span that never reads the clock.
    #[must_use]
    pub fn start_span(&self) -> Span {
        Span {
            inner: self.0.as_ref().map(|h| (Arc::clone(h), Instant::now())),
        }
    }
}

/// RAII timing guard: records elapsed **nanoseconds** into its histogram
/// when dropped. Obtained from [`MetricsRegistry::span`] or
/// [`Histogram::start_span`]. The disabled form holds nothing and never
/// touches the clock.
#[derive(Debug)]
pub struct Span {
    inner: Option<(Arc<HistogramCell>, Instant)>,
}

impl Span {
    /// An inert span.
    #[must_use]
    pub fn noop() -> Self {
        Self { inner: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, started)) = self.inner.take() {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(nanos);
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

/// A cheaply clonable metrics registry handle (see the crate docs).
///
/// Recording through handles is lock-free; the mutexes guard only the
/// name → cell maps, taken at registration/snapshot time. Disabled
/// registries (`inner == None`) hand out no-op handles and snapshot to
/// the empty [`MetricsSnapshot`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// Creates a disabled registry: every handle it hands out is a
    /// no-op, and [`snapshot`](Self::snapshot) is empty.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// [`new`](Self::new) when `enabled`, otherwise
    /// [`disabled`](Self::disabled).
    #[must_use]
    pub fn enabled_if(enabled: bool) -> Self {
        if enabled {
            Self::new()
        } else {
            Self::disabled()
        }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns the counter handle for `name`, registering a fresh cell
    /// on first use. Disabled registries return a no-op handle.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter(None);
        };
        let mut map = inner.counters.lock().expect("counter map poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCell::new()));
        Counter(Some(Arc::clone(cell)))
    }

    /// Registers an *existing* cell under `name`, making the registry a
    /// live view of it (replaces any previous cell of that name). No-op
    /// on disabled registries.
    pub fn register_counter_cell(&self, name: &str, cell: Arc<CounterCell>) {
        if let Some(inner) = &self.inner {
            let mut map = inner.counters.lock().expect("counter map poisoned");
            map.insert(name.to_string(), cell);
        }
    }

    /// Returns the gauge handle for `name` (no-op when disabled).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge(None);
        };
        let mut map = inner.gauges.lock().expect("gauge map poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(GaugeCell::new()));
        Gauge(Some(Arc::clone(cell)))
    }

    /// Returns the histogram handle for `name` (no-op when disabled).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram(None);
        };
        let mut map = inner.histograms.lock().expect("histogram map poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCell::new()));
        Histogram(Some(Arc::clone(cell)))
    }

    /// Starts a timing span recording into histogram `name` on drop.
    /// On a disabled registry this is fully inert (no clock read).
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        if self.inner.is_none() {
            return Span::noop();
        }
        self.histogram(name).start_span()
    }

    /// Captures every registered metric, name-sorted (deterministic).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A deterministic (name-sorted) point-in-time view of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Whether nothing was registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter/histogram-wise difference `self − earlier` (saturating;
    /// gauges keep their current value — deltas of instantaneous values
    /// are meaningless). Names absent from `earlier` keep their value.
    #[must_use]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                let prior = earlier.counter(name).unwrap_or(0);
                (name.clone(), v.saturating_sub(prior))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let delta = match earlier.histogram(name) {
                    Some(prior) => h.delta_since(prior),
                    None => *h,
                };
                (name.clone(), delta)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }
}
