//! # cij-obs — observability substrate for the CIJ stack
//!
//! A lock-free metrics registry shared by every crate in the workspace:
//!
//! * [`CounterCell`] / [`GaugeCell`] / [`HistogramCell`] — the atomic
//!   recording primitives. `cij-storage`'s `IoStats` is built *on*
//!   these cells, so registering them in a
//!   [`MetricsRegistry`] exposes the exact same atomics the legacy
//!   snapshot structs read — the registry view is bit-exact with the
//!   legacy counters by construction, not by copying.
//! * [`MetricsRegistry`] — a cheaply clonable handle. Recording through
//!   registered handles is lock-free (atomic adds); only registration
//!   itself takes a mutex (cold path). A registry built with
//!   [`MetricsRegistry::disabled`] hands out no-op handles: no
//!   allocation, no atomics, a single branch per record call — the
//!   zero-overhead mode the engines default to.
//! * [`Histogram`] — log₂-bucketed latency histograms; snapshots report
//!   count/sum and p50/p95/p99 (bucket upper-bound estimates).
//! * [`Span`] — RAII timing into a histogram, used for the per-phase
//!   spans (initial join, maintenance tick, WAL replay, migration).
//! * [`MetricsSnapshot`] — a deterministic (name-sorted) point-in-time
//!   view with a Prometheus text-exposition encoder and delta
//!   arithmetic for per-phase attribution.
//! * [`QuantileSketch`] — a deterministic fixed-range streaming
//!   quantile sketch (linear histogram + interpolation), the substrate
//!   the adaptive shard controller reads partition boundaries from.
//!
//! The crate is dependency-free and allocation-free on the record path.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod encode;
mod histogram;
mod quantile;
mod registry;

pub use encode::validate_prometheus;
pub use histogram::{HistogramCell, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use quantile::QuantileSketch;
pub use registry::{
    Counter, CounterCell, Gauge, GaugeCell, Histogram, MetricsRegistry, MetricsSnapshot, Span,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn enabled_registry_counts_and_snapshots_deterministically() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_enabled());
        let c = reg.counter("zeta.ops");
        let c2 = reg.counter("alpha.ops");
        c.add(5);
        c.inc();
        c2.inc();
        let g = reg.gauge("queue.depth");
        g.set(17);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("zeta.ops"), Some(6));
        assert_eq!(snap.counter("alpha.ops"), Some(1));
        assert_eq!(snap.gauge("queue.depth"), Some(17));
        // Deterministic ordering: names sorted.
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha.ops", "zeta.ops"]);
    }

    #[test]
    fn same_name_returns_same_cell() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(1);
        reg.counter("x").add(2);
        assert_eq!(reg.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.add(10);
        reg.gauge("g").set(5);
        reg.histogram("h").record(123);
        drop(reg.span("s"));
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn registered_external_cell_is_a_live_view() {
        let reg = MetricsRegistry::new();
        let cell = Arc::new(CounterCell::new());
        cell.add(7);
        reg.register_counter_cell("io.reads", Arc::clone(&cell));
        assert_eq!(reg.snapshot().counter("io.reads"), Some(7));
        cell.add(3);
        // No re-registration: the registry reads the same atomic.
        assert_eq!(reg.snapshot().counter("io.reads"), Some(10));
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").expect("recorded");
        assert_eq!(hs.count, 1000);
        assert_eq!(hs.sum, 500_500);
        // Log2 upper-bound estimates: p50 of 1..=1000 lies in (256, 512].
        let p50 = hs.quantile(0.50);
        let p99 = hs.quantile(0.99);
        assert!((256.0..=1024.0).contains(&p50), "p50 = {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= 1024.0, "p99 = {p99}");
    }

    #[test]
    fn span_records_into_named_histogram() {
        let reg = MetricsRegistry::new();
        {
            let _s = reg.span("phase.work");
            std::hint::black_box(0u64);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("phase.work").expect("span recorded");
        assert_eq!(hs.count, 1);
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops");
        c.add(5);
        let before = reg.snapshot();
        c.add(9);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counter("ops"), Some(9));
    }

    #[test]
    fn prometheus_exposition_is_valid() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b.total").add(2);
        reg.gauge("q.depth").set(-3);
        reg.histogram("lat.ns").record(100);
        let snap = reg.snapshot();
        let text = snap.to_prometheus();
        let samples = validate_prometheus(&text).expect("valid exposition");
        // counter + gauge + (3 quantiles + sum + count).
        assert_eq!(samples, 7);
    }
}
