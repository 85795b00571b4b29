//! I/O counters with snapshot/delta arithmetic.
//!
//! The paper reports two metrics per experiment: the number of disk I/Os
//! and the total response time. Physical reads/writes are counted by the
//! store and buffer pool; the harness takes an [`IoSnapshot`] before a
//! phase and subtracts it afterwards to attribute I/O to that phase
//! (initial join vs. maintenance, per update, per tree, …).
//!
//! Since the observability layer landed, both [`IoStats`] and
//! [`CacheStats`] are built on `cij-obs` [`CounterCell`]s. Calling
//! [`IoStats::register_in`] shares the *same* atomics into a
//! [`MetricsRegistry`], so the registry's snapshot is a bit-exact live
//! view of the legacy counters — not a copy that can drift. The
//! record/snapshot/reset API is unchanged.

use std::sync::Arc;

use cij_obs::{CounterCell, MetricsRegistry};

/// Shared, thread-safe I/O counters. One instance is threaded through a
/// store and its buffer pool; indexes on the same "disk" share it.
#[derive(Debug, Default)]
pub struct IoStats {
    physical_reads: Arc<CounterCell>,
    physical_writes: Arc<CounterCell>,
    logical_reads: Arc<CounterCell>,
    logical_writes: Arc<CounterCell>,
    allocations: Arc<CounterCell>,
    frees: Arc<CounterCell>,
}

impl IoStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a physical (buffer-miss) page read.
    #[inline]
    pub fn record_physical_read(&self) {
        self.physical_reads.inc();
    }

    /// Records a physical page write (eviction of a dirty frame / flush).
    #[inline]
    pub fn record_physical_write(&self) {
        self.physical_writes.inc();
    }

    /// Records a logical page read (every buffer-pool `read`, hit or miss).
    #[inline]
    pub fn record_logical_read(&self) {
        self.logical_reads.inc();
    }

    /// Records a logical page write.
    #[inline]
    pub fn record_logical_write(&self) {
        self.logical_writes.inc();
    }

    /// Records a page allocation.
    #[inline]
    pub fn record_alloc(&self) {
        self.allocations.inc();
    }

    /// Records a page free.
    #[inline]
    pub fn record_free(&self) {
        self.frees.inc();
    }

    /// Captures the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.get(),
            physical_writes: self.physical_writes.get(),
            logical_reads: self.logical_reads.get(),
            logical_writes: self.logical_writes.get(),
            allocations: self.allocations.get(),
            frees: self.frees.get(),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.physical_reads.store(0);
        self.physical_writes.store(0);
        self.logical_reads.store(0);
        self.logical_writes.store(0);
        self.allocations.store(0);
        self.frees.store(0);
    }

    /// Registers every counter in `registry` under `prefix` (e.g.
    /// `storage.pool` → `storage.pool.physical_reads`, …). The registry
    /// shares this struct's atomics, so its view stays bit-exact with
    /// [`snapshot`](Self::snapshot) forever after. No-op when the
    /// registry is disabled.
    pub fn register_in(&self, registry: &MetricsRegistry, prefix: &str) {
        for (name, cell) in [
            ("physical_reads", &self.physical_reads),
            ("physical_writes", &self.physical_writes),
            ("logical_reads", &self.logical_reads),
            ("logical_writes", &self.logical_writes),
            ("allocations", &self.allocations),
            ("frees", &self.frees),
        ] {
            registry.register_counter_cell(&format!("{prefix}.{name}"), Arc::clone(cell));
        }
    }
}

/// A point-in-time copy of [`IoStats`], supporting subtraction to obtain
/// per-phase deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Buffer-miss page reads that hit the store.
    pub physical_reads: u64,
    /// Page writes that hit the store (dirty evictions + flushes).
    pub physical_writes: u64,
    /// Buffer-pool reads, hits included.
    pub logical_reads: u64,
    /// Buffer-pool writes, hits included.
    pub logical_writes: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Pages freed.
    pub frees: u64,
}

impl IoSnapshot {
    /// Total physical I/O operations — the paper's "number of disk I/Os".
    #[must_use]
    pub fn physical_total(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Buffer hit ratio over logical reads, `None` when no reads happened.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        if self.logical_reads == 0 {
            None
        } else {
            let hits = self.logical_reads.saturating_sub(self.physical_reads);
            Some(hits as f64 / self.logical_reads as f64)
        }
    }

    /// Component-wise difference `self − earlier` (saturating).
    #[must_use]
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            logical_writes: self.logical_writes.saturating_sub(earlier.logical_writes),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            frees: self.frees.saturating_sub(earlier.frees),
        }
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;
    fn sub(self, rhs: Self) -> Self {
        self.delta_since(&rhs)
    }
}

/// Shared, thread-safe page-format counters of one tree: how many node
/// pages were read through the zero-copy SoA view.
///
/// Kept separate from [`IoStats`] because it counts node reads a tree
/// served, not pool traffic; engines sum the snapshots of their trees
/// and publish the total (`storage.page.zero_copy_reads`).
#[derive(Debug, Default)]
pub struct CacheStats {
    zero_copy_reads: CounterCell,
}

impl CacheStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a page served through the zero-copy SoA view.
    #[inline]
    pub fn record_zero_copy_read(&self) {
        self.zero_copy_reads.inc();
    }

    /// Captures the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            zero_copy_reads: self.zero_copy_reads.get(),
            decode_fallbacks: 0,
        }
    }
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Pages served through the zero-copy SoA view.
    pub zero_copy_reads: u64,
    /// Always 0: the v2 SoA layout is the only one, so no read falls
    /// back to another decoder. The field is kept only because the
    /// performance ledger (`benchmark/`) reads it next to
    /// `zero_copy_reads` to form `storage.zero_copy_share`.
    pub decode_fallbacks: u64,
}

impl CacheSnapshot {
    /// Component-wise sum — for aggregating over several trees (e.g.
    /// MTB-Join's per-bucket trees).
    #[must_use]
    pub fn merged(&self, other: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            zero_copy_reads: self.zero_copy_reads + other.zero_copy_reads,
            decode_fallbacks: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_physical_read();
        s.record_physical_read();
        s.record_physical_write();
        s.record_logical_read();
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 2);
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.logical_reads, 1);
        assert_eq!(snap.physical_total(), 3);
    }

    #[test]
    fn snapshot_delta() {
        let s = IoStats::new();
        s.record_physical_read();
        let before = s.snapshot();
        s.record_physical_read();
        s.record_physical_write();
        let delta = s.snapshot() - before;
        assert_eq!(delta.physical_reads, 1);
        assert_eq!(delta.physical_writes, 1);
    }

    #[test]
    fn hit_ratio() {
        let s = IoStats::new();
        assert_eq!(s.snapshot().hit_ratio(), None);
        for _ in 0..10 {
            s.record_logical_read();
        }
        s.record_physical_read(); // 1 miss in 10 reads
        assert!((s.snapshot().hit_ratio().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_physical_read();
        s.record_alloc();
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn register_in_exposes_live_bit_exact_views() {
        let registry = MetricsRegistry::new();
        let io = IoStats::new();
        io.record_physical_read();
        io.register_in(&registry, "storage.pool");
        io.record_physical_read();
        io.record_logical_write();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.pool.physical_reads"), Some(2));
        assert_eq!(snap.counter("storage.pool.logical_writes"), Some(1));
        assert_eq!(
            snap.counter("storage.pool.physical_reads"),
            Some(io.snapshot().physical_reads)
        );

        // Disabled registries accept the call and record nothing.
        let disabled = MetricsRegistry::disabled();
        io.register_in(&disabled, "storage.pool");
        assert!(disabled.snapshot().is_empty());
    }

    #[test]
    fn page_format_counter_records_and_merges() {
        let s = CacheStats::new();
        s.record_zero_copy_read();
        s.record_zero_copy_read();
        let snap = s.snapshot();
        assert_eq!(snap.zero_copy_reads, 2);
        assert_eq!(snap.decode_fallbacks, 0);
        assert_eq!(snap.merged(&snap).zero_copy_reads, 4);
    }
}
