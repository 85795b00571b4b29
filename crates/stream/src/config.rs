//! Service configuration: the stream/batch knobs with documented
//! defaults and a round-trippable builder.

use std::path::PathBuf;

use cij_core::EngineConfig;

use crate::shed::ShedPolicy;

/// Configuration of a [`StreamService`](crate::StreamService).
///
/// Construct via [`StreamConfig::builder`]; every knob has a documented
/// default and `config.to_builder().build()` round-trips exactly. The
/// engine-level knobs live in the embedded [`EngineConfig`] (itself
/// builder-constructible).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Join-engine configuration (default [`EngineConfig::default`]).
    pub engine: EngineConfig,
    /// Hard bound on queued-but-unapplied updates across all pending
    /// ticks (default 4096). Submissions beyond it are refused with
    /// [`QueueFull`](crate::IngestOutcome::QueueFull).
    pub batch_capacity: usize,
    /// Once the queue reaches this many pending updates the service
    /// stops accepting (default 3/4 of `batch_capacity`).
    pub high_watermark: usize,
    /// Acceptance resumes when a drain brings the queue back to at most
    /// this many pending updates (default 1/2 of `batch_capacity`) —
    /// the hysteresis that keeps a saturated producer from flapping.
    pub low_watermark: usize,
    /// Bound on each subscriber's outbox (default 1024). Overflow drops
    /// the oldest deliveries and surfaces a
    /// [`Gap`](crate::OutboxItem::Gap) marker.
    pub outbox_capacity: usize,
    /// Write-ahead log file. `None` (the default) runs without
    /// durability; `Some(path)` journals every ingested batch before it
    /// is applied, enabling [`recover`](crate::StreamService::recover).
    pub wal_path: Option<PathBuf>,
    /// What saturation does beyond flipping the accepting flag
    /// (default [`ShedPolicy::None`]: plain backpressure).
    pub shed_policy: ShedPolicy,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            batch_capacity: 4096,
            high_watermark: 3072,
            low_watermark: 2048,
            outbox_capacity: 1024,
            wal_path: None,
            shed_policy: ShedPolicy::None,
        }
    }
}

impl StreamConfig {
    /// Starts a builder at the defaults above.
    #[must_use]
    pub fn builder() -> StreamConfigBuilder {
        StreamConfigBuilder {
            config: Self::default(),
        }
    }

    /// Re-opens this configuration as a builder.
    #[must_use]
    pub fn to_builder(self) -> StreamConfigBuilder {
        StreamConfigBuilder { config: self }
    }

    /// Checks the invariant `low ≤ high ≤ capacity` (and nonzero
    /// capacities) that the backpressure hysteresis relies on.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.batch_capacity > 0
            && self.outbox_capacity > 0
            && self.low_watermark <= self.high_watermark
            && self.high_watermark <= self.batch_capacity
    }
}

/// Builder for [`StreamConfig`].
#[derive(Debug, Clone)]
pub struct StreamConfigBuilder {
    config: StreamConfig,
}

impl StreamConfigBuilder {
    /// Join-engine configuration (default [`EngineConfig::default`]).
    #[must_use]
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Queue capacity in pending updates (default 4096). Also rescales
    /// the watermarks to their default fractions (3/4 and 1/2 of the
    /// capacity); set them *after* this to override.
    #[must_use]
    pub fn batch_capacity(mut self, capacity: usize) -> Self {
        self.config.batch_capacity = capacity;
        self.config.high_watermark = capacity * 3 / 4;
        self.config.low_watermark = capacity / 2;
        self
    }

    /// Stop-accepting threshold (default 3/4 of the capacity).
    #[must_use]
    pub fn high_watermark(mut self, pending: usize) -> Self {
        self.config.high_watermark = pending;
        self
    }

    /// Resume-accepting threshold (default 1/2 of the capacity).
    #[must_use]
    pub fn low_watermark(mut self, pending: usize) -> Self {
        self.config.low_watermark = pending;
        self
    }

    /// Per-subscriber outbox bound (default 1024).
    #[must_use]
    pub fn outbox_capacity(mut self, capacity: usize) -> Self {
        self.config.outbox_capacity = capacity;
        self
    }

    /// Write-ahead log path (default none).
    #[must_use]
    pub fn wal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.wal_path = Some(path.into());
        self
    }

    /// Saturation shedding policy (default [`ShedPolicy::None`]).
    #[must_use]
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.config.shed_policy = policy;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    /// Panics when the watermark invariant `low ≤ high ≤ capacity` is
    /// violated or a capacity is zero — misconfigured backpressure is a
    /// programming error, not a runtime condition.
    #[must_use]
    pub fn build(self) -> StreamConfig {
        assert!(
            self.config.is_valid(),
            "invalid stream config: need 0 < low ≤ high ≤ capacity and a nonzero outbox, got {:?}",
            self.config
        );
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(StreamConfig::builder().build(), StreamConfig::default());
        assert!(StreamConfig::default().is_valid());
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let config = StreamConfig::builder()
            .engine(cij_core::EngineConfig::builder().threads(4).build())
            .batch_capacity(100)
            .high_watermark(80)
            .low_watermark(20)
            .outbox_capacity(7)
            .wal_path("/tmp/cij.wal")
            .shed_policy(ShedPolicy::DropStalePerObject)
            .build();
        assert_eq!(config.engine.threads, 4);
        assert_eq!(config.batch_capacity, 100);
        assert_eq!(config.high_watermark, 80);
        assert_eq!(config.low_watermark, 20);
        assert_eq!(config.outbox_capacity, 7);
        assert_eq!(config.wal_path.as_deref(), Some("/tmp/cij.wal".as_ref()));
        assert_eq!(config.shed_policy, ShedPolicy::DropStalePerObject);
        assert_eq!(config.clone().to_builder().build(), config);
    }

    #[test]
    fn capacity_rescales_watermarks() {
        let config = StreamConfig::builder().batch_capacity(1000).build();
        assert_eq!(config.high_watermark, 750);
        assert_eq!(config.low_watermark, 500);
    }

    #[test]
    #[should_panic(expected = "invalid stream config")]
    fn inverted_watermarks_panic() {
        let _ = StreamConfig::builder()
            .high_watermark(10)
            .low_watermark(20)
            .batch_capacity(100)
            .high_watermark(200)
            .build();
    }
}
