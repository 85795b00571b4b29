//! Service configuration: the stream/batch knobs with documented
//! defaults and a round-trippable builder.
//!
//! Saturation has one behaviour and no knobs of its own: the queue
//! closes at 3/4 of [`batch_capacity`](StreamConfig::batch_capacity),
//! re-opens at 1/2 of it, and while closed a submission replaces its
//! object's pending update (see [`ShedPolicy`]).

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
    /// ticks (default 4096). The queue stops accepting at its high
    /// watermark, 3/4 of this, and resumes once a drain brings it down
    /// to its low watermark, 1/2 of it — the hysteresis that keeps a
    /// saturated producer from flapping.
    /// While closed, a submission for an object with a pending update
    /// replaces that update; any other is refused with
    /// [`QueueFull`](crate::IngestOutcome::QueueFull).
    pub batch_capacity: usize,
    /// Bound on each subscriber's outbox (default 1024). Overflow drops
    /// the oldest deliveries and surfaces a
    /// [`Gap`](crate::OutboxItem::Gap) marker.
    pub outbox_capacity: usize,
    /// Write-ahead log file. `None` (the default) runs without
    /// durability; `Some(path)` journals every ingested batch before it
    /// is applied, enabling [`recover`](crate::StreamService::recover).
    pub wal_path: Option<PathBuf>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            batch_capacity: 4096,
            outbox_capacity: 1024,
            wal_path: None,
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

    /// Checks that both capacities are nonzero.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.batch_capacity > 0 && self.outbox_capacity > 0
    }

    /// Pending updates at which the queue stops accepting: 3/4 of
    /// [`batch_capacity`](Self::batch_capacity).
    pub(crate) fn high_watermark(&self) -> usize {
        self.batch_capacity * 3 / 4
    }

    /// Pending updates at or below which a drain re-opens the queue: 1/2
    /// of [`batch_capacity`](Self::batch_capacity).
    pub(crate) fn low_watermark(&self) -> usize {
        self.batch_capacity / 2
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

    /// Queue capacity in pending updates (default 4096); the watermarks
    /// follow it.
    #[must_use]
    pub fn batch_capacity(mut self, capacity: usize) -> Self {
        self.config.batch_capacity = capacity;
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

    /// Does nothing: saturation always replaces an object's pending
    /// update, and [`ShedPolicy`] has no other value. Kept only until
    /// the benchmark stops naming it.
    #[must_use]
    pub fn shed_policy(self, _policy: ShedPolicy) -> Self {
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    /// Panics when a capacity is zero — misconfigured backpressure is a
    /// programming error, not a runtime condition.
    #[must_use]
    pub fn build(self) -> StreamConfig {
        assert!(
            self.config.is_valid(),
            "invalid stream config: need nonzero queue and outbox capacities, got {:?}",
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
            .outbox_capacity(7)
            .wal_path("/tmp/cij.wal")
            .build();
        assert_eq!(config.engine.threads, 4);
        assert_eq!(config.batch_capacity, 100);
        assert_eq!(config.outbox_capacity, 7);
        assert_eq!(config.wal_path.as_deref(), Some("/tmp/cij.wal".as_ref()));
        assert_eq!(config.clone().to_builder().build(), config);
    }

    #[test]
    fn watermarks_follow_capacity() {
        let config = StreamConfig::builder().batch_capacity(1000).build();
        assert_eq!(config.high_watermark(), 750);
        assert_eq!(config.low_watermark(), 500);
        let default = StreamConfig::default();
        assert_eq!(default.high_watermark(), 3072);
        assert_eq!(default.low_watermark(), 2048);
    }

    #[test]
    #[should_panic(expected = "invalid stream config")]
    fn zero_capacity_panics() {
        let _ = StreamConfig::builder().batch_capacity(0).build();
    }
}
