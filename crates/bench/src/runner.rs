//! Experiment execution: engine construction, cold-cache measurement, and
//! the initial-join / maintenance cost probes every figure driver uses.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cij_core::{
    run_simulation, ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, NaiveEngine, TcEngine,
};
use cij_geom::Time;
use cij_join::Techniques;
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, IoSnapshot};
use cij_tpr::{TprResult, TprTree, TreeConfig};
use cij_workload::{generate_pair, MovingObject, Params, UpdateStream};

/// Experiment scale: the paper's dataset sizes, or 10× smaller for quick
/// full-suite runs. Shapes (relative algorithm ordering, crossovers) are
/// preserved at both scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sizes ÷ 10: {100, 1K, 5K, 10K}, default 1K.
    Small,
    /// The paper's Table I sizes: {1K, 10K, 50K, 100K}, default 10K.
    Paper,
}

impl Scale {
    /// The dataset-size sweep of Figs. 7, 9, 13.
    #[must_use]
    pub fn size_sweep(self) -> Vec<usize> {
        match self {
            Self::Small => vec![100, 1_000, 5_000, 10_000],
            Self::Paper => vec![1_000, 10_000, 50_000, 100_000],
        }
    }

    /// The default dataset size (bold in Table I).
    #[must_use]
    pub fn default_size(self) -> usize {
        match self {
            Self::Small => 1_000,
            Self::Paper => 10_000,
        }
    }

    /// Parameter pass-through hook. Both scales keep the paper's space
    /// domain (1000²) and object-size percentages verbatim — Table I is
    /// absolute, and the top of the Small sweep (10K) coincides exactly
    /// with the paper's default configuration, which keeps measured
    /// maintenance costs directly comparable to the published numbers.
    #[must_use]
    pub fn adjust(self, p: Params) -> Params {
        p
    }

    /// Default parameters at this scale.
    #[must_use]
    pub fn params(self) -> Params {
        self.adjust(Params {
            dataset_size: self.default_size(),
            ..Params::default()
        })
    }

    /// Label for a size in the paper's K-notation.
    #[must_use]
    pub fn size_label(size: usize) -> String {
        if size.is_multiple_of(1000) {
            format!("{}K", size / 1000)
        } else {
            size.to_string()
        }
    }
}

/// A fresh simulated disk with the paper's 50-page LRU pool.
#[must_use]
pub fn fresh_pool() -> BufferPool {
    BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default())
}

/// Tree configuration derived from workload parameters (capacity from
/// Table I, horizon = `T_M`).
#[must_use]
pub fn tree_config(params: &Params) -> TreeConfig {
    TreeConfig {
        capacity: params.node_capacity,
        horizon: params.maximum_update_interval,
        ..TreeConfig::default()
    }
}

/// Engine configuration derived from workload parameters.
#[must_use]
pub fn engine_config(params: &Params, techniques: Techniques, buckets_per_tm: u32) -> EngineConfig {
    EngineConfig {
        t_m: params.maximum_update_interval,
        tree: tree_config(params),
        techniques,
        buckets_per_tm,
        threads: 1,
        ..EngineConfig::default()
    }
}

/// Builds the two single TPR-trees over a generated pair of datasets,
/// sharing `pool`.
pub fn build_pair_trees(
    params: &Params,
    pool: &BufferPool,
) -> TprResult<(TprTree, TprTree, Vec<MovingObject>, Vec<MovingObject>)> {
    let config = tree_config(params);
    let (a, b) = generate_pair(params, 0.0);
    let mut ta = TprTree::new(pool.clone(), config);
    for o in &a {
        ta.insert(o.id, o.mbr, 0.0)?;
    }
    let mut tb = TprTree::new(pool.clone(), config);
    for o in &b {
        tb.insert(o.id, o.mbr, 0.0)?;
    }
    Ok((ta, tb, a, b))
}

/// Measures `op` against a cold buffer pool (cleared first, like the
/// paper's fresh measurements).
pub fn measure<T>(
    pool: &BufferPool,
    op: impl FnOnce() -> TprResult<T>,
) -> TprResult<(T, u64, Duration)> {
    pool.clear().map_err(cij_tpr::TprError::from)?;
    let stats = pool.stats();
    let before: IoSnapshot = stats.snapshot();
    let t0 = Instant::now();
    let value = op()?;
    let time = t0.elapsed();
    let io = (stats.snapshot() - before).physical_total();
    Ok((value, io, time))
}

/// The three competitor stacks of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// §II-C baseline.
    Naive,
    /// §III competitor.
    Etp,
    /// §IV-B single-tree TC processing (used by the Fig. 7 ablation).
    Tc,
    /// §IV-C/D full proposal.
    Mtb,
}

impl EngineKind {
    /// The figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Naive => "NaiveJoin",
            Self::Etp => "ETP-Join",
            Self::Tc => "TC-Join",
            Self::Mtb => "MTB-Join",
        }
    }

    /// Builds the engine over freshly generated data on a fresh pool.
    pub fn build(
        self,
        params: &Params,
        techniques: Techniques,
    ) -> TprResult<(Box<dyn ContinuousJoinEngine>, UpdateStream, BufferPool)> {
        self.build_with_config(params, engine_config(params, techniques, 2))
    }

    /// [`EngineKind::build`] with an explicit engine configuration (e.g.
    /// threads set by the caller).
    pub fn build_with_config(
        self,
        params: &Params,
        config: EngineConfig,
    ) -> TprResult<(Box<dyn ContinuousJoinEngine>, UpdateStream, BufferPool)> {
        let pool = fresh_pool();
        let (a, b) = generate_pair(params, 0.0);
        let stream = UpdateStream::new(params, &a, &b, 0.0);
        let engine: Box<dyn ContinuousJoinEngine> = match self {
            Self::Naive => Box::new(NaiveEngine::new(pool.clone(), config, &a, &b, 0.0)?),
            Self::Etp => Box::new(EtpEngine::new(pool.clone(), config, &a, &b, 0.0)?),
            Self::Tc => Box::new(TcEngine::new(pool.clone(), config, &a, &b, 0.0)?),
            Self::Mtb => Box::new(MtbEngine::new(pool.clone(), config, &a, &b, 0.0)?),
        };
        Ok((engine, stream, pool))
    }
}

/// Maintenance cost of an engine over a measured window, amortized per
/// update (the paper's Fig. 13 metric).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceCost {
    /// Average physical I/Os per update.
    pub io_per_update: f64,
    /// Average response time per update.
    pub time_per_update: Duration,
    /// Updates in the measured window.
    pub updates: u64,
}

/// Runs the full protocol (initial join at 0, ticks to `end`) and
/// reports maintenance cost amortized over updates in
/// `(measure_from, end]` — the paper measures `[T_M, 4·T_M]`.
pub fn maintenance_cost(
    kind: EngineKind,
    params: &Params,
    techniques: Techniques,
    measure_from: Time,
    end: Time,
) -> TprResult<MaintenanceCost> {
    let (mut engine, mut stream, _pool) = kind.build(params, techniques)?;
    let metrics = run_simulation(
        engine.as_mut(),
        &mut stream,
        0.0,
        end,
        measure_from,
        |_, _| Ok(()),
    )?;
    Ok(MaintenanceCost {
        io_per_update: metrics.io_per_update(),
        time_per_update: metrics.time_per_update(),
        updates: metrics.maintenance_updates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_join::techniques;

    fn tiny() -> Params {
        Params {
            dataset_size: 200,
            space: 300.0,
            object_size_pct: 1.0,
            ..Params::default()
        }
    }

    #[test]
    fn measure_reports_cold_io() {
        let params = tiny();
        let pool = fresh_pool();
        let (ta, tb, _, _) = build_pair_trees(&params, &pool).unwrap();
        let ((pairs, _), io, time) =
            measure(&pool, || cij_join::tc_join(&ta, &tb, 0.0, 60.0)).unwrap();
        assert!(io > 0, "cold run must fault pages in");
        assert!(time > Duration::ZERO);
        let _ = pairs;
    }

    #[test]
    fn engine_kinds_build_and_join() {
        // All engines see the same data → the same initial answer.
        let params = tiny();
        let answers = [
            EngineKind::Naive,
            EngineKind::Etp,
            EngineKind::Tc,
            EngineKind::Mtb,
        ]
        .map(|kind| {
            let (mut engine, _stream, _pool) = kind.build(&params, techniques::ALL).unwrap();
            engine.run_initial_join(0.0).unwrap();
            let mut r0 = engine.result_at(0.0);
            r0.sort_unstable();
            (kind, r0)
        });
        let (_, naive) = &answers[0];
        assert!(!naive.is_empty(), "the tiny workload must have an answer");
        for (kind, r0) in &answers[1..] {
            assert_eq!(r0, naive, "{kind:?} vs Naive at t = 0");
        }
    }

    #[test]
    fn maintenance_cost_collects() {
        let params = tiny();
        let cost = maintenance_cost(EngineKind::Mtb, &params, techniques::ALL, 10.0, 30.0).unwrap();
        assert!(cost.updates > 0);
        assert!(cost.io_per_update >= 0.0);
    }

    #[test]
    fn scale_sweeps() {
        assert_eq!(Scale::Small.size_sweep(), vec![100, 1_000, 5_000, 10_000]);
        assert_eq!(Scale::Paper.default_size(), 10_000);
        assert_eq!(Scale::size_label(50_000), "50K");
        assert_eq!(Scale::size_label(123), "123");
    }
}
