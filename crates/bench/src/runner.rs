//! Experiment execution: engine construction, cold-cache measurement, and
//! the initial-join / maintenance cost probes every figure driver uses.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cij_core::{
    run_simulation, ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, TcEngine,
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

    /// Default parameters at this scale. Both scales keep the paper's
    /// space domain (1000²) and object-size percentages verbatim — Table I
    /// is absolute, and the top of the Small sweep (10K) coincides exactly
    /// with the paper's default configuration, which keeps measured
    /// maintenance costs directly comparable to the published numbers.
    #[must_use]
    pub fn params(self) -> Params {
        Params {
            dataset_size: self.default_size(),
            ..Params::default()
        }
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
    /// §III competitor.
    Etp,
    /// §IV-B single-tree TC processing (used by the Fig. 7 ablation).
    Tc,
    /// §IV-C/D full proposal.
    Mtb,
}

impl EngineKind {
    /// Builds the engine over freshly generated data on a fresh pool.
    pub fn build(
        self,
        params: &Params,
        techniques: Techniques,
    ) -> TprResult<(Box<dyn ContinuousJoinEngine>, UpdateStream, BufferPool)> {
        let config = engine_config(params, techniques, 2);
        let pool = fresh_pool();
        let (a, b) = generate_pair(params, 0.0);
        let stream = UpdateStream::new(params, &a, &b, 0.0);
        let engine: Box<dyn ContinuousJoinEngine> = match self {
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_join::techniques;
    use cij_workload::SetTag;

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
        // Every engine's initial answer is the brute-force one.
        let params = tiny();
        for kind in [EngineKind::Etp, EngineKind::Tc, EngineKind::Mtb] {
            let (mut engine, stream, _pool) = kind.build(&params, techniques::ALL).unwrap();
            engine.run_initial_join(0.0).unwrap();
            let mut r0 = engine.result_at(0.0);
            r0.sort_unstable();
            let expect = cij_join::brute::brute_pairs_at(
                &stream.snapshot(SetTag::A),
                &stream.snapshot(SetTag::B),
                0.0,
            );
            assert!(!expect.is_empty(), "the tiny workload must have an answer");
            assert_eq!(r0, expect, "{kind:?} vs brute force at t = 0");
        }
    }

    #[test]
    fn maintenance_cost_collects() {
        let params = tiny();
        let cost = maintenance_cost(EngineKind::Mtb, &params, techniques::ALL, 10.0, 30.0).unwrap();
        assert!(
            cost.time_per_update > Duration::ZERO,
            "the window has updates"
        );
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
