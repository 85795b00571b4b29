//! Workspace-level integration tests: the full stack exercised through
//! the facade crate, the way a downstream user would drive it.

use std::sync::Arc;

use cij::core::{
    run_simulation, ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, TcEngine,
};
use cij::join::{brute, naive_join, tc_join};
use cij::storage::{BufferPool, InMemoryStore, DEFAULT_POOL_PAGES};
use cij::tpr::{TprResult, TprTree, TreeConfig};
use cij::workload::{generate_pair, Distribution, Params, SetTag, UpdateStream};

fn paper_pool() -> BufferPool {
    // The paper's exact buffer setup: 50 pages of 4 KB.
    let pool = BufferPool::with_default_capacity(Arc::new(InMemoryStore::new()));
    assert_eq!(pool.capacity(), DEFAULT_POOL_PAGES);
    pool
}

#[test]
fn facade_quickstart_compiles_and_runs() {
    let params = Params {
        dataset_size: 300,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);
    let mut engine = MtbEngine::new(paper_pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    engine.run_initial_join(0.0).unwrap();
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    for tick in 1..=5 {
        let now = f64::from(tick);
        for u in stream.tick(now) {
            engine.apply_update(&u, now).unwrap();
        }
    }
    // The answer matches the oracle at the end.
    let expect = brute::brute_pairs_at(
        &stream.snapshot(SetTag::A),
        &stream.snapshot(SetTag::B),
        5.0,
    );
    assert_eq!(engine.result_at(5.0), expect);
}

#[test]
fn mtb_beats_etp_on_maintenance_io() {
    // The paper's headline: MTB-Join maintenance is far cheaper than
    // ETP-Join's. Checked end-to-end on identical seeded workloads.
    let params = Params {
        dataset_size: 800,
        space: 700.0,
        object_size_pct: 0.5,
        ..Params::default()
    };
    let (a, b) = generate_pair(&params, 0.0);

    let mut etp = EtpEngine::new(paper_pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let etp_metrics = run_simulation(&mut etp, &mut stream, 0.0, 15.0, 0.0, |_, _| Ok(())).unwrap();

    let mut mtb = MtbEngine::new(paper_pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
    let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
    let mtb_metrics = run_simulation(&mut mtb, &mut stream, 0.0, 15.0, 0.0, |_, _| Ok(())).unwrap();

    assert!(
        mtb_metrics.io_per_update() < etp_metrics.io_per_update(),
        "MTB {} I/O/update should beat ETP {}",
        mtb_metrics.io_per_update(),
        etp_metrics.io_per_update()
    );
}

/// The Fig. 7 claim, as `figures fig7` measures it: Theorem 1's window
/// saves I/O in the initial join — `tc_join` (`[0, T_M]`) against
/// `naive_join` (`[0, ∞)`) over the same two TPR-trees of each input,
/// in physical I/O on a cold 50-page pool. Each tree is built in one
/// batch, as the engines build theirs.
#[test]
fn tc_beats_naive_on_initial_join_io() {
    for dataset_size in [800, 1_500] {
        for seed in (1..=11).chain([Params::default().seed]) {
            let params = Params {
                dataset_size,
                seed,
                ..Params::default()
            };
            let pool = paper_pool();
            let tree = TreeConfig {
                capacity: params.node_capacity,
                horizon: params.maximum_update_interval,
            };
            let (a, b) = generate_pair(&params, 0.0);
            let [mut ta, mut tb] = [(); 2].map(|()| TprTree::new(pool.clone(), tree));
            for (t, objects) in [(&mut ta, &a), (&mut tb, &b)] {
                let filed = objects.iter().map(|o| (o.id, o.mbr));
                t.apply_batch([], filed, 0.0).unwrap();
            }
            let cold = |join: &dyn Fn() -> TprResult<()>| {
                pool.clear().unwrap();
                let before = pool.stats().snapshot();
                join().unwrap();
                (pool.stats().snapshot() - before).physical_total()
            };
            let naive = cold(&|| naive_join(&ta, &tb, 0.0).map(drop));
            let tc = cold(&|| tc_join(&ta, &tb, 0.0, params.maximum_update_interval).map(drop));
            assert!(
                tc <= naive,
                "{dataset_size} objects, seed {seed}: initial join I/O {tc} vs {naive}"
            );
        }
    }
}

#[test]
fn all_distributions_run_end_to_end() {
    for dist in [
        Distribution::Uniform,
        Distribution::Gaussian,
        Distribution::Battlefield,
    ] {
        let params = Params {
            dataset_size: 200,
            distribution: dist,
            space: 300.0,
            object_size_pct: 1.0,
            ..Params::default()
        };
        let (a, b) = generate_pair(&params, 0.0);
        let mut engine =
            MtbEngine::new(paper_pool(), EngineConfig::default(), &a, &b, 0.0).unwrap();
        engine.run_initial_join(0.0).unwrap();
        let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
        for tick in 1..=70 {
            let now = f64::from(tick);
            for u in stream.tick(now) {
                engine.apply_update(&u, now).unwrap();
            }
        }
        let expect = brute::brute_pairs_at(
            &stream.snapshot(SetTag::A),
            &stream.snapshot(SetTag::B),
            70.0,
        );
        assert_eq!(engine.result_at(70.0), expect, "distribution {dist}");
    }
}

#[test]
fn paper_parameter_space_all_engines_one_tick() {
    // Smoke the entire Table I parameter cross-product (small sizes) on
    // every engine: nothing panics, everything agrees with the oracle.
    let sizes = [50usize, 150];
    let speeds = [1.0, 5.0];
    let obj_sizes = [0.05, 0.8];
    for &dataset_size in &sizes {
        for &max_speed in &speeds {
            for &object_size_pct in &obj_sizes {
                let params = Params {
                    dataset_size,
                    max_speed,
                    object_size_pct,
                    space: 300.0,
                    ..Params::default()
                };
                let (a, b) = generate_pair(&params, 0.0);
                let config = EngineConfig::default();
                let mut engines: Vec<Box<dyn ContinuousJoinEngine>> = vec![
                    Box::new(TcEngine::new(paper_pool(), config, &a, &b, 0.0).unwrap()),
                    Box::new(EtpEngine::new(paper_pool(), config, &a, &b, 0.0).unwrap()),
                    Box::new(MtbEngine::new(paper_pool(), config, &a, &b, 0.0).unwrap()),
                ];
                let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
                for e in &mut engines {
                    e.run_initial_join(0.0).unwrap();
                }
                let updates = stream.tick(1.0);
                let expect = brute::brute_pairs_at(
                    &stream.snapshot(SetTag::A),
                    &stream.snapshot(SetTag::B),
                    1.0,
                );
                for e in &mut engines {
                    e.advance_time(1.0).unwrap();
                    for u in &updates {
                        e.apply_update(u, 1.0).unwrap();
                    }
                    assert_eq!(
                        e.result_at(1.0),
                        expect,
                        "{} at size={dataset_size} speed={max_speed} obj={object_size_pct}",
                        e.name()
                    );
                }
            }
        }
    }
}
