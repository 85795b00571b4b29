//! Workspace-level integration tests: the full stack exercised through
//! the facade crate, the way a downstream user would drive it.

use std::sync::Arc;

use cij::core::{
    run_simulation, ContinuousJoinEngine, EngineConfig, EtpEngine, MtbEngine, NaiveEngine, TcEngine,
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

/// Theorem 1's window is what TC-Join saves on maintenance: its probes
/// end at `now + T_M` where Naive's run to the infinite timestamp. The
/// cost compared is *logical* page reads, which count node visits and do
/// not depend on what the 50-page LRU pool happens to hold (physical I/O
/// behind it moves with the order of page accesses, not with the window).
/// Updates go in one at a time, as the paper applies them: both pairs
/// hold the same trees, so phase 1 reads the same pages, and no probe
/// shares a node read with another, so the window is the only
/// difference. The initial join is the Fig. 7 claim, as `figures fig7`
/// measures it: `tc_join` against `naive_join` on the same two trees, in
/// physical I/O on a cold pool.
#[test]
fn tc_beats_naive_on_maintenance_io() {
    for dataset_size in [800, 1_500] {
        for seed in (1..=11).chain([Params::default().seed]) {
            let params = Params {
                dataset_size,
                seed,
                ..Params::default()
            };
            let (a, b) = generate_pair(&params, 0.0);
            let tag = format!("{dataset_size} objects, seed {seed}");
            let naive = NaiveEngine::new(paper_pool(), EngineConfig::default(), &a, &b, 0.0);
            let naive = maintenance_reads(&mut naive.unwrap(), &params);
            let tc = TcEngine::new(paper_pool(), EngineConfig::default(), &a, &b, 0.0);
            let tc = maintenance_reads(&mut tc.unwrap(), &params);
            assert!(
                tc < naive,
                "{tag}: TC's maintenance reads {tc} pages, Naive's {naive}"
            );
            let (naive, tc) = initial_join_io(&params);
            assert!(tc <= naive, "{tag}: initial join I/O {tc} vs {naive}");
        }
    }
}

/// The logical page reads of twenty ticks of `params`' stream, one
/// update at a time. The initial join is left out: it reads no page
/// after the measurement starts, and what it buffers reads none.
fn maintenance_reads(engine: &mut impl ContinuousJoinEngine, params: &Params) -> u64 {
    let stats = engine.pool().stats();
    let joined = stats.snapshot();
    let (a, b) = generate_pair(params, 0.0);
    let mut stream = UpdateStream::new(params, &a, &b, 0.0);
    for tick in 1..=20 {
        let now = f64::from(tick);
        for u in stream.tick(now) {
            engine.apply_update(&u, now).unwrap();
        }
        engine.gc(now);
    }
    (stats.snapshot() - joined).logical_reads
}

/// The physical I/O of NaiveJoin (`[0, ∞)`) and of TC-Join (`[0, T_M]`)
/// over the same two TPR-trees of `params`' objects, each on a cold pool.
/// Each tree is built in one batch, as the engines build theirs.
fn initial_join_io(params: &Params) -> (u64, u64) {
    let pool = paper_pool();
    let tree = TreeConfig {
        capacity: params.node_capacity,
        horizon: params.maximum_update_interval,
    };
    let (a, b) = generate_pair(params, 0.0);
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
    (naive, tc)
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
                    Box::new(NaiveEngine::new(paper_pool(), config, &a, &b, 0.0).unwrap()),
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
