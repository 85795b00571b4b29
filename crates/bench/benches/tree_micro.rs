//! Criterion micro-benchmarks for the TPR-tree: build, update and probe
//! throughput — the index-side costs every engine pays.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cij_bench::runner::fresh_pool;
use cij_geom::{MovingRect, Rect};
use cij_join::{probe_batch, JoinCounters, JoinScratch};
use cij_tpr::{ObjectId, TprTree, TreeConfig};
use cij_workload::{generate_set, Params, SetTag};

fn params(n: usize) -> Params {
    Params {
        dataset_size: n,
        ..Params::default()
    }
}

fn bench_build(c: &mut Criterion) {
    let objs = generate_set(&params(2_000), SetTag::A, 0, 0.0);
    let mut group = c.benchmark_group("tree");
    group.sample_size(10);
    group.bench_function("build_2k_inserts", |b| {
        b.iter(|| {
            let mut tree = TprTree::new(fresh_pool(), TreeConfig::default());
            for o in &objs {
                tree.insert(o.id, o.mbr, 0.0).expect("insert");
            }
            black_box(tree.len())
        })
    });
    group.finish();
}

fn bench_update_cycle(c: &mut Criterion) {
    let objs = generate_set(&params(2_000), SetTag::A, 0, 0.0);
    let mut tree = TprTree::new(fresh_pool(), TreeConfig::default());
    for o in &objs {
        tree.insert(o.id, o.mbr, 0.0).expect("insert");
    }
    let mut group = c.benchmark_group("tree");
    group.bench_function("update_cycle_2k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let o = &objs[i % objs.len()];
            // Delete + reinsert at the same trajectory: the index-side
            // cost of one object update.
            tree.delete(o.id, &o.mbr, 0.0).expect("delete");
            tree.insert(o.id, o.mbr, 0.0).expect("insert");
            i += 1;
            black_box(i)
        })
    });
    group.finish();
}

fn bench_probes(c: &mut Criterion) {
    let objs = generate_set(&params(5_000), SetTag::A, 0, 0.0);
    let probe = MovingRect::rigid(Rect::new([500.0, 500.0], [505.0, 505.0]), [2.0, -1.0], 0.0);
    let window = Rect::new([480.0, 480.0], [540.0, 540.0]);
    let mut group = c.benchmark_group("tree");
    let mut tree = TprTree::new(fresh_pool(), TreeConfig::default());
    for o in &objs {
        tree.insert(o.id, o.mbr, 0.0).expect("insert");
    }
    group.bench_function("range_at_5k", |b| {
        b.iter(|| black_box(tree.range_at(&window, 30.0).expect("query").len()))
    });
    group.bench_function("intersect_window_5k_tm", |b| {
        b.iter(|| {
            black_box(
                tree.intersect_window(&probe, 0.0, 60.0)
                    .expect("query")
                    .len(),
            )
        })
    });
    // The batched maintenance kernel on a batch of one: must not cost
    // more than the per-object probe above it.
    let mut scratch = JoinScratch::new();
    let mut hits = Vec::new();
    group.bench_function("probe_batch_one_5k_tm", |b| {
        b.iter(|| {
            hits.clear();
            let mut counters = JoinCounters::new();
            let one = std::slice::from_ref(&probe);
            probe_batch(
                &tree,
                one,
                0.0,
                60.0,
                &mut scratch,
                &mut counters,
                &mut hits,
            )
            .expect("query");
            black_box(hits.len())
        })
    });
    group.bench_function("intersect_window_5k_unbounded", |b| {
        b.iter(|| {
            black_box(
                tree.intersect_window(&probe, 0.0, cij_geom::INFINITE_TIME)
                    .expect("query")
                    .len(),
            )
        })
    });
    group.finish();
    let _ = ObjectId(0);
}

criterion_group!(benches, bench_build, bench_update_cycle, bench_probes);
criterion_main!(benches);
