//! Criterion micro-benchmarks for the join kernels: the geometry
//! primitive, plane sweep vs nested loop, and the Fig. 8 technique
//! combinations on a fixed workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use std::sync::Arc;

use cij_bench::runner::{build_pair_trees, fresh_pool};
use cij_geom::{MovingRect, Rect};
use cij_join::{
    improved_join, improved_join_into, naive_join, ps_intersection_soa, techniques, JoinCounters,
    JoinScratch, SweepSoa,
};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_workload::Params;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rects(n: usize, seed: u64) -> Vec<MovingRect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0.0..1000.0);
            let y = rng.gen_range(0.0..1000.0);
            let s = rng.gen_range(0.5..4.0);
            MovingRect::rigid(
                Rect::new([x, y], [x + s, y + s]),
                [rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)],
                0.0,
            )
        })
        .collect()
}

fn bench_intersect_interval(c: &mut Criterion) {
    let rects = random_rects(64, 1);
    c.bench_function("geom/intersect_interval_window", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for a in &rects[..32] {
                for x in &rects[32..] {
                    if black_box(a)
                        .intersect_interval(black_box(x), 0.0, 60.0)
                        .is_some()
                    {
                        found += 1;
                    }
                }
            }
            black_box(found)
        })
    });
    c.bench_function("geom/intersect_interval_unbounded", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for a in &rects[..32] {
                for x in &rects[32..] {
                    if black_box(a)
                        .intersect_interval(black_box(x), 0.0, cij_geom::INFINITE_TIME)
                        .is_some()
                    {
                        found += 1;
                    }
                }
            }
            black_box(found)
        })
    });
}

fn bench_plane_sweep(c: &mut Criterion) {
    // Node-sized inputs (capacity 30) — the unit of work inside joins.
    let ra = random_rects(30, 2);
    let rb = random_rects(30, 3);
    let mut group = c.benchmark_group("sweep");
    group.bench_function("nested_loop_30x30", |b| {
        b.iter(|| {
            let mut out = 0u32;
            for x in &ra {
                for y in &rb {
                    if x.intersect_interval(y, 0.0, 60.0).is_some() {
                        out += 1;
                    }
                }
            }
            black_box(out)
        })
    });
    // Buffers persist across iterations: the sweep allocates nothing.
    group.bench_function("plane_sweep_soa_30x30", |b| {
        let mut sa = SweepSoa::new();
        let mut sb = SweepSoa::new();
        let mut out = Vec::new();
        b.iter(|| {
            sa.clear();
            sb.clear();
            for (i, m) in ra.iter().enumerate() {
                sa.push(*m, i as u32, 0, 0.0, 60.0);
            }
            for (i, m) in rb.iter().enumerate() {
                sb.push(*m, i as u32, 0, 0.0, 60.0);
            }
            let mut counters = JoinCounters::new();
            ps_intersection_soa(&mut sa, &mut sb, 0.0, 60.0, &mut counters, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

/// A pool large enough that every read is a hit: what is timed is the
/// join itself, not disk simulation.
fn big_pool() -> BufferPool {
    BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(8192),
    )
}

/// Warm `improved_join_into` with every read a pool hit: scratch frames
/// and output grown, so each iteration is parse + sweep only.
fn bench_warm_join(c: &mut Criterion) {
    let params = Params {
        dataset_size: 2_000,
        ..Params::default()
    };
    let (ta, tb, _, _) = build_pair_trees(&params, &big_pool()).expect("trees");
    let mut scratch = JoinScratch::new();
    let mut out = Vec::new();
    improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
        .expect("warm-up");
    let mut group = c.benchmark_group("improved_join_2k_pool_hit");
    group.sample_size(20);
    group.bench_function("warm", |b| {
        b.iter(|| {
            improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
                .expect("join");
            black_box(out.len())
        })
    });
    group.finish();
}

/// The observability acceptance probe: the warm join above wrapped in
/// exactly the instrumentation the engines apply per maintenance tick —
/// a named span plus a handful of counter publishes — against a
/// disabled registry vs an enabled one. The acceptance bar is enabled ≤
/// 3% over disabled; the disabled variant also pins that the no-op path
/// adds nothing measurable over the bare join above.
fn bench_metrics_overhead(c: &mut Criterion) {
    let params = Params {
        dataset_size: 2_000,
        ..Params::default()
    };
    let (ta, tb, _, _) = build_pair_trees(&params, &big_pool()).expect("trees");
    let mut group = c.benchmark_group("metrics_overhead_2k");
    group.sample_size(20);
    for (name, registry) in [
        ("disabled", cij_obs::MetricsRegistry::disabled()),
        ("enabled", cij_obs::MetricsRegistry::new()),
    ] {
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
            .expect("warm-up");
        group.bench_function(name, |b| {
            b.iter(|| {
                let _span = registry.span("phase.maintenance_tick");
                let mut counters = JoinCounters::new();
                improved_join_into(&ta, &tb, 0.0, 60.0, techniques::ALL, &mut scratch, &mut out)
                    .expect("join");
                counters.pairs_emitted = out.len() as u64;
                registry
                    .counter("join.pairs_emitted")
                    .store(counters.pairs_emitted);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_technique_combos(c: &mut Criterion) {
    let params = Params {
        dataset_size: 2_000,
        ..Params::default()
    };
    let pool = fresh_pool();
    let (ta, tb, _, _) = build_pair_trees(&params, &pool).expect("trees");
    let mut group = c.benchmark_group("improved_join_2k");
    group.sample_size(20);
    for (name, tech) in [
        ("none", techniques::NONE),
        ("ic", techniques::IC),
        ("ps", techniques::PS),
        ("all", techniques::ALL),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &tech, |b, tech| {
            b.iter(|| {
                let (pairs, _) = improved_join(&ta, &tb, 0.0, 60.0, *tech).expect("join");
                black_box(pairs.len())
            })
        });
    }
    group.finish();
}

fn bench_naive_vs_tc(c: &mut Criterion) {
    let params = Params {
        dataset_size: 2_000,
        ..Params::default()
    };
    let pool = fresh_pool();
    let (ta, tb, _, _) = build_pair_trees(&params, &pool).expect("trees");
    let mut group = c.benchmark_group("tc_vs_naive_2k");
    group.sample_size(10);
    group.bench_function("naive_unbounded", |b| {
        b.iter(|| black_box(naive_join(&ta, &tb, 0.0).expect("join").0.len()))
    });
    group.bench_function("tc_window_60", |b| {
        b.iter(|| {
            black_box(
                cij_join::tc_join(&ta, &tb, 0.0, 60.0)
                    .expect("join")
                    .0
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_intersect_interval,
    bench_plane_sweep,
    bench_warm_join,
    bench_metrics_overhead,
    bench_technique_combos,
    bench_naive_vs_tc
);
criterion_main!(benches);
