//! Property tests: every index-based join equals the brute-force oracle
//! on arbitrary datasets, windows, and node capacities.

use std::sync::Arc;

use cij_geom::{MovingRect, Rect};
use cij_join::{
    brute, improved_join, probe_batch, tc_join, techniques, tp_join, JoinCounters, JoinPair,
    JoinScratch,
};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};
use proptest::prelude::*;

fn arb_object(id_base: u64) -> impl Strategy<Value = (ObjectId, MovingRect)> {
    (
        0u64..10_000,
        0.0..990.0f64,
        0.0..990.0f64,
        0.1..10.0f64,
        -5.0..5.0f64,
        -5.0..5.0f64,
    )
        .prop_map(move |(id, x, y, side, vx, vy)| {
            (
                ObjectId(id_base + id),
                MovingRect::rigid(Rect::new([x, y], [x + side, y + side]), [vx, vy], 0.0),
            )
        })
}

fn dedup_ids(mut v: Vec<(ObjectId, MovingRect)>) -> Vec<(ObjectId, MovingRect)> {
    v.sort_by_key(|(o, _)| *o);
    v.dedup_by_key(|(o, _)| *o);
    v
}

fn build(objs: &[(ObjectId, MovingRect)], capacity: usize, pool: &BufferPool) -> TprTree {
    let mut tree = TprTree::new(
        pool.clone(),
        TreeConfig {
            capacity,
            ..TreeConfig::default()
        },
    );
    for &(oid, mbr) in objs {
        tree.insert(oid, mbr, 0.0).unwrap();
    }
    tree
}

fn sort_pairs(mut v: Vec<JoinPair>) -> Vec<JoinPair> {
    v.sort_by(|a, b| a.key().partial_cmp(&b.key()).unwrap());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// TC-Join and every ImprovedJoin technique combo equal the oracle
    /// for arbitrary windows and tree shapes.
    #[test]
    fn joins_equal_oracle(
        a in proptest::collection::vec(arb_object(0), 0..120),
        b in proptest::collection::vec(arb_object(1 << 32), 0..120),
        capacity in prop_oneof![Just(4usize), Just(10), Just(30)],
        t_s in 0.0..30.0f64,
        len in 0.1..90.0f64,
    ) {
        let a = dedup_ids(a);
        let b = dedup_ids(b);
        let t_e = t_s + len;
        let pool =
            BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::with_capacity(256));
        let ta = build(&a, capacity, &pool);
        let tb = build(&b, capacity, &pool);

        let expect = sort_pairs(brute::brute_join(&a, &b, t_s, t_e));
        let (got, _) = tc_join(&ta, &tb, t_s, t_e).unwrap();
        let got = sort_pairs(got);
        prop_assert_eq!(got.len(), expect.len(), "tc_join count");
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!((g.a, g.b), (e.a, e.b));
            prop_assert!((g.interval.start - e.interval.start).abs() < 1e-7);
            prop_assert!((g.interval.end - e.interval.end).abs() < 1e-7);
        }

        for tech in [techniques::NONE, techniques::IC, techniques::PS, techniques::ALL] {
            let (got, _) = improved_join(&ta, &tb, t_s, t_e, tech).unwrap();
            let got = sort_pairs(got);
            prop_assert_eq!(got.len(), expect.len(), "improved {:?} count", tech);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert_eq!((g.a, g.b), (e.a, e.b), "{:?}", tech);
            }
        }
    }

    /// Counter conservation across thread counts: for any technique set
    /// and any tree shape, the parallel traversal must report exactly
    /// the sequential counters — in particular the work-accounting sum
    /// `entry_comparisons + ic_pruned` (every entry either got compared
    /// or was pruned by the intersection check; splitting the traversal
    /// across workers must neither lose nor double-count either side) —
    /// and the same `pairs_emitted` / `node_pairs`.
    #[test]
    fn parallel_counters_conserved(
        a in proptest::collection::vec(arb_object(0), 0..120),
        b in proptest::collection::vec(arb_object(1 << 32), 0..120),
        capacity in prop_oneof![Just(4usize), Just(10), Just(30)],
        t_s in 0.0..30.0f64,
        len in 0.1..90.0f64,
        threads in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let a = dedup_ids(a);
        let b = dedup_ids(b);
        let t_e = t_s + len;
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(256),
        );
        let ta = build(&a, capacity, &pool);
        let tb = build(&b, capacity, &pool);

        for tech in [
            techniques::NONE,
            techniques::IC,
            techniques::PS,
            techniques::DS_PS,
            techniques::IC_PS,
            techniques::ALL,
        ] {
            let (seq, seq_c) = improved_join(&ta, &tb, t_s, t_e, tech).unwrap();
            let (par, par_c) =
                cij_join::parallel_improved_join(&ta, &tb, t_s, t_e, tech, threads).unwrap();
            prop_assert_eq!(&seq, &par, "pairs differ: {:?} threads={}", tech, threads);
            prop_assert_eq!(seq_c, par_c, "counters differ: {:?} threads={}", tech, threads);
            prop_assert_eq!(
                seq_c.entry_comparisons + seq_c.ic_pruned,
                par_c.entry_comparisons + par_c.ic_pruned,
                "comparison+pruned conservation: {:?} threads={}", tech, threads
            );
            prop_assert_eq!(seq_c.pairs_emitted, par_c.pairs_emitted);
            prop_assert_eq!(seq_c.pairs_emitted, seq.len() as u64);
        }
    }

    /// TP-Join's current result and expiry equal brute force for
    /// arbitrary datasets.
    #[test]
    fn tp_join_equals_oracle(
        a in proptest::collection::vec(arb_object(0), 0..60),
        b in proptest::collection::vec(arb_object(1 << 32), 0..60),
        t_c in 0.0..20.0f64,
    ) {
        let a = dedup_ids(a);
        let b = dedup_ids(b);
        let pool =
            BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::with_capacity(256));
        let ta = build(&a, 10, &pool);
        let tb = build(&b, 10, &pool);
        let ans = tp_join(&ta, &tb, t_c).unwrap();

        let mut got = ans.current.clone();
        got.sort_unstable();
        prop_assert_eq!(got, brute::brute_pairs_at(&a, &b, t_c));

        let mut best = cij_geom::INFINITE_TIME;
        for (_, ma) in &a {
            for (_, mb) in &b {
                best = best.min(ma.influence_time(mb, t_c));
            }
        }
        if best.is_finite() {
            prop_assert!((ans.expiry - best).abs() < 1e-6,
                "expiry {} vs oracle {}", ans.expiry, best);
        } else {
            prop_assert_eq!(ans.expiry, cij_geom::INFINITE_TIME);
        }
    }

    /// The batched probe equals the union of per-probe
    /// `intersect_window` calls — ids and interval bits — for arbitrary
    /// probe sets (duplicates, probes far outside the data, an empty
    /// set), tree shapes and windows.
    #[test]
    fn probe_batch_equals_per_probe_windows(
        objs in proptest::collection::vec(arb_object(0), 0..200),
        near in proptest::collection::vec(arb_object(0), 0..40),
        far in proptest::collection::vec((5_000.0..9_000.0f64, -3.0..3.0f64), 0..4),
        capacity in prop_oneof![Just(4usize), Just(10), Just(30)],
        t_s in 0.0..30.0f64,
        len in 0.1..90.0f64,
    ) {
        let objs = dedup_ids(objs);
        let t_e = t_s + len;
        let pool =
            BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::with_capacity(256));
        let mut tree = TprTree::new(pool, TreeConfig { capacity, ..TreeConfig::default() });
        for &(oid, mbr) in &objs {
            tree.insert(oid, mbr, 0.0).unwrap();
        }
        // Probes: some near the data, one repeated, some that match nothing.
        let mut probes: Vec<MovingRect> = near.iter().map(|&(_, m)| m).collect();
        probes.extend(near.first().map(|&(_, m)| m));
        probes.extend(far.iter().map(|&(x, v)| {
            MovingRect::rigid(Rect::new([x, x], [x + 1.0, x + 1.0]), [v, v], 0.0)
        }));

        let mut scratch = JoinScratch::new();
        let mut counters = JoinCounters::new();
        let mut hits = Vec::new();
        // Two calls on one scratch: the second must not see the first.
        for _ in 0..2 {
            hits.clear();
            probe_batch(&tree, &probes, t_s, t_e, &mut scratch, &mut counters, &mut hits).unwrap();
        }
        let key = |h: &(u32, ObjectId, cij_geom::TimeInterval)| {
            (h.0, h.1, h.2.start.to_bits(), h.2.end.to_bits())
        };
        let mut got: Vec<_> = hits.iter().map(key).collect();
        got.sort_unstable();
        let mut expect = Vec::new();
        for (p, probe) in probes.iter().enumerate() {
            for (oid, iv) in tree.intersect_window(probe, t_s, t_e).unwrap() {
                expect.push(key(&(p as u32, oid, iv)));
            }
        }
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(counters.pairs_emitted, 2 * hits.len() as u64);
    }
}
