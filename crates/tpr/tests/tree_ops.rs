//! Randomized workout of the TPR-tree against a brute-force shadow map:
//! after any mixed insert/delete/update workload, structure invariants
//! hold and every query answer matches exhaustive evaluation.

use std::collections::HashMap;
use std::sync::Arc;

use cij_geom::{MovingRect, Rect, Time, INFINITE_TIME};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprError, TprTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_tree(capacity: usize) -> TprTree {
    let store = Arc::new(InMemoryStore::new());
    // A large pool keeps unit tests fast; I/O-sensitive tests build their
    // own pools.
    let pool = BufferPool::new(store, BufferPoolConfig::with_capacity(256));
    TprTree::new(
        pool,
        TreeConfig {
            capacity,
            ..TreeConfig::default()
        },
    )
}

fn random_object(rng: &mut StdRng, now: Time) -> MovingRect {
    let x = rng.gen_range(0.0..1000.0);
    let y = rng.gen_range(0.0..1000.0);
    let side = rng.gen_range(0.5..4.0);
    let vx = rng.gen_range(-3.0..3.0);
    let vy = rng.gen_range(-3.0..3.0);
    MovingRect::rigid(Rect::new([x, y], [x + side, y + side]), [vx, vy], now)
}

/// Inserts `n` random objects at time `now`; returns the shadow map.
fn fill(
    tree: &mut TprTree,
    rng: &mut StdRng,
    n: usize,
    now: Time,
) -> HashMap<ObjectId, MovingRect> {
    let mut shadow = HashMap::new();
    for i in 0..n {
        let oid = ObjectId(i as u64);
        let mbr = random_object(rng, now);
        tree.insert(oid, mbr, now).unwrap();
        shadow.insert(oid, mbr);
    }
    shadow
}

#[test]
fn empty_tree_queries() {
    let tree = make_tree(8);
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 0);
    assert!(tree
        .range_at(&Rect::new([0.0, 0.0], [1000.0, 1000.0]), 0.0)
        .unwrap()
        .is_empty());
    assert!(tree
        .intersect_window(
            &MovingRect::stationary(Rect::new([0.0, 0.0], [10.0, 10.0]), 0.0),
            0.0,
            INFINITE_TIME
        )
        .unwrap()
        .is_empty());
    tree.validate(0.0).unwrap();
}

#[test]
fn single_insert_and_delete() {
    let mut tree = make_tree(8);
    let mbr = MovingRect::rigid(Rect::new([5.0, 5.0], [6.0, 6.0]), [1.0, 0.0], 0.0);
    tree.insert(ObjectId(1), mbr, 0.0).unwrap();
    assert_eq!(tree.len(), 1);
    assert_eq!(tree.height(), 1);
    tree.validate(0.0).unwrap();
    let found = tree
        .range_at(&Rect::new([0.0, 0.0], [10.0, 10.0]), 0.0)
        .unwrap();
    assert_eq!(found, vec![ObjectId(1)]);
    tree.delete(ObjectId(1), &mbr, 1.0).unwrap();
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 0);
    tree.validate(1.0).unwrap();
}

#[test]
fn delete_missing_object_errors() {
    let mut tree = make_tree(8);
    let mbr = MovingRect::stationary(Rect::new([0.0, 0.0], [1.0, 1.0]), 0.0);
    assert!(matches!(
        tree.delete(ObjectId(9), &mbr, 0.0),
        Err(TprError::ObjectNotFound(ObjectId(9)))
    ));
    tree.insert(ObjectId(1), mbr, 0.0).unwrap();
    assert!(matches!(
        tree.delete(ObjectId(2), &mbr, 0.0),
        Err(TprError::ObjectNotFound(ObjectId(2)))
    ));
    // Tree unchanged by the failed deletes.
    assert_eq!(tree.len(), 1);
    tree.validate(0.0).unwrap();
}

#[test]
fn bulk_insert_validates_and_finds_everything() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut tree = make_tree(16);
    let shadow = fill(&mut tree, &mut rng, 2000, 0.0);
    let stats = tree.validate(0.0).unwrap();
    assert_eq!(stats.objects, 2000);
    assert!(stats.height >= 2, "2000 objects can't fit one node");

    // Every object is discoverable through a point query at its location.
    for (oid, mbr) in shadow.iter().take(200) {
        let r = mbr.at(0.0);
        let found = tree.range_at(&r, 0.0).unwrap();
        assert!(found.contains(oid), "{oid} missing from its own region");
    }
    // Full-space query returns everything exactly once.
    let all = tree
        .range_at(&Rect::new([-1e6, -1e6], [1e6, 1e6]), 0.0)
        .unwrap();
    assert_eq!(all.len(), 2000);
    let unique: std::collections::HashSet<_> = all.iter().collect();
    assert_eq!(unique.len(), 2000);
}

#[test]
fn range_query_matches_brute_force_at_future_times() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut tree = make_tree(16);
    let shadow = fill(&mut tree, &mut rng, 800, 0.0);

    for t in [0.0, 13.0, 59.0] {
        for _ in 0..20 {
            let cx = rng.gen_range(0.0..1000.0);
            let cy = rng.gen_range(0.0..1000.0);
            let w = Rect::new([cx, cy], [cx + 60.0, cy + 60.0]);
            let mut got = tree.range_at(&w, t).unwrap();
            let mut expect: Vec<ObjectId> = shadow
                .iter()
                .filter(|(_, m)| m.at(t).intersects(&w))
                .map(|(o, _)| *o)
                .collect();
            got.sort();
            expect.sort();
            assert_eq!(got, expect, "window query diverged at t={t}");
        }
    }
}

#[test]
fn intersect_window_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut tree = make_tree(16);
    let shadow = fill(&mut tree, &mut rng, 600, 0.0);

    for _ in 0..30 {
        let probe = random_object(&mut rng, 0.0);
        let (ts, te) = (0.0, 60.0);
        let mut got = tree.intersect_window(&probe, ts, te).unwrap();
        let mut expect: Vec<(ObjectId, _)> = shadow
            .iter()
            .filter_map(|(o, m)| m.intersect_interval(&probe, ts, te).map(|iv| (*o, iv)))
            .collect();
        got.sort_by_key(|(o, _)| *o);
        expect.sort_by_key(|(o, _)| *o);
        assert_eq!(got.len(), expect.len(), "pair count diverged");
        for ((go, gi), (eo, ei)) in got.iter().zip(&expect) {
            assert_eq!(go, eo);
            assert!((gi.start - ei.start).abs() < 1e-9);
            assert!((gi.end - ei.end).abs() < 1e-9);
        }
    }
}

#[test]
fn mixed_workload_keeps_invariants() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut tree = make_tree(10); // small capacity → deep tree, many splits
    let mut shadow: HashMap<ObjectId, MovingRect> = HashMap::new();
    let mut next_id = 0u64;
    let mut now = 0.0;

    for round in 0..60 {
        now = round as f64;
        for _ in 0..40 {
            let op = rng.gen_range(0..100);
            if op < 45 || shadow.is_empty() {
                let oid = ObjectId(next_id);
                next_id += 1;
                let mbr = random_object(&mut rng, now);
                tree.insert(oid, mbr, now).unwrap();
                shadow.insert(oid, mbr);
            } else if op < 75 {
                // Update a random live object.
                let &oid = shadow.keys().nth(rng.gen_range(0..shadow.len())).unwrap();
                let old = shadow[&oid];
                let new = random_object(&mut rng, now);
                tree.update(oid, &old, new, now).unwrap();
                shadow.insert(oid, new);
            } else {
                let &oid = shadow.keys().nth(rng.gen_range(0..shadow.len())).unwrap();
                let old = shadow.remove(&oid).unwrap();
                tree.delete(oid, &old, now).unwrap();
            }
        }
        assert_eq!(tree.len(), shadow.len());
        tree.validate(now).unwrap();
    }

    // Final cross-check: tree contents == shadow contents.
    let mut listed = tree.iter_objects().unwrap();
    listed.sort_by_key(|(o, _)| *o);
    let mut expect: Vec<_> = shadow.iter().map(|(o, m)| (*o, *m)).collect();
    expect.sort_by_key(|(o, _)| *o);
    assert_eq!(listed.len(), expect.len());
    for ((lo, lm), (eo, em)) in listed.iter().zip(&expect) {
        assert_eq!(lo, eo);
        // The stored trajectory must be exactly what was inserted.
        assert_eq!(lm.t_ref, em.t_ref);
        assert_eq!(lm.lo, em.lo);
        assert_eq!(lm.vlo, em.vlo);
    }

    // Drain to empty.
    let remaining: Vec<_> = shadow.drain().collect();
    for (oid, mbr) in remaining {
        tree.delete(oid, &mbr, now).unwrap();
    }
    assert!(tree.is_empty());
    tree.validate(now).unwrap();
}

#[test]
fn queries_at_much_later_times_stay_correct() {
    // Bounds grow stale (loose) as time passes, but must never produce
    // false negatives.
    let mut rng = StdRng::seed_from_u64(5);
    let mut tree = make_tree(16);
    let shadow = fill(&mut tree, &mut rng, 300, 0.0);
    let t = 240.0; // four maximum update intervals later
    for (oid, mbr) in shadow.iter().take(100) {
        let r = mbr.at(t);
        let found = tree.range_at(&r, t).unwrap();
        assert!(found.contains(oid), "{oid} lost at distant time");
    }
}

#[test]
fn small_pool_still_correct_just_more_io() {
    // A 5-page pool thrashes; results must be identical to a huge pool.
    let store = Arc::new(InMemoryStore::new());
    let pool = BufferPool::new(store, BufferPoolConfig::with_capacity(5));
    let mut tree = TprTree::new(pool.clone(), TreeConfig::default());
    let mut rng = StdRng::seed_from_u64(11);
    let mut shadow = HashMap::new();
    for i in 0..500 {
        let oid = ObjectId(i);
        let mbr = random_object(&mut rng, 0.0);
        tree.insert(oid, mbr, 0.0).unwrap();
        shadow.insert(oid, mbr);
    }
    tree.validate(0.0).unwrap();

    let before = pool.stats().snapshot();
    let w = Rect::new([100.0, 100.0], [400.0, 400.0]);
    let mut got = tree.range_at(&w, 30.0).unwrap();
    let delta = pool.stats().snapshot() - before;
    assert!(delta.physical_reads > 0, "tiny pool must miss");

    let mut expect: Vec<ObjectId> = shadow
        .iter()
        .filter(|(_, m)| m.at(30.0).intersects(&w))
        .map(|(o, _)| *o)
        .collect();
    got.sort();
    expect.sort();
    assert_eq!(got, expect);
}

#[test]
fn update_heavy_workload_matches_paper_update_pattern() {
    // The paper's maintenance loop: every object re-registers within T_M.
    let mut rng = StdRng::seed_from_u64(77);
    let mut tree = make_tree(30);
    let mut shadow = HashMap::new();
    let n = 400;
    for i in 0..n {
        let oid = ObjectId(i);
        let mbr = random_object(&mut rng, 0.0);
        tree.insert(oid, mbr, 0.0).unwrap();
        shadow.insert(oid, mbr);
    }
    // 120 ticks of updates; each tick updates ~n/60 objects.
    for tick in 1..=120 {
        let now = tick as f64;
        for _ in 0..(n / 60) {
            let oid = ObjectId(rng.gen_range(0..n));
            let old = shadow[&oid];
            let new = random_object(&mut rng, now);
            tree.update(oid, &old, new, now).unwrap();
            shadow.insert(oid, new);
        }
        if tick % 30 == 0 {
            tree.validate(now).unwrap();
        }
    }
    assert_eq!(tree.len(), n as usize);
}

#[test]
fn duplicate_geometry_different_ids() {
    // Many objects with identical rectangles must all be stored and all
    // be individually deletable.
    let mut tree = make_tree(8);
    let mbr = MovingRect::rigid(Rect::new([1.0, 1.0], [2.0, 2.0]), [1.0, 1.0], 0.0);
    for i in 0..50 {
        tree.insert(ObjectId(i), mbr, 0.0).unwrap();
    }
    assert_eq!(tree.len(), 50);
    tree.validate(0.0).unwrap();
    for i in 0..50 {
        tree.delete(ObjectId(i), &mbr, 0.0).unwrap();
    }
    assert!(tree.is_empty());
}

#[test]
fn zero_extent_objects_are_supported() {
    let mut tree = make_tree(8);
    let mut rng = StdRng::seed_from_u64(3);
    for i in 0..100 {
        let p = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
        let mbr = MovingRect::rigid(Rect::point(p), [1.0, -1.0], 0.0);
        tree.insert(ObjectId(i), mbr, 0.0).unwrap();
    }
    tree.validate(0.0).unwrap();
    let all = tree
        .range_at(&Rect::new([-1e3, -1e3], [1e3, 1e3]), 0.0)
        .unwrap();
    assert_eq!(all.len(), 100);
}

#[test]
fn highly_skewed_velocities() {
    // Everything moves the same direction fast — the paper notes MBRs
    // then may not expand in all directions; tree must still work.
    let mut tree = make_tree(16);
    let mut rng = StdRng::seed_from_u64(8);
    let mut shadow = HashMap::new();
    for i in 0..300 {
        let x = rng.gen_range(0.0..1000.0);
        let y = rng.gen_range(0.0..1000.0);
        let mbr = MovingRect::rigid(Rect::new([x, y], [x + 1.0, y + 1.0]), [5.0, 5.0], 0.0);
        tree.insert(ObjectId(i), mbr, 0.0).unwrap();
        shadow.insert(ObjectId(i), mbr);
    }
    tree.validate(0.0).unwrap();
    let w = Rect::new([500.0, 500.0], [700.0, 700.0]);
    let t = 40.0;
    let mut got = tree.range_at(&w, t).unwrap();
    let mut expect: Vec<ObjectId> = shadow
        .iter()
        .filter(|(_, m)| m.at(t).intersects(&w))
        .map(|(o, _)| *o)
        .collect();
    got.sort();
    expect.sort();
    assert_eq!(got, expect);
}

#[test]
fn tree_on_real_file_store() {
    // End-to-end disk residency: the whole tree lives in an actual file.
    use cij_storage::FileStore;
    let mut path = std::env::temp_dir();
    path.push(format!("cij-tree-{}.pages", std::process::id()));
    let result = std::panic::catch_unwind(|| {
        let store = Arc::new(FileStore::create(&path).unwrap());
        let pool = BufferPool::new(store, BufferPoolConfig::with_capacity(50));
        let mut tree = TprTree::new(pool, TreeConfig::default());
        let mut rng = StdRng::seed_from_u64(55);
        let mut shadow = HashMap::new();
        for i in 0..400 {
            let oid = ObjectId(i);
            let mbr = random_object(&mut rng, 0.0);
            tree.insert(oid, mbr, 0.0).unwrap();
            shadow.insert(oid, mbr);
        }
        tree.validate(0.0).unwrap();
        // Updates over the file store too.
        for i in 0..100 {
            let oid = ObjectId(i);
            let old = shadow[&oid];
            let new = random_object(&mut rng, 1.0);
            tree.update(oid, &old, new, 1.0).unwrap();
            shadow.insert(oid, new);
        }
        let w = Rect::new([200.0, 200.0], [600.0, 600.0]);
        let mut got = tree.range_at(&w, 10.0).unwrap();
        let mut expect: Vec<ObjectId> = shadow
            .iter()
            .filter(|(_, m)| m.at(10.0).intersects(&w))
            .map(|(o, _)| *o)
            .collect();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
    });
    let _ = std::fs::remove_file(&path);
    result.unwrap();
}

#[test]
fn corrupt_page_surfaces_as_error_not_panic() {
    // Failure injection: smash a node page behind the tree's back; the
    // next traversal must return a Corrupt error, never panic or hang.
    let store = Arc::new(InMemoryStore::new());
    let pool = BufferPool::new(store.clone(), BufferPoolConfig::with_capacity(4));
    let mut tree = TprTree::new(pool.clone(), TreeConfig::default());
    let mut rng = StdRng::seed_from_u64(66);
    for i in 0..100 {
        tree.insert(ObjectId(i), random_object(&mut rng, 0.0), 0.0)
            .unwrap();
    }
    pool.clear().unwrap(); // push everything to the store

    // Corrupt the root page directly on the store.
    use cij_storage::PageStore;
    let root = tree.root_page().unwrap();
    let mut garbage = cij_storage::zeroed_page();
    garbage[0] = 0xDE;
    garbage[1] = 0xAD;
    store.write(root, &garbage).unwrap();

    let err = tree
        .range_at(&Rect::new([0.0, 0.0], [1e3, 1e3]), 0.0)
        .unwrap_err();
    assert!(
        matches!(
            err,
            TprError::Storage(cij_storage::StorageError::Corrupt(_))
        ),
        "got {err:?}"
    );
}
