//! Golden pages: a seeded insert / update / delete sequence on a
//! small-capacity tree, pinned by an FNV-1a digest of every live page's
//! bytes (in page-id order) and by the pool's I/O counters — once one
//! operation at a time, once in multi-entry batches.
//!
//! Any change to how the tree writes nodes — the codec, the pool's write
//! path, the choice of child, split or reinsert victims — shows up here
//! as a different digest or count. A change that only makes mutation
//! cheaper must leave every pinned number exactly as it is.

use std::sync::Arc;

use cij_geom::{MovingRect, Rect};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore, IoSnapshot, PageId, PageStore};
use cij_tpr::{ObjectId, TprTree, TreeConfig};

/// SplitMix64: the sequence depends on nothing outside this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, from the top 53 bits.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

fn object(rng: &mut Rng, now: f64) -> MovingRect {
    let x = rng.range(0.0, 500.0);
    let y = rng.range(0.0, 500.0);
    let side = rng.range(0.5, 6.0);
    let v = [rng.range(-3.0, 3.0), rng.range(-3.0, 3.0)];
    MovingRect::rigid(Rect::new([x, y], [x + side, y + side]), v, now)
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
}

/// FNV-1a over (page id, page bytes) of every live page, in id order,
/// and the number of live pages. Flushes the pool first.
fn pages_digest(pool: &BufferPool, store: &InMemoryStore) -> (u64, usize) {
    pool.flush().unwrap();
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut page = cij_storage::zeroed_page();
    let mut live_pages = 0;
    let allocated = u32::try_from(pool.stats().snapshot().allocations).unwrap();
    for id in 0..allocated {
        if store.read(PageId(id), &mut page).is_ok() {
            fnv1a(&mut digest, &id.to_le_bytes());
            fnv1a(&mut digest, &page[..]);
            live_pages += 1;
        }
    }
    assert_eq!(live_pages, store.live_pages());
    (digest, live_pages)
}

/// What the sequence leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// [`pages_digest`] after the churn, when the tree is tallest.
    churned: (u64, usize),
    /// [`pages_digest`] after the shrink.
    shrunk: (u64, usize),
    /// The pool's counters at the end (the flushes included).
    io: IoSnapshot,
    /// Tallest the tree grew, and its height at the end.
    max_height: u32,
    final_height: u32,
    final_len: usize,
}

fn run() -> Outcome {
    let store = Arc::new(InMemoryStore::new());
    // Smaller than the tree, so writes land on evicted pages too.
    let pool = BufferPool::new(store.clone(), BufferPoolConfig::with_capacity(12));
    // Capacity 6: minimum 2 per node, one forced-reinsert victim. Every
    // first overflow of a non-root node in an operation reinserts, the
    // next one splits; a leaf that drops to one entry dissolves and its
    // orphan is reinserted.
    let mut tree = TprTree::new(pool.clone(), TreeConfig::with_capacity(6));
    let mut rng = Rng(0x00C1_7E57);
    let mut live: Vec<(ObjectId, MovingRect)> = Vec::new();
    let mut max_height = 0;
    let mut now = 0.0;

    // Growth: the root splits twice over.
    for i in 0..400u64 {
        let mbr = object(&mut rng, now);
        tree.insert(ObjectId(i), mbr, now).unwrap();
        live.push((ObjectId(i), mbr));
        max_height = max_height.max(tree.height());
    }
    // Churn: updates move objects, with a delete and a fresh insert now
    // and then.
    let mut next_id = 400u64;
    for step in 0..1_500u64 {
        if step % 50 == 0 {
            now += 1.0;
        }
        let k = (rng.next() % live.len() as u64) as usize;
        match step % 7 {
            3 => {
                let (oid, mbr) = live.swap_remove(k);
                tree.delete(oid, &mbr, now).unwrap();
            }
            5 => {
                let mbr = object(&mut rng, now);
                tree.insert(ObjectId(next_id), mbr, now).unwrap();
                live.push((ObjectId(next_id), mbr));
                next_id += 1;
            }
            _ => {
                let new = object(&mut rng, now);
                let (oid, old) = live[k];
                tree.update(oid, &old, new, now).unwrap();
                live[k].1 = new;
            }
        }
        max_height = max_height.max(tree.height());
    }
    tree.validate(now).unwrap();
    let churned = pages_digest(&pool, &store);
    // Shrink: delete all but three, so the root collapses level by level.
    now += 1.0;
    while live.len() > 3 {
        let k = (rng.next() % live.len() as u64) as usize;
        let (oid, mbr) = live.swap_remove(k);
        tree.delete(oid, &mbr, now).unwrap();
    }
    tree.validate(now).unwrap();
    let shrunk = pages_digest(&pool, &store);
    Outcome {
        churned,
        shrunk,
        io: pool.stats().snapshot(),
        max_height,
        final_height: tree.height(),
        final_len: tree.len(),
    }
}

#[test]
fn mutation_sequence_writes_the_pinned_pages() {
    let got = run();
    // The sequence reaches what it is meant to: root growth to height 5,
    // dissolved nodes (frees beyond the root collapses) and a root
    // shrink back to a single leaf.
    assert_eq!((got.max_height, got.final_height, got.final_len), (5, 1, 3));
    assert!(got.io.frees > u64::from(got.max_height), "{got:?}");
    let expected = Outcome {
        churned: (0xB1FA_F863_DEB8_5C4B, 150),
        shrunk: (0xBEAE_5ADE_0D85_5B4D, 1),
        io: IoSnapshot {
            physical_reads: 12_608,
            physical_writes: 9_603,
            logical_reads: 25_880,
            logical_writes: 20_337,
            allocations: 412,
            frees: 411,
        },
        max_height: 5,
        final_height: 1,
        final_len: 3,
    };
    assert_eq!(got, expected, "pages or counts moved");
}

/// The same capacity-6, 12-page setup driven through multi-entry
/// batches ([`TprTree::apply_batch`]): growth by batches of inserts
/// (a leaf takes several entries at once and splits in two, or is tiled
/// into as many pieces as it needs when more than twice over capacity;
/// the root grows), churn by batches mixing updates,
/// deletes and fresh inserts (forced reinserts, dissolves), and a shrink
/// by batches of deletes (the root collapses, the last batch empties
/// nearly every node at once).
fn run_batched() -> Outcome {
    let store = Arc::new(InMemoryStore::new());
    let pool = BufferPool::new(store.clone(), BufferPoolConfig::with_capacity(12));
    let mut tree = TprTree::new(pool.clone(), TreeConfig::with_capacity(6));
    let mut rng = Rng(0x0BA7_C4ED);
    let mut live: Vec<(ObjectId, MovingRect)> = Vec::new();
    let mut max_height = 0;
    let mut now = 0.0;

    // Growth: 40 batches of 10 inserts.
    for batch in 0..40u64 {
        let fresh: Vec<_> = (0..10)
            .map(|i| (ObjectId(batch * 10 + i), object(&mut rng, now)))
            .collect();
        tree.apply_batch([], fresh.iter().copied(), now).unwrap();
        live.extend(fresh);
        max_height = max_height.max(tree.height());
    }
    // Churn: each batch updates, deletes and adds distinct objects.
    let mut next_id = 400u64;
    for batch in 0..150u64 {
        now += 0.5;
        let mut deletes = Vec::new();
        let mut inserts = Vec::new();
        let size = 4 + (rng.next() % 12) as usize;
        for _ in 0..size {
            let k = (rng.next() % live.len() as u64) as usize;
            let (oid, old) = live.swap_remove(k);
            deletes.push((oid, old));
            if !rng.next().is_multiple_of(4) {
                // An update: the same id, a new trajectory.
                inserts.push((oid, object(&mut rng, now)));
            }
        }
        for _ in 0..(batch % 5) {
            inserts.push((ObjectId(next_id), object(&mut rng, now)));
            next_id += 1;
        }
        tree.apply_batch(deletes, inserts.iter().copied(), now)
            .unwrap();
        live.extend(inserts);
        max_height = max_height.max(tree.height());
    }
    tree.validate(now).unwrap();
    let churned = pages_digest(&pool, &store);
    // Shrink: batches of 40 deletes, then one that leaves three.
    now += 1.0;
    while live.len() > 3 {
        let size = if live.len() > 80 { 40 } else { live.len() - 3 };
        let deletes: Vec<_> = (0..size)
            .map(|_| live.swap_remove((rng.next() % live.len() as u64) as usize))
            .collect();
        tree.apply_batch(deletes, [], now).unwrap();
    }
    tree.validate(now).unwrap();
    let shrunk = pages_digest(&pool, &store);
    Outcome {
        churned,
        shrunk,
        io: pool.stats().snapshot(),
        max_height,
        final_height: tree.height(),
        final_len: tree.len(),
    }
}

#[test]
fn batched_mutation_sequence_writes_the_pinned_pages() {
    let got = run_batched();
    // Root growth to height 5, dissolved nodes and a root shrink back to
    // a single leaf, as in the one-at-a-time sequence.
    assert_eq!((got.max_height, got.final_height, got.final_len), (5, 1, 3));
    assert!(got.io.frees > u64::from(got.max_height), "{got:?}");
    let expected = Outcome {
        churned: (0x566C_2164_F47C_F914, 143),
        shrunk: (0x484F_91AF_1641_8E1A, 1),
        io: IoSnapshot {
            physical_reads: 11_194,
            physical_writes: 9_247,
            logical_reads: 14_477,
            logical_writes: 11_795,
            allocations: 477,
            frees: 476,
        },
        max_height: 5,
        final_height: 1,
        final_len: 3,
    };
    assert_eq!(got, expected, "pages or counts moved");
}
