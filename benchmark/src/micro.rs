//! Direct timings of single public functions of the lower layers, on
//! data sampled from the workload's inputs.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cij_geom::MovingRect;
use cij_join::{improved_join, ps_intersection_soa, tc_join, techniques, JoinCounters, SweepSoa};
use cij_storage::{zeroed_page, BufferPool, BufferPoolConfig, InMemoryStore, PageId, Wal};
use cij_tpr::{ChildRef, TprTree, TreeConfig};
use cij_workload::MovingObject;

use crate::stacks::{err, BenchResult};
use crate::workloads::Inputs;

pub struct Micro {
    pub intersect_ns: f64,
    pub within_dist_ns: f64,
    pub read_hit_ns: f64,
    pub read_miss_ns: f64,
    pub wal_append_us: f64,
    pub tc_join_ms: f64,
    pub improved_join_ms: f64,
    pub sweep_soa_us: f64,
    /// Traversal work of the static `improved_join`.
    pub improved: JoinCounters,
}

const GEOM_PAIRS: usize = 1_000_000;
const DIST_PAIRS: usize = 200_000;
/// ε of the `within_dist` timing, the simjoin rung's threshold.
pub const EPSILON: f64 = 5.0;

/// `intersect_interval` and `within_dist_sq_interval` over pairs drawn
/// from the two object sets.
fn geom(inputs: &Inputs) -> (f64, f64) {
    let (a, b) = (&inputs.set_a, &inputs.set_b);
    let t_m = inputs.spec.params.maximum_update_interval;
    let pair = |i: usize| (&a[i % a.len()].mbr, &b[i.wrapping_mul(7919) % b.len()].mbr);
    let t0 = Instant::now();
    let mut hits = 0usize;
    for i in 0..GEOM_PAIRS {
        let (x, y) = pair(i);
        hits += usize::from(
            black_box(x)
                .intersect_interval(black_box(y), 0.0, t_m)
                .is_some(),
        );
    }
    black_box(hits);
    let intersect_ns = t0.elapsed().as_nanos() as f64 / GEOM_PAIRS as f64;
    let t0 = Instant::now();
    for i in 0..DIST_PAIRS {
        let (x, y) = pair(i);
        hits += usize::from(
            black_box(x)
                .within_dist_sq_interval(black_box(y), EPSILON * EPSILON, 0.0, t_m)
                .is_some(),
        );
    }
    black_box(hits);
    let within_dist_ns = t0.elapsed().as_nanos() as f64 / DIST_PAIRS as f64;
    (intersect_ns, within_dist_ns)
}

const POOL_FRAMES: usize = 50;
const POOL_PAGES: usize = 5_000;

/// A 50-frame pool cycling 5 000 pages (every read a miss), then
/// re-reading its resident pages (every read a hit).
fn pool_reads() -> BenchResult<(f64, f64)> {
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(POOL_FRAMES),
    );
    let mut page = zeroed_page();
    let ids: Vec<PageId> = (0..POOL_PAGES)
        .map(|i| {
            let id = pool.allocate();
            page[0] = i as u8;
            pool.write(id, &page).map(|()| id)
        })
        .collect::<Result<_, _>>()
        .map_err(err("BufferPool::write"))?;
    let mut sum = 0u64;
    let t0 = Instant::now();
    for _ in 0..4 {
        for id in &ids {
            sum += u64::from(pool.read(*id, |p| p[0]).map_err(err("BufferPool::read"))?);
        }
    }
    let miss_ns = t0.elapsed().as_nanos() as f64 / (4 * POOL_PAGES) as f64;
    // The last 50 pages read are resident now.
    let resident = &ids[POOL_PAGES - POOL_FRAMES..];
    let rounds = 4 * POOL_PAGES / POOL_FRAMES;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for id in resident {
            sum += u64::from(pool.read(*id, |p| p[0]).map_err(err("BufferPool::read"))?);
        }
    }
    let hit_ns = t0.elapsed().as_nanos() as f64 / (rounds * POOL_FRAMES) as f64;
    black_box(sum);
    Ok((hit_ns, miss_ns))
}

const WAL_RECORDS: usize = 100;
const WAL_RECORD_BYTES: usize = 16 * 1024;

/// `Wal::append` + `Wal::sync` of batch-sized records.
fn wal_append(tmp_dir: &Path) -> BenchResult<f64> {
    std::fs::create_dir_all(tmp_dir).map_err(err("create tmp dir"))?;
    let path = tmp_dir.join(format!("micro-{}.wal", std::process::id()));
    let payload = vec![0xA5u8; WAL_RECORD_BYTES];
    let timed = (|| {
        let mut wal = Wal::create(&path).map_err(err("Wal::create"))?;
        let t0 = Instant::now();
        for _ in 0..WAL_RECORDS {
            wal.append(&payload).map_err(err("Wal::append"))?;
            wal.sync().map_err(err("Wal::sync"))?;
        }
        Ok(t0.elapsed().as_secs_f64() * 1e6 / WAL_RECORDS as f64)
    })();
    let _ = std::fs::remove_file(&path);
    timed
}

fn fill_tree(pool: &BufferPool, config: TreeConfig, set: &[MovingObject]) -> BenchResult<TprTree> {
    let mut tree = TprTree::new(pool.clone(), config);
    for o in set {
        tree.insert(o.id, o.mbr, 0.0)
            .map_err(err("TprTree::insert"))?;
    }
    Ok(tree)
}

/// The entries of the tree's leftmost leaf.
fn leftmost_leaf(tree: &TprTree) -> BenchResult<Vec<MovingRect>> {
    let mut page = tree.root_page().ok_or("empty tree")?;
    loop {
        let node = tree.read_node(page).map_err(err("TprTree::read_node"))?;
        match node.entries.first().map(|e| e.child) {
            Some(ChildRef::Page(p)) => page = p,
            _ => return Ok(node.entries.iter().map(|e| e.mbr).collect()),
        }
    }
}

const SWEEP_ROUNDS: usize = 20_000;

/// The static joins over the built pair on `[0, T_M]`, and the SoA
/// plane sweep over one leaf of each tree.
fn joins(inputs: &Inputs) -> BenchResult<(f64, f64, f64, JoinCounters)> {
    let spec = &inputs.spec;
    let t_m = spec.params.maximum_update_interval;
    let pool = BufferPool::new(
        Arc::new(InMemoryStore::new()),
        BufferPoolConfig::with_capacity(spec.pool_pages),
    );
    let config = TreeConfig {
        capacity: spec.params.node_capacity,
        horizon: t_m,
        ..TreeConfig::default()
    };
    let tree_a = fill_tree(&pool, config, &inputs.set_a)?;
    let tree_b = fill_tree(&pool, config, &inputs.set_b)?;

    let t0 = Instant::now();
    let (tc_pairs, _) = tc_join(&tree_a, &tree_b, 0.0, t_m).map_err(err("tc_join"))?;
    let tc_join_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let (imp_pairs, improved) =
        improved_join(&tree_a, &tree_b, 0.0, t_m, techniques::ALL).map_err(err("improved_join"))?;
    let improved_join_ms = t0.elapsed().as_secs_f64() * 1e3;
    if tc_pairs.len() != imp_pairs.len() {
        return Err(format!(
            "tc_join found {} pairs, improved_join {}",
            tc_pairs.len(),
            imp_pairs.len()
        ));
    }

    let leaf_a = leftmost_leaf(&tree_a)?;
    let leaf_b = leftmost_leaf(&tree_b)?;
    let (mut sa, mut sb) = (SweepSoa::new(), SweepSoa::new());
    let mut counters = JoinCounters::new();
    let mut out = Vec::new();
    let t0 = Instant::now();
    for _ in 0..SWEEP_ROUNDS {
        sa.clear();
        sb.clear();
        for (i, m) in leaf_a.iter().enumerate() {
            sa.push(*m, i as u32, 0, 0.0, t_m);
        }
        for (i, m) in leaf_b.iter().enumerate() {
            sb.push(*m, i as u32, 0, 0.0, t_m);
        }
        ps_intersection_soa(&mut sa, &mut sb, 0.0, t_m, &mut counters, &mut out);
        black_box(&out);
    }
    let sweep_soa_us = t0.elapsed().as_secs_f64() * 1e6 / SWEEP_ROUNDS as f64;
    Ok((tc_join_ms, improved_join_ms, sweep_soa_us, improved))
}

pub fn run(inputs: &Inputs, tmp_dir: &Path) -> BenchResult<Micro> {
    let (intersect_ns, within_dist_ns) = geom(inputs);
    let (read_hit_ns, read_miss_ns) = pool_reads()?;
    let wal_append_us = wal_append(tmp_dir)?;
    let (tc_join_ms, improved_join_ms, sweep_soa_us, improved) = joins(inputs)?;
    Ok(Micro {
        intersect_ns,
        within_dist_ns,
        read_hit_ns,
        read_miss_ns,
        wal_append_us,
        tc_join_ms,
        improved_join_ms,
        sweep_soa_us,
        improved,
    })
}
