//! §V of the paper: TC processing applied to **continuous window
//! queries**. A window query is a join whose set B is the windows, so the
//! monitor is a plain [`TcEngine`]: three static regions plus one moving
//! patrol window are registered once on side B and never touched again,
//! the fleet on side A re-registers within `T_M`, and "who is in region
//! *q* now" is `result_at(now)` filtered on the region's id.
//!
//! Every tick's membership is checked against an independent TPR-tree
//! (`range_at`); the demo exits non-zero on a mismatch.
//!
//! ```text
//! cargo run --release --example window_monitor
//! ```
//!
//! [`TcEngine`]: cij::core::TcEngine

use std::sync::Arc;

use cij::core::{ContinuousJoinEngine, EngineConfig, TcEngine};
use cij::geom::{MovingRect, Rect};
use cij::storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij::tpr::{ObjectId, TprTree, TreeConfig};
use cij::workload::{generate_set, MovingObject, Params, SetTag, UpdateStream};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params {
        dataset_size: 3000,
        ..Params::default()
    };
    let fleet = generate_set(&params, SetTag::A, 0, 0.0);

    // Three fixed monitoring regions + one moving patrol window, with ids
    // disjoint from the fleet's (the convention `generate_pair` uses for
    // set B).
    let names = ["downtown", "midtown", "harbor", "patrol"];
    let still = |lo, hi| MovingRect::stationary(Rect::new(lo, hi), 0.0);
    let regions = [
        still([100.0, 100.0], [250.0, 250.0]),
        still([400.0, 400.0], [600.0, 600.0]),
        still([800.0, 50.0], [950.0, 200.0]),
        MovingRect::rigid(Rect::new([0.0, 450.0], [100.0, 550.0]), [4.0, 0.0], 0.0),
    ];
    let windows: Vec<MovingObject> = (1u64 << 32..)
        .zip(regions)
        .map(|(id, mbr)| MovingObject {
            id: ObjectId(id),
            mbr,
        })
        .collect();

    let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
    let config = EngineConfig::builder()
        .t_m(params.maximum_update_interval)
        .build();
    let mut monitor = TcEngine::new(pool.clone(), config, &fleet, &windows, 0.0)?;
    monitor.run_initial_join(0.0)?;

    // The checker: the same fleet in a tree of its own.
    let mut oracle = TprTree::new(pool, TreeConfig::default());
    for o in &fleet {
        oracle.insert(o.id, o.mbr, 0.0)?;
    }

    let mut stream = UpdateStream::new(&params, &fleet, &[], 0.0);
    // 200 ticks > 3·T_M: the windows outlive several update rounds of the
    // fleet without ever re-registering.
    for tick in 0..=200u32 {
        let now = f64::from(tick);
        if tick > 0 {
            let updates = stream.tick(now);
            for u in &updates {
                oracle.update(u.id, &u.old_mbr, u.new_mbr, now)?;
            }
            // TC maintenance: one bounded probe of the tick's batch.
            monitor.apply_batch(&updates, now)?;
            monitor.gc(now);
        }
        let answer = monitor.result_at(now);
        let mut counts = Vec::new();
        for (w, name) in windows.iter().zip(names) {
            let members = answer.iter().filter(|&&(_, q)| q == w.id);
            let members: Vec<ObjectId> = members.map(|&(o, _)| o).collect();
            let mut expect = oracle.range_at(&w.mbr.at(now), now)?;
            expect.sort_unstable();
            if members != expect {
                eprintln!(
                    "MISMATCH at t={now} in {name}: engine {} members, range_at {}",
                    members.len(),
                    expect.len()
                );
                std::process::exit(1);
            }
            counts.push(format!("{name}={}", members.len()));
        }
        if tick % 20 == 0 {
            println!("t={now:>3}: {}", counts.join("  "));
        }
    }
    println!("window membership ≡ range_at at every tick through t=200");
    Ok(())
}
