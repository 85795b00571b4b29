//! Parallel execution of the synchronous traversal.
//!
//! The sequential kernel in [`crate::improved`] is a depth-first
//! traversal over node *pairs*. This module splits such a traversal at a
//! top frontier of node pairs and fans the frontier out over
//! [`fan_out_tasks`]' workers, then merges the per-task outputs in
//! frontier order. Because
//!
//! 1. the frontier is built by running the sequential kernel itself, one
//!    node pair at a time, in its spill mode (each would-be recursive call
//!    is captured as a task instead of executed, nodes already read and
//!    window already tightened), and
//! 2. each task is executed by the unmodified sequential kernel, and
//! 3. task outputs are concatenated in task order — which is exactly the
//!    depth-first visit order of the sequential traversal,
//!
//! the merged pair list is **bit-identical** to the sequential result,
//! including its order, and the merged [`JoinCounters`] sum to exactly the
//! sequential totals. Logical I/O is also identical: a task stores nodes
//! its *parent* level already read, precisely as the sequential recursion
//! passes already-read nodes down. Only physical I/O (buffer-pool
//! hit/miss patterns) may differ under concurrency.
//!
//! `threads <= 1` falls back to the plain sequential entry point.

use std::sync::atomic::{AtomicUsize, Ordering};

use cij_geom::{Time, TimeInterval};
use cij_tpr::{EntryLanes, TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::improved::{assert_window, improved_join, Techniques, Traversal};
use crate::pair::JoinPair;
use crate::scratch::JoinScratch;

/// Deferred recursive calls captured by a kernel in spill mode:
/// `(node_a, node_b, window)`, the nodes as owned copies of the lanes the
/// kernel read them into (its frames are reused for the next child).
pub(crate) type SpillSink = Vec<(EntryLanes, EntryLanes, TimeInterval)>;

/// Frontier tasks per worker thread: enough over-subscription that the
/// atomic-cursor work stealing evens out skewed subtree sizes.
const TASKS_PER_THREAD: usize = 8;

/// A unit of deferred traversal work: a node pair (already read from the
/// pool), the window to process it under, and the job it belongs to.
struct Task {
    job: usize,
    na: EntryLanes,
    nb: EntryLanes,
    win: TimeInterval,
}

impl Task {
    /// A task can be expanded into sub-tasks unless it is an equal-level
    /// leaf pair — the only shape whose processing emits pairs directly.
    fn expandable(&self) -> bool {
        self.level_sum() > 0
    }

    /// Expansion priority: shallower (higher-level) pairs first, so the
    /// frontier widens breadth-first and subtree sizes stay comparable.
    fn level_sum(&self) -> u16 {
        self.na.level() as u16 + self.nb.level() as u16
    }
}

/// One bucket-pair job for [`parallel_improved_multi_join`].
#[derive(Clone, Copy)]
pub struct JoinJob<'t> {
    /// Left join input.
    pub tree_a: &'t TprTree,
    /// Right join input.
    pub tree_b: &'t TprTree,
    /// Processing-window start.
    pub t_s: Time,
    /// Processing-window end; must be finite unless the techniques are
    /// [`techniques::NONE`](crate::techniques::NONE).
    pub t_e: Time,
}

/// Parallel [`improved_join`]: identical output, counters, and logical
/// I/O, computed by `threads` workers. `threads <= 1` is exactly
/// `improved_join`.
///
/// ```
/// use std::sync::Arc;
/// use cij_geom::{MovingRect, Rect};
/// use cij_join::{improved_join, parallel_improved_join, techniques};
/// use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
/// use cij_tpr::{ObjectId, TprTree, TreeConfig};
///
/// let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
/// let mut ta = TprTree::new(pool.clone(), TreeConfig::default());
/// let mut tb = TprTree::new(pool, TreeConfig::default());
/// for i in 0..300u64 {
///     let x = (i as f64 * 7.0) % 500.0;
///     ta.insert(ObjectId(i), MovingRect::rigid(
///         Rect::new([x, 0.0], [x + 1.0, 1.0]), [0.5, 0.0], 0.0), 0.0)?;
///     tb.insert(ObjectId(1000 + i), MovingRect::rigid(
///         Rect::new([x + 3.0, 0.0], [x + 4.0, 1.0]), [-0.5, 0.0], 0.0), 0.0)?;
/// }
/// let (seq, seq_counters) = improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL)?;
/// let (par, par_counters) = parallel_improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL, 4)?;
/// assert_eq!(seq, par); // bit-identical, order included
/// assert_eq!(seq_counters, par_counters);
/// # Ok::<(), cij_tpr::TprError>(())
/// ```
pub fn parallel_improved_join(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_s: Time,
    t_e: Time,
    tech: Techniques,
    threads: usize,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    let job = JoinJob {
        tree_a,
        tree_b,
        t_s,
        t_e,
    };
    let mut results = parallel_improved_multi_join(&[job], tech, threads)?;
    Ok(results.pop().expect("one job, one result"))
}

/// Runs several [`improved_join`] jobs (e.g. MTB-Join's bucket pairs)
/// over one shared worklist of `threads` workers. Per job, the result is
/// bit-identical to `improved_join` on that job alone; the shared
/// worklist means a single large bucket pair still fans out across all
/// workers. `threads <= 1` runs the jobs sequentially in order.
pub fn parallel_improved_multi_join(
    jobs: &[JoinJob<'_>],
    tech: Techniques,
    threads: usize,
) -> TprResult<Vec<(Vec<JoinPair>, JoinCounters)>> {
    if threads <= 1 {
        return jobs
            .iter()
            .map(|j| improved_join(j.tree_a, j.tree_b, j.t_s, j.t_e, tech))
            .collect();
    }
    for j in jobs {
        assert_window(tech, j.t_e);
    }

    let mut results: Vec<(Vec<JoinPair>, JoinCounters)> = jobs
        .iter()
        .map(|_| (Vec::new(), JoinCounters::new()))
        .collect();

    // Seed: one root-pair task per non-empty job, in job order.
    let mut tasks: Vec<Task> = Vec::new();
    for (job, spec) in jobs.iter().enumerate() {
        let (Some(root_a), Some(root_b)) = (spec.tree_a.root_page(), spec.tree_b.root_page())
        else {
            continue;
        };
        let (mut na, mut nb) = (EntryLanes::new(), EntryLanes::new());
        spec.tree_a.read_node_lanes(root_a, &mut na)?;
        spec.tree_b.read_node_lanes(root_b, &mut nb)?;
        tasks.push(Task {
            job,
            na,
            nb,
            win: TimeInterval {
                start: spec.t_s,
                end: spec.t_e,
            },
        });
    }

    // The kernel on one task: to completion into `out`, or — with a spill
    // sink — that node pair alone, its child pairs captured.
    let traverse = |task: &Task,
                    scratch: &mut JoinScratch,
                    out: &mut Vec<JoinPair>,
                    counters: &mut JoinCounters,
                    spill: Option<&mut SpillSink>| {
        Traversal {
            tree_a: jobs[task.job].tree_a,
            tree_b: jobs[task.job].tree_b,
            tech,
            scratch,
            out,
            counters,
            spill,
        }
        .run(&task.na, &task.nb, task.win, 0)
    };

    // Widen: repeatedly expand the shallowest expandable task in place,
    // keeping depth-first order, until the frontier is wide enough for
    // the worker count (or nothing is left to expand). Counter increments
    // and node reads performed here are exactly the ones the sequential
    // traversal performs at that pair; they go to the job's total.
    let target = threads * TASKS_PER_THREAD;
    let mut scratch = JoinScratch::new();
    while tasks.len() < target {
        let mut pick: Option<(usize, u16)> = None;
        for (i, t) in tasks.iter().enumerate() {
            if t.expandable() && pick.is_none_or(|(_, best)| t.level_sum() > best) {
                pick = Some((i, t.level_sum()));
            }
        }
        let Some((i, _)) = pick else { break };
        let job = tasks[i].job;
        let (out, counters) = &mut results[job];
        let mut spill = SpillSink::new();
        traverse(&tasks[i], &mut scratch, out, counters, Some(&mut spill))?;
        debug_assert!(
            out.is_empty(),
            "only equal-level leaf pairs emit, and those never expand"
        );
        let sub = spill
            .into_iter()
            .map(|(na, nb, win)| Task { job, na, nb, win });
        tasks.splice(i..=i, sub);
    }

    // Execute: workers pull task indices from the shared cursor and run
    // the unmodified sequential kernel per task, one scratch pool each.
    let done = fan_out_with(tasks.len(), threads, JoinScratch::new, |scratch, i| {
        let (mut out, mut counters) = (Vec::new(), JoinCounters::new());
        traverse(&tasks[i], scratch, &mut out, &mut counters, None).map(|()| (out, counters))
    });

    // Merge in task order: concatenation reproduces the depth-first
    // emission order of the sequential traversal exactly. Errors, if any,
    // surface at the earliest failing task — deterministically.
    for (task, result) in tasks.iter().zip(done) {
        let (pairs, counters) = result?;
        let (out, total) = &mut results[task.job];
        out.extend(pairs);
        *total = total.merged(counters);
    }
    Ok(results)
}

/// Fans `count` independent tasks out over at most `threads` workers
/// sharing one atomic-cursor worklist (the join frontier above runs on
/// it too), and returns the results in task order — so callers observe
/// output identical to the sequential `(0..count).map(run).collect()`
/// no matter how the work interleaved.
///
/// The calling thread is one of the workers: only `threads - 1` helpers
/// are spawned, and a fan-out of cheap tasks is usually drained by the
/// caller before a helper has even started.
///
/// `threads <= 1` (or a single task) runs the exact sequential path.
/// This is the fan-out primitive the shard coordinator uses to drive
/// independent shard-pair engines.
pub fn fan_out_tasks<R, F>(count: usize, threads: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fan_out_with(count, threads, || (), |(), i| run(i))
}

/// [`fan_out_tasks`] with per-worker state: every worker builds one `S`
/// with `init` and hands it to each task it runs.
fn fan_out_with<S, R>(
    count: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R>
where
    R: Send,
{
    if threads <= 1 || count <= 1 {
        let mut state = init();
        return (0..count).map(|i| run(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            local.push((i, run(&mut state, i)));
        }
        local
    };
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(count)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("fan-out worker panicked"));
        }
        for (i, r) in done {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task index below the cursor is executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cij_geom::{MovingRect, Rect, INFINITE_TIME};
    use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
    use cij_tpr::{ObjectId, TreeConfig};

    use super::*;
    use crate::improved::techniques;
    use crate::naive::{naive_join, tc_join};

    /// Two trees of `n` objects each, streams moving toward each other.
    fn build_trees(n: u64) -> (TprTree, TprTree) {
        let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
        let mut ta = TprTree::new(pool.clone(), TreeConfig::default());
        let mut tb = TprTree::new(pool, TreeConfig::default());
        for i in 0..n {
            let x = (i as f64 * 13.0) % 700.0;
            let y = (i as f64 * 29.0) % 700.0;
            ta.insert(
                ObjectId(i),
                MovingRect::rigid(Rect::new([x, y], [x + 2.0, y + 2.0]), [1.0, -0.5], 0.0),
                0.0,
            )
            .expect("insert a");
            tb.insert(
                ObjectId(100_000 + i),
                MovingRect::rigid(
                    Rect::new([x + 4.0, y + 1.0], [x + 6.0, y + 3.0]),
                    [-1.0, 0.5],
                    0.0,
                ),
                0.0,
            )
            .expect("insert b");
        }
        (ta, tb)
    }

    #[test]
    fn parallel_improved_matches_sequential_for_all_techniques() {
        let (ta, tb) = build_trees(400);
        for tech in [
            techniques::NONE,
            techniques::IC,
            techniques::PS,
            techniques::DS_PS,
            techniques::IC_PS,
            techniques::ALL,
        ] {
            let (seq, seq_c) = improved_join(&ta, &tb, 0.0, 60.0, tech).expect("seq");
            assert!(!seq.is_empty(), "workload must produce pairs");
            for threads in [2, 3, 4, 8] {
                let (par, par_c) =
                    parallel_improved_join(&ta, &tb, 0.0, 60.0, tech, threads).expect("par");
                assert_eq!(seq, par, "pairs differ at threads={threads}");
                assert_eq!(seq_c, par_c, "counters differ at threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_naive_and_tc_match_sequential() {
        let (ta, tb) = build_trees(300);
        let (seq_n, seq_nc) = naive_join(&ta, &tb, 0.0).expect("seq naive");
        let (seq_t, seq_tc) = tc_join(&ta, &tb, 0.0, 60.0).expect("seq tc");
        for threads in [2, 3, 8] {
            let (par_n, par_nc) =
                parallel_improved_join(&ta, &tb, 0.0, INFINITE_TIME, techniques::NONE, threads)
                    .expect("par naive");
            assert_eq!(seq_n, par_n);
            assert_eq!(seq_nc, par_nc);
            let (par_t, par_tc) =
                parallel_improved_join(&ta, &tb, 0.0, 60.0, techniques::NONE, threads)
                    .expect("par tc");
            assert_eq!(seq_t, par_t);
            assert_eq!(seq_tc, par_tc);
        }
    }

    #[test]
    fn multi_join_matches_per_job_sequential() {
        let (ta, tb) = build_trees(250);
        let (tc, td) = build_trees(120);
        let jobs = [
            JoinJob {
                tree_a: &ta,
                tree_b: &tb,
                t_s: 0.0,
                t_e: 60.0,
            },
            JoinJob {
                tree_a: &tc,
                tree_b: &td,
                t_s: 10.0,
                t_e: 45.0,
            },
            JoinJob {
                tree_a: &ta,
                tree_b: &td,
                t_s: 0.0,
                t_e: 30.0,
            },
        ];
        let seq: Vec<_> = jobs
            .iter()
            .map(|j| improved_join(j.tree_a, j.tree_b, j.t_s, j.t_e, techniques::ALL).expect("seq"))
            .collect();
        for threads in [2, 4, 8] {
            let par = parallel_improved_multi_join(&jobs, techniques::ALL, threads).expect("par");
            assert_eq!(seq, par, "multi-join differs at threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_handled() {
        let pool = BufferPool::new(Arc::new(InMemoryStore::new()), BufferPoolConfig::default());
        let empty_a = TprTree::new(pool.clone(), TreeConfig::default());
        let empty_b = TprTree::new(pool.clone(), TreeConfig::default());
        let (pairs, counters) =
            parallel_improved_join(&empty_a, &empty_b, 0.0, 60.0, techniques::ALL, 4)
                .expect("empty");
        assert!(pairs.is_empty());
        assert_eq!(counters, JoinCounters::new());

        // One object per side: the frontier is a single root (leaf) pair.
        let mut ta = TprTree::new(pool.clone(), TreeConfig::default());
        let mut tb = TprTree::new(pool, TreeConfig::default());
        ta.insert(
            ObjectId(1),
            MovingRect::rigid(Rect::new([0.0, 0.0], [2.0, 2.0]), [1.0, 0.0], 0.0),
            0.0,
        )
        .expect("insert");
        tb.insert(
            ObjectId(2),
            MovingRect::stationary(Rect::new([30.0, 0.0], [32.0, 2.0]), 0.0),
            0.0,
        )
        .expect("insert");
        let (seq, seq_c) = improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL).expect("seq");
        let (par, par_c) =
            parallel_improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL, 8).expect("par");
        assert_eq!(seq, par);
        assert_eq!(seq_c, par_c);
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn threads_one_delegates_to_sequential() {
        let (ta, tb) = build_trees(150);
        let (seq, seq_c) = improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL).expect("seq");
        let (one, one_c) =
            parallel_improved_join(&ta, &tb, 0.0, 60.0, techniques::ALL, 1).expect("one");
        assert_eq!(seq, one);
        assert_eq!(seq_c, one_c);
    }

    #[test]
    fn fan_out_preserves_task_order() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(fan_out_tasks(97, threads, |i| i * i), expected);
        }
        assert_eq!(fan_out_tasks(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out_tasks(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn fan_out_runs_on_the_calling_thread_too() {
        // Three tasks that can only finish together need three workers:
        // with `threads = 3` that is the caller plus two helpers.
        let together = std::sync::Barrier::new(3);
        let ran_on = fan_out_tasks(3, 3, |_| {
            together.wait();
            std::thread::current().id()
        });
        assert!(ran_on.contains(&std::thread::current().id()));
    }
}
