//! Parallel execution of the synchronous-traversal joins.
//!
//! The sequential kernels in [`crate::naive`] and [`crate::improved`] are
//! depth-first traversals over node *pairs*. This module splits such a
//! traversal at a top frontier of node pairs and fans the frontier out
//! over `std::thread::scope` workers, then merges the per-task outputs in
//! frontier order. Because
//!
//! 1. the frontier is built by running the sequential kernel itself with a
//!    recursion budget of zero (each would-be recursive call is captured as
//!    a task instead of executed, nodes already read and window already
//!    tightened), and
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
//! `threads <= 1` falls back to the plain sequential entry points.

use std::sync::atomic::{AtomicUsize, Ordering};

use cij_geom::{Time, INFINITE_TIME};
use cij_tpr::{Node, TprResult, TprTree};

use crate::counters::JoinCounters;
use crate::improved::{improved_join, Techniques};
use crate::naive::{naive_join, tc_join};
use crate::pair::JoinPair;
use crate::scratch::JoinScratch;

/// A deferred recursive call captured by a kernel running with budget 0:
/// `(node_a, node_b, window_start, window_end)`. The kernel moves the
/// nodes it just read into the task; only a height-alignment step, which
/// pairs one fresh child with the node it was handed, clones that node.
pub(crate) type SpillSink = Vec<(Node, Node, Time, Time)>;

/// Recursion budget that is never exhausted: tree heights are bounded by
/// `u8::MAX`, so sequential entry points can pass this and never spill.
pub(crate) const NO_SPILL_BUDGET: usize = usize::MAX;

/// Frontier tasks per worker thread: enough over-subscription that the
/// atomic-cursor work stealing evens out skewed subtree sizes.
const TASKS_PER_THREAD: usize = 8;

/// Which sequential kernel a job runs.
#[derive(Clone, Copy)]
enum Kernel {
    Naive,
    Improved(Techniques),
}

/// One tree pair plus processing window, resolved against a kernel.
struct JobSpec<'t> {
    tree_a: &'t TprTree,
    tree_b: &'t TprTree,
    t_s: Time,
    t_e: Time,
    kernel: Kernel,
}

/// A unit of deferred traversal work: a node pair (already read from the
/// pool), the window to process it under, and the job it belongs to.
struct Task {
    job: usize,
    na: Node,
    nb: Node,
    ws: Time,
    we: Time,
}

impl Task {
    /// A task can be expanded into sub-tasks unless it is an equal-level
    /// leaf pair — the only shape whose processing emits pairs directly.
    fn expandable(&self) -> bool {
        !(self.na.level == self.nb.level && self.na.is_leaf())
    }

    /// Expansion priority: shallower (higher-level) pairs first, so the
    /// frontier widens breadth-first and subtree sizes stay comparable.
    fn level_sum(&self) -> u16 {
        self.na.level as u16 + self.nb.level as u16
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
    /// Processing-window end; must be finite (ImprovedJoin semantics).
    pub t_e: Time,
}

/// Parallel [`naive_join`]: identical output, counters, and logical I/O,
/// computed by `threads` workers. `threads <= 1` is exactly `naive_join`.
pub fn parallel_naive_join(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_c: Time,
    threads: usize,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    if threads <= 1 {
        return naive_join(tree_a, tree_b, t_c);
    }
    let jobs = [JobSpec {
        tree_a,
        tree_b,
        t_s: t_c,
        t_e: INFINITE_TIME,
        kernel: Kernel::Naive,
    }];
    run_jobs(&jobs, threads).map(into_single)
}

/// Parallel [`tc_join`]: identical output, counters, and logical I/O,
/// computed by `threads` workers. `threads <= 1` is exactly `tc_join`.
pub fn parallel_tc_join(
    tree_a: &TprTree,
    tree_b: &TprTree,
    t_s: Time,
    t_e: Time,
    threads: usize,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    if threads <= 1 {
        return tc_join(tree_a, tree_b, t_s, t_e);
    }
    let jobs = [JobSpec {
        tree_a,
        tree_b,
        t_s,
        t_e,
        kernel: Kernel::Naive,
    }];
    run_jobs(&jobs, threads).map(into_single)
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
    if threads <= 1 {
        return improved_join(tree_a, tree_b, t_s, t_e, tech);
    }
    assert!(
        t_e.is_finite(),
        "ImprovedJoin requires a time-constrained window"
    );
    let jobs = [JobSpec {
        tree_a,
        tree_b,
        t_s,
        t_e,
        kernel: Kernel::Improved(tech),
    }];
    run_jobs(&jobs, threads).map(into_single)
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
        assert!(
            j.t_e.is_finite(),
            "ImprovedJoin requires a time-constrained window"
        );
    }
    let specs: Vec<JobSpec<'_>> = jobs
        .iter()
        .map(|j| JobSpec {
            tree_a: j.tree_a,
            tree_b: j.tree_b,
            t_s: j.t_s,
            t_e: j.t_e,
            kernel: Kernel::Improved(tech),
        })
        .collect();
    run_jobs(&specs, threads)
}

fn into_single(mut results: Vec<(Vec<JoinPair>, JoinCounters)>) -> (Vec<JoinPair>, JoinCounters) {
    results.pop().expect("single-job run returns one result")
}

/// Runs one kernel invocation for `task`, sequentially, to completion.
/// `scratch` is the calling worker's buffer pool, reused across tasks.
fn run_task(
    jobs: &[JobSpec<'_>],
    task: &Task,
    scratch: &mut JoinScratch,
) -> TprResult<(Vec<JoinPair>, JoinCounters)> {
    let job = &jobs[task.job];
    let mut out = Vec::new();
    let mut counters = JoinCounters::new();
    let mut spill = Vec::new();
    match job.kernel {
        Kernel::Naive => crate::naive::join_nodes(
            job.tree_a,
            &task.na,
            job.tree_b,
            &task.nb,
            task.ws,
            task.we,
            &mut out,
            &mut counters,
            NO_SPILL_BUDGET,
            &mut spill,
        )?,
        Kernel::Improved(tech) => crate::improved::join_nodes(
            job.tree_a,
            &task.na,
            job.tree_b,
            &task.nb,
            task.ws,
            task.we,
            tech,
            &mut out,
            &mut counters,
            NO_SPILL_BUDGET,
            &mut spill,
            0,
            scratch,
        )?,
    }
    debug_assert!(spill.is_empty(), "unbounded budget must never spill");
    Ok((out, counters))
}

/// Expands `task` one level: the kernel processes the node pair with a
/// recursion budget of zero, so every qualifying child pair lands in the
/// returned sub-task list instead of being traversed. Counter increments
/// and node reads performed here are exactly the ones the sequential
/// traversal performs at this pair.
fn expand_task(
    jobs: &[JobSpec<'_>],
    task: &Task,
    counters: &mut JoinCounters,
    scratch: &mut JoinScratch,
) -> TprResult<Vec<Task>> {
    let job = &jobs[task.job];
    let mut out = Vec::new();
    let mut spill = Vec::new();
    match job.kernel {
        Kernel::Naive => crate::naive::join_nodes(
            job.tree_a, &task.na, job.tree_b, &task.nb, task.ws, task.we, &mut out, counters, 0,
            &mut spill,
        )?,
        Kernel::Improved(tech) => crate::improved::join_nodes(
            job.tree_a, &task.na, job.tree_b, &task.nb, task.ws, task.we, tech, &mut out, counters,
            0, &mut spill, 0, scratch,
        )?,
    }
    debug_assert!(
        out.is_empty(),
        "only equal-level leaf pairs emit, and those never expand"
    );
    Ok(spill
        .into_iter()
        .map(|(na, nb, ws, we)| Task {
            job: task.job,
            na,
            nb,
            ws,
            we,
        })
        .collect())
}

/// The parallel driver: seed root tasks, widen the frontier, execute it
/// with scoped workers, and merge in task order.
fn run_jobs(jobs: &[JobSpec<'_>], threads: usize) -> TprResult<Vec<(Vec<JoinPair>, JoinCounters)>> {
    let mut results: Vec<(Vec<JoinPair>, JoinCounters)> = jobs
        .iter()
        .map(|_| (Vec::new(), JoinCounters::new()))
        .collect();
    // Per-job counters accumulated while building the frontier (that work
    // runs on this thread and is part of the sequential traversal).
    let mut base: Vec<JoinCounters> = vec![JoinCounters::new(); jobs.len()];

    // Seed: one root-pair task per non-empty job, in job order.
    let mut tasks: Vec<Task> = Vec::new();
    for (job, spec) in jobs.iter().enumerate() {
        let (Some(root_a), Some(root_b)) = (spec.tree_a.root_page(), spec.tree_b.root_page())
        else {
            continue;
        };
        let na = spec.tree_a.read_node(root_a)?;
        let nb = spec.tree_b.read_node(root_b)?;
        tasks.push(Task {
            job,
            na,
            nb,
            ws: spec.t_s,
            we: spec.t_e,
        });
    }

    // Widen: repeatedly expand the shallowest expandable task in place,
    // keeping depth-first order, until the frontier is wide enough for
    // the worker count (or nothing is left to expand).
    let target = threads * TASKS_PER_THREAD;
    let mut expand_scratch = JoinScratch::new();
    while tasks.len() < target {
        let mut pick: Option<(usize, u16)> = None;
        for (i, t) in tasks.iter().enumerate() {
            if t.expandable() && pick.is_none_or(|(_, best)| t.level_sum() > best) {
                pick = Some((i, t.level_sum()));
            }
        }
        let Some((i, _)) = pick else { break };
        let sub = expand_task(
            jobs,
            &tasks[i],
            &mut base[tasks[i].job],
            &mut expand_scratch,
        )?;
        tasks.splice(i..=i, sub);
    }

    // Execute: workers pull task indices from a shared cursor and run the
    // unmodified sequential kernel per task.
    type Slot = Option<TprResult<(Vec<JoinPair>, JoinCounters)>>;
    let worker_count = threads.min(tasks.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Slot> = (0..tasks.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..worker_count)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    // One scratch pool per worker, reused across tasks.
                    let mut scratch = JoinScratch::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        local.push((i, run_task(jobs, task, &mut scratch)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            let local = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, r) in local {
                slots[i] = Some(r);
            }
        }
    });

    // Merge in task order: concatenation reproduces the depth-first
    // emission order of the sequential traversal exactly. Errors, if any,
    // surface at the earliest failing task — deterministically.
    for (task, slot) in tasks.iter().zip(slots) {
        let (pairs, counters) = slot.expect("every task index below the cursor is executed")?;
        let (out, total) = &mut results[task.job];
        out.extend(pairs);
        *total = total.merged(counters);
    }
    for (base, (_, total)) in base.into_iter().zip(results.iter_mut()) {
        *total = total.merged(base);
    }
    Ok(results)
}

/// Fans `count` independent tasks out over at most `threads` workers
/// sharing one atomic-cursor worklist (the same work-stealing discipline
/// as the join frontier above), and returns the results in task order —
/// so callers observe output identical to the sequential
/// `(0..count).map(run).collect()` no matter how the work interleaved.
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
    if threads <= 1 || count <= 1 {
        return (0..count).map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            local.push((i, run(i)));
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

    use cij_geom::{MovingRect, Rect};
    use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
    use cij_tpr::{ObjectId, TreeConfig};

    use super::*;
    use crate::improved::techniques;

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
        for threads in [2, 4, 8] {
            let (par_n, par_nc) = parallel_naive_join(&ta, &tb, 0.0, threads).expect("par naive");
            assert_eq!(seq_n, par_n);
            assert_eq!(seq_nc, par_nc);
            let (par_t, par_tc) = parallel_tc_join(&ta, &tb, 0.0, 60.0, threads).expect("par tc");
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
