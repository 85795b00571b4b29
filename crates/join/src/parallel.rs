//! Deterministic fan-out of independent tasks over scoped threads — the
//! primitive the shard crate's partitioned pair probes its partitions on,
//! and the distributed coordinator drives its workers on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Fans `count` independent tasks out over at most `threads` workers
/// sharing one atomic-cursor worklist, and returns the results in task
/// order — so callers observe output identical to the sequential
/// `(0..count).map(run).collect()` no matter how the work interleaved.
///
/// The calling thread is one of the workers: only `threads - 1` helpers
/// are spawned, and a fan-out of cheap tasks is usually drained by the
/// caller before a helper has even started.
///
/// `threads <= 1` (or a single task) runs the exact sequential path.
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
    use super::*;

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
