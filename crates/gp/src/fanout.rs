//! The workspace's one scoped fan-out: hyper-parameter searches, predict
//! sweeps and the tuner's oracle waves all run through [`fan_out`] (the
//! oracle watchdog's detached per-attempt threads are the only other spawn).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `task(0)`, …, `task(n_tasks − 1)` on at most `workers` threads,
/// the calling thread among them, and returns the results in task order.
///
/// Workers claim task indices from an atomic cursor and write each result
/// into that task's own slot; the merge is by position. Every task runs
/// exactly once, on whichever worker claimed it, so when `task` is a pure
/// function of its index the output is bitwise the serial
/// `(0..n_tasks).map(task)` — independent of the worker count and of how
/// claims interleave.
///
/// `workers` counts the caller: the call spawns `min(workers, n_tasks) − 1`
/// scoped threads and claims tasks on the calling thread too, so at
/// `workers ≤ 1` (or one task) all tasks run serially there. A panicking
/// task, on whichever thread, propagates once the others drain the queue.
///
/// # Example
///
/// ```
/// let squares = gp::fan_out(5, 3, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn fan_out<T, F>(n_tasks: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n_tasks);
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let claims = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed));
        for i in claims.take_while(|&i| i < n_tasks) {
            *slots[i].lock().expect("fan-out slot poisoned") = Some(task(i));
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("fan-out slot poisoned")
                .expect("every fan-out task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_serial_map_in_order() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 >> 3);
        for n in [0usize, 1, 7, 64] {
            let serial: Vec<u64> = (0..n).map(f).collect();
            for workers in [0usize, 1, 2, 3, 8, 128] {
                assert_eq!(fan_out(n, workers, f), serial, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn never_spawns_more_threads_than_tasks() {
        // Each task records the thread it ran on; three tasks can occupy
        // at most three distinct threads however many workers are asked for.
        let ids = fan_out(3, 128, |_| std::thread::current().id());
        let mut distinct = ids.clone();
        distinct.sort_by_key(|id| format!("{id:?}"));
        distinct.dedup();
        assert!(distinct.len() <= 3, "{ids:?}");
        // One task (or one worker) stays on the caller's thread.
        let me = std::thread::current().id();
        assert_eq!(fan_out(1, 8, |_| std::thread::current().id()), vec![me]);
        assert_eq!(fan_out(5, 1, |_| std::thread::current().id()), vec![me; 5]);
    }

    #[test]
    fn a_panicking_task_propagates() {
        for workers in [1usize, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(16, workers, |i| {
                    assert!(i != 11, "task 11 fails");
                    i
                })
            });
            assert!(caught.is_err(), "workers={workers}: panic was swallowed");
        }
    }

    #[test]
    fn the_caller_counts_toward_the_thread_budget() {
        let me = std::thread::current().id();
        for workers in [2usize, 3, 8] {
            let mut ids = fan_out(64, workers, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            });
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            assert!(ids.len() <= workers, "workers={workers}: {ids:?}");
            let spawned = ids.iter().filter(|&&id| id != me).count();
            assert!(spawned < workers, "workers={workers}: {spawned} spawned");
        }
    }

    #[test]
    fn a_task_panicking_on_the_callers_thread_propagates() {
        let me = std::thread::current().id();
        for workers in [2usize, 3, 8] {
            // No task passes the barrier until every worker holds one, so
            // each worker runs exactly one task: the caller runs one too.
            let all_claimed = std::sync::Barrier::new(workers);
            let caught = std::panic::catch_unwind(|| {
                fan_out(workers, workers, |i| {
                    all_claimed.wait();
                    assert!(std::thread::current().id() != me, "the caller's task fails");
                    i
                })
            });
            assert!(caught.is_err(), "workers={workers}: panic was swallowed");
        }
    }
}
