//! The workspace's one parallel primitive: hyper-parameter searches,
//! predict sweeps, and the tuner's oracle waves all run through
//! [`fan_out`], so threads are spawned in exactly one place.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `task(0)`, …, `task(n_tasks − 1)` on at most `workers` scoped
/// threads and returns the results in task order.
///
/// Workers claim task indices from an atomic cursor and write each result
/// into that task's own slot; the merge is by position. Every task runs
/// exactly once, on whichever worker claimed it, so when `task` is a pure
/// function of its index the output is bitwise the serial
/// `(0..n_tasks).map(task)` — independent of the worker count and of how
/// claims interleave.
///
/// Never spawns more threads than there are tasks; at `workers ≤ 1` (or
/// a single task) everything runs serially on the calling thread. A
/// panicking task propagates to the caller once the other workers have
/// drained the queue.
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
    if workers <= 1 {
        return (0..n_tasks).map(task).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                let out = task(i);
                *slots[i].lock().expect("fan-out slot poisoned") = Some(out);
            });
        }
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
}
