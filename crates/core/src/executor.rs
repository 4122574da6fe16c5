//! The one in-process parallel executor.
//!
//! Equivalence classes are independent (§4.1), so every parallel step in
//! the workspace has the same shape: "here are `n` independent weighted
//! tasks, run them and give me the results back in task order". That
//! covers blocked phase-1 counting, the blocked phase-2 scan, per-class
//! mining of itemsets and sequences, the streaming re-mine and a
//! distributed worker's owned classes. [`Threads::map`] is that
//! operation:
//!
//! * `P = 1` ([`Serial`]) runs the tasks inline, in task order;
//! * `P > 1` runs the caller plus `P - 1` scoped OS threads, all pulling
//!   task indices from one atomic cursor over the tasks sorted by
//!   descending weight — the §5.2.1 greedy order, applied dynamically:
//!   whichever thread frees up first takes the heaviest task still
//!   waiting. The caller works as thread 0 rather than idling, so its
//!   allocator arena, already warm from the serial phases, serves one
//!   of the concurrent tasks;
//! * results come back **in task order** whatever the schedule, so
//!   parallel runs are byte-identical to serial ones, and a panic in any
//!   task reaches the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A pool size: `P` OS threads for every [`Threads::map`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Threads {
    threads: usize,
}

/// One thread, tasks inline in task order — the paper's algorithm on a
/// single processor.
#[allow(non_upper_case_globals)]
pub const Serial: Threads = Threads { threads: 1 };

impl Threads {
    /// A pool of `threads` threads; `0` means one per core, resolved
    /// here once.
    pub fn new(threads: usize) -> Threads {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Threads { threads }
    }

    /// The thread count `P` (always ≥ 1).
    pub fn get(&self) -> usize {
        self.threads
    }

    /// Apply `f(thread, task_index, task)` to every task and return the
    /// results in task order. `weights[i]` is the load estimate of
    /// `tasks[i]`: heavier tasks start first, ties in task order.
    /// `thread` is always `< P`, so callers can keep per-thread state in
    /// a slice indexed by it.
    ///
    /// # Panics
    /// Panics if `weights` and `tasks` differ in length, and re-raises a
    /// task's panic once every thread has stopped.
    pub fn map<T, R, F>(&self, tasks: Vec<T>, weights: &[u64], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, usize, T) -> R + Sync,
    {
        assert_eq!(
            tasks.len(),
            weights.len(),
            "one weight per task (got {} tasks, {} weights)",
            tasks.len(),
            weights.len()
        );
        let n = tasks.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(0, i, t))
                .collect();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        // Relaxed is enough: the cursor only hands out indices; tasks move
        // through their mutexes and results through `join`.
        let cursor = AtomicUsize::new(0);
        let pull = |thread: usize| {
            let mut done = Vec::new();
            while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let task = slots[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("each task is pulled exactly once");
                done.push((i, f(thread, i, task)));
            }
            done
        };
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            // The caller is thread 0; P - 1 helpers pull alongside it.
            let pull = &pull;
            let helpers: Vec<_> = (1..workers)
                .map(|thread| scope.spawn(move || pull(thread)))
                .collect();
            let mut place = |done: Vec<(usize, R)>| {
                done.into_iter().for_each(|(i, r)| results[i] = Some(r));
            };
            place(pull(0));
            for h in helpers {
                match h.join() {
                    Ok(done) => place(done),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every task ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Task `i` weighs `i³ mod 97` — heavy and light tasks interleaved.
    fn skewed(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * i * i % 97).collect()
    }

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = tasks.iter().map(|t| t * t).collect();
        for p in [1, 2, 3, 8] {
            let out = Threads::new(p).map(tasks.clone(), &skewed(37), |_, i, t| {
                assert_eq!(i as u64, t, "task index lines up with the task");
                t * t
            });
            assert_eq!(out, expect, "P={p}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for p in [1, 2, 3, 8] {
            let runs: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            Threads::new(p).map((0..100).collect(), &skewed(100), |_, i, _: usize| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "P={p}");
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        for p in [1, 2, 3, 8] {
            let none: Vec<u64> = Threads::new(p).map(Vec::new(), &[], |_, _, t: u64| t);
            assert!(none.is_empty(), "P={p}");
        }
    }

    #[test]
    fn thread_index_is_below_p() {
        for p in [1, 2, 3, 8] {
            let threads = Threads::new(p).map((0..50).collect(), &skewed(50), |t, _, _: u64| t);
            assert!(threads.iter().all(|&t| t < p), "P={p}: {threads:?}");
        }
    }

    #[test]
    fn serial_runs_inline_in_task_order() {
        let seen = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        Serial.map((0..10).collect(), &skewed(10), |t, i, _: u64| {
            assert_eq!(t, 0);
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(seen.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_panics_the_caller() {
        for p in [1, 2, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                Threads::new(p).map((0..40).collect(), &skewed(40), |_, i, _: u64| {
                    if i == 17 {
                        panic!("task {i} fails");
                    }
                    i
                })
            });
            let panic = caught.expect_err("the caller must see the panic");
            let msg = panic.downcast_ref::<String>().map_or("", |s| s.as_str());
            assert!(msg.contains("task 17 fails"), "P={p}: {msg:?}");
        }
    }

    #[test]
    fn zero_means_one_thread_per_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Threads::new(0).get(), cores);
        assert_eq!(Threads::new(3).get(), 3);
        assert_eq!(Serial.get(), 1);
    }
}
