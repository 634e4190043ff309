//! The campaign sweeps' job runner and their JSONL writer.
//!
//! Both campaigns run independent simulations over a fixed task list and
//! emit one JSONL row per task. [`run_jobs`] runs the tasks on a few
//! work-stealing threads and returns the results in task order, so the
//! output is byte-identical at any `--jobs` setting; [`to_jsonl`] writes
//! the rows in the campaigns' on-disk and golden format.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Serialize;

/// Runs `run` on every task, `jobs` tasks in flight at once (0 = one
/// worker per task), each worker claiming the next unstarted task.
/// Returns the results in task order, whatever the interleaving. A
/// panicking task re-raises its panic here once every worker has
/// stopped.
pub(crate) fn run_jobs<T: Sync, R: Send>(
    tasks: &[T],
    jobs: usize,
    run: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = if jobs == 0 { tasks.len() } else { jobs }.clamp(1, tasks.len().max(1));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { return done };
                        done.push((i, run(task)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, row)| row).collect()
}

/// Serializes rows as JSONL (one compact JSON object per line).
///
/// # Panics
///
/// Panics if serialization fails (plain data; it cannot).
#[must_use]
pub fn to_jsonl<R: Serialize>(rows: &[R]) -> String {
    let mut out = String::new();
    for row in rows {
        // lint: allow(P001) plain-data serialization cannot fail
        out.push_str(&serde_json::to_string(row).expect("serializable"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order_at_any_job_count() {
        let tasks: Vec<u64> = (0..23).collect();
        // Uneven task costs, so workers finish out of order.
        let work = |&n: &u64| (0..(n % 5) * 20_000).fold(n, |acc, k| acc.wrapping_mul(31) ^ k);
        let reference: Vec<u64> = tasks.iter().map(work).collect();
        for jobs in [0, 1, 2, 3, 8, 64] {
            assert_eq!(run_jobs(&tasks, jobs, work), reference, "jobs {jobs}");
        }
        assert!(run_jobs(&[] as &[u64], 4, work).is_empty());
    }

    #[test]
    fn a_panicking_task_re_raises() {
        let result = std::panic::catch_unwind(|| {
            run_jobs(&[1u32, 2, 3], 2, |&n| assert_ne!(n, 2, "task two fails"))
        });
        assert!(result.is_err());
    }
}
