//! A persistent worker pool for the per-round fan-outs: disk service in
//! the engine and node stepping in the cluster tier.
//!
//! The pool's helper threads are spawned once, when the pool is built,
//! and joined when it is dropped. A round ([`WorkerPool::run`]) splits
//! its items into index-ordered chunks: the calling thread works the
//! first chunk in place, and each helper receives an *owned* chunk
//! through a bounded channel, works it and sends it back. The chunks are
//! then re-joined in index order, so the caller's sequential merge sees
//! every item exactly where it left it. Between rounds the helpers own
//! nothing.
//!
//! A waiting thread polls its channel with `yield_now` a bounded number
//! of times and then blocks, so a short gap between rounds costs no
//! wake-up while a long one costs no CPU. The wait reads no clock.

// lint: allow-file(D005) each chunk is owned by exactly one thread at a
// time, moved through a channel and re-joined in index order before the
// caller's fixed-order merge, so no result depends on thread interleaving.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;

/// `try_recv` polls (each followed by `yield_now`) before a waiting
/// thread blocks.
const SPINS: u32 = 1024;

/// Items the pool can split at an index and re-join in order, moving
/// values rather than copying their contents.
pub trait Batch: Default + Send + 'static {
    /// Number of items.
    fn len(&self) -> usize;
    /// Is the batch empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Moves items `at..` onto the end of `tail`.
    fn split_off_into(&mut self, at: usize, tail: &mut Self);
    /// Moves every item of `tail` onto the end of `self`, leaving `tail`
    /// empty with its capacity.
    fn append_from(&mut self, tail: &mut Self);
}

impl<T: Send + 'static> Batch for Vec<T> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn split_off_into(&mut self, at: usize, tail: &mut Self) {
        tail.extend(self.drain(at..));
    }

    fn append_from(&mut self, tail: &mut Self) {
        self.append(tail);
    }
}

/// A worked chunk on its way back, with the panic its work raised.
type Done<B> = (B, Option<Box<dyn Any + Send>>);

/// One helper thread and its two channels.
struct Helper<B, C> {
    jobs: SyncSender<(C, B)>,
    done: Receiver<Done<B>>,
    /// The chunk buffer, held here between rounds and `None` while the
    /// helper works it. It keeps its capacity, so steady-state rounds
    /// allocate nothing for the hand-off.
    chunk: Option<B>,
    thread: JoinHandle<()>,
}

/// A pool of `workers − 1` persistent helper threads plus the calling
/// thread, all running the same `work` function on disjoint chunks of a
/// [`Batch`]. `C` is the per-round context every chunk's work receives.
pub struct WorkerPool<B: Batch, C: Copy + Send + 'static> {
    work: fn(&C, &mut B),
    helpers: Vec<Helper<B, C>>,
}

/// Resolves a thread setting to a worker count: `0` means the machine's
/// available parallelism, and the count is clamped to `1..=units` (a
/// worker with nothing to work is never spawned).
fn resolve_workers(threads: usize, units: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
    .clamp(1, units.max(1))
}

impl<B: Batch, C: Copy + Send + 'static> WorkerPool<B, C> {
    /// Builds a pool of `threads` workers (`0` = the machine's available
    /// parallelism), clamped to `1..=units`: the calling thread plus
    /// helpers spawned now. A helper the OS refuses to spawn is simply
    /// not added; results do not depend on the worker count.
    #[must_use]
    pub fn new(threads: usize, units: usize, work: fn(&C, &mut B)) -> Self {
        let mut helpers = Vec::new();
        for _ in 1..resolve_workers(threads, units) {
            let (jobs, inbox) = sync_channel::<(C, B)>(1);
            let (outbox, done) = sync_channel::<Done<B>>(1);
            let spawned = std::thread::Builder::new().spawn(move || {
                while let Some((ctx, mut chunk)) = wait(&inbox) {
                    let panic = catch_unwind(AssertUnwindSafe(|| work(&ctx, &mut chunk))).err();
                    if outbox.send((chunk, panic)).is_err() {
                        return;
                    }
                }
            });
            let Ok(thread) = spawned else { break };
            helpers.push(Helper {
                jobs,
                done,
                chunk: Some(B::default()),
                thread,
            });
        }
        WorkerPool { work, helpers }
    }

    /// Runs `work(&ctx, chunk)` over every item of `items` exactly once,
    /// in one contiguous chunk of `ceil(len / workers)` items per worker,
    /// and leaves `items` in its original order. With no helpers this is
    /// one inline call.
    ///
    /// A panic inside any chunk's work re-raises here, after every
    /// chunk is back in `items`; the caller's own chunk wins, then the
    /// lowest helper's.
    pub fn run(&mut self, ctx: C, items: &mut B) {
        let n = items.len();
        if self.helpers.is_empty() || n == 0 {
            (self.work)(&ctx, items);
            return;
        }
        let chunk = n.div_ceil(self.helpers.len() + 1);
        // Highest chunk first, so each split only takes the current tail.
        for (h, helper) in self.helpers.iter_mut().enumerate().rev() {
            let start = chunk * (h + 1);
            if start >= n {
                continue;
            }
            let Some(mut tail) = helper.chunk.take() else {
                helper_exited()
            };
            items.split_off_into(start, &mut tail);
            if helper.jobs.send((ctx, tail)).is_err() {
                helper_exited();
            }
        }
        let work = self.work;
        let mut panic = catch_unwind(AssertUnwindSafe(|| work(&ctx, items))).err();
        for helper in &mut self.helpers {
            if helper.chunk.is_some() {
                continue; // not dispatched this round
            }
            let Some((mut tail, raised)) = wait(&helper.done) else {
                helper_exited()
            };
            items.append_from(&mut tail);
            helper.chunk = Some(tail);
            panic = panic.or(raised);
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl<B: Batch, C: Copy + Send + 'static> Drop for WorkerPool<B, C> {
    /// Closes every job channel, then joins every helper.
    fn drop(&mut self) {
        let threads: Vec<JoinHandle<()>> = self.helpers.drain(..).map(|h| h.thread).collect();
        for thread in threads {
            // A helper catches its work's panics, so a join error is
            // impossible; `Drop` must not panic either way.
            let _ = thread.join();
        }
    }
}

/// A helper exits only when its channels close, which only `Drop` does;
/// if one is gone anyway its chunk is lost, so re-raise rather than hang.
fn helper_exited() -> ! {
    resume_unwind(Box::new("worker pool helper exited"))
}

/// Receives from `rx`, first polling with `yield_now` up to [`SPINS`]
/// times, then blocking. `None` once the sender is gone.
fn wait<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..SPINS {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(index, times worked)` items; the context is added per visit.
    fn bump(step: &u32, items: &mut Vec<(usize, u32)>) {
        for item in items {
            item.1 += step;
        }
    }

    fn pool(helpers: usize) -> WorkerPool<Vec<(usize, u32)>, u32> {
        let pool = WorkerPool::new(helpers + 1, 64, bump);
        assert_eq!(pool.helpers.len(), helpers);
        pool
    }

    fn counts(helpers: usize) -> [usize; 5] {
        [0, 1, helpers, helpers + 1, 3 * helpers + 2]
    }

    #[test]
    fn every_item_is_worked_once_in_order() {
        for helpers in [0, 1, 3, 7] {
            let mut pool = pool(helpers);
            for n in counts(helpers) {
                let mut items: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
                pool.run(1, &mut items);
                let want: Vec<(usize, u32)> = (0..n).map(|i| (i, 1)).collect();
                assert_eq!(items, want, "{helpers} helpers, {n} items");
                pool.run(2, &mut items);
                assert!(
                    items.iter().all(|&(_, c)| c == 3),
                    "{helpers} helpers, {n} items"
                );
            }
        }
    }

    #[test]
    fn steady_rounds_keep_buffer_capacities() {
        for helpers in [0, 1, 3, 7] {
            for n in counts(helpers) {
                let mut pool = pool(helpers);
                let mut items: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
                pool.run(1, &mut items);
                let capacities = |pool: &WorkerPool<Vec<(usize, u32)>, u32>| -> Vec<usize> {
                    pool.helpers
                        .iter()
                        .map(|h| h.chunk.as_ref().map_or(0, Vec::capacity))
                        .collect()
                };
                let (before, items_cap) = (capacities(&pool), items.capacity());
                for _ in 0..1000 {
                    pool.run(1, &mut items);
                }
                assert_eq!(capacities(&pool), before, "{helpers} helpers, {n} items");
                assert_eq!(items.capacity(), items_cap);
                assert!(items
                    .iter()
                    .enumerate()
                    .all(|(i, &(j, c))| i == j && c == 1001));
            }
        }
    }

    fn explode(_: &(), items: &mut Vec<u32>) {
        for item in items {
            assert!(*item != u32::MAX, "item {item} exploded");
            *item += 1;
        }
    }

    #[test]
    fn helper_panic_reraises_on_the_caller_and_drop_returns() {
        for helpers in [1, 3, 7] {
            let mut pool: WorkerPool<Vec<u32>, ()> = WorkerPool::new(helpers + 1, 64, explode);
            assert_eq!(pool.helpers.len(), helpers);
            let n = 3 * helpers + 2;
            // The last item always lands in the highest helper's chunk.
            let mut items: Vec<u32> = (0..n as u32 - 1).chain([u32::MAX]).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| pool.run((), &mut items)));
            let payload = caught.expect_err("the helper's panic must reach the caller");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains("exploded"), "{message}");
            assert_eq!(items.len(), n, "every chunk is back before the re-raise");
            drop(pool);
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism_clamped_to_units() {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(resolve_workers(0, 1024), auto.min(1024));
        assert_eq!(resolve_workers(0, 1), 1);
        assert_eq!(resolve_workers(8, 4), 4);
        assert_eq!(resolve_workers(3, 0), 1);
    }
}
