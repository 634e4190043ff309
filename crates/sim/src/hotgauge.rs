//! Hot-path allocation gauge (feature `bench-alloc`).
//!
//! The performance contract (DESIGN.md §7) promises zero allocations per
//! steady-state round inside the disk-service phase. This module lets a
//! bench binary *measure* that promise instead of trusting it: the bin
//! installs a counting global allocator that calls [`note_alloc`] on
//! every allocation, and the engine brackets phase one of
//! `execute_disks` with [`enter_serve`]/[`exit_serve`]. Allocations
//! landing inside the bracket are attributed to the serve path.
//!
//! Rounds spawn no threads: the engine's pool helpers are spawned once,
//! when the simulator is built, and the chunk hand-off reuses its
//! buffers. Attribution is still only meaningful at `threads = 1`: the
//! flag is global, so with helpers the bracket also captures any
//! unrelated allocation another thread makes inside the window.
//! `perf_baseline` therefore runs its allocation check single-threaded.

// lint: allow-file(D005) measurement-only gauge: the counters are written
// inside the bracket but only read after every chunk of the round is
// back, so no simulation state ever depends on their interleaving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static IN_SERVE: AtomicBool = AtomicBool::new(false);
static SERVE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SERVE_ROUNDS: AtomicU64 = AtomicU64::new(0);

/// Called by a counting global allocator on every allocation. Counts the
/// allocation only while the engine is inside the disk-service phase.
pub fn note_alloc() {
    if IN_SERVE.load(Ordering::Relaxed) {
        SERVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Engine hook: the disk-service phase begins.
pub(crate) fn enter_serve() {
    IN_SERVE.store(true, Ordering::Relaxed);
}

/// Engine hook: the disk-service phase ended (one more serve phase done).
pub(crate) fn exit_serve() {
    IN_SERVE.store(false, Ordering::Relaxed);
    SERVE_ROUNDS.fetch_add(1, Ordering::Relaxed);
}

/// Measurement-chain self-test: runs `f` inside a synthetic serve-phase
/// bracket. A bench binary that installs a counting allocator calls this
/// with a closure that deliberately allocates and asserts the allocation
/// was counted — proving allocator → [`note_alloc`] → bracket
/// attribution end-to-end. Needed because the real scenarios are
/// allocation-free: a dead gauge and a clean hot path report the same
/// zero.
pub fn probe_serve<R>(f: impl FnOnce() -> R) -> R {
    enter_serve();
    let r = f();
    exit_serve();
    r
}

/// Zeroes both counters (call after warm-up rounds).
pub fn reset() {
    SERVE_ALLOCS.store(0, Ordering::Relaxed);
    SERVE_ROUNDS.store(0, Ordering::Relaxed);
}

/// `(allocations inside serve phases, serve phases observed)` since the
/// last [`reset`].
#[must_use]
pub fn snapshot() -> (u64, u64) {
    (
        SERVE_ALLOCS.load(Ordering::Relaxed),
        SERVE_ROUNDS.load(Ordering::Relaxed),
    )
}
