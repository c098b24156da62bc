//! Vendored stand-in for the subset of `crossbeam` this workspace uses:
//! the shared FIFO work queue ([`deque::Injector`]) and an unbounded MPSC
//! [`channel`], instrumented with a pluggable schedule hook ([`sched`]) for
//! systematic interleaving exploration (a no-op unless a test explorer
//! installs a controller).
//!
//! The offline build environment cannot fetch the real `crossbeam`, so this
//! crate provides the same API surface backed by `std::sync` primitives
//! (`Mutex`, `Condvar`, `Arc`) instead of lock-free algorithms.  Semantics
//! match crossbeam where it matters for this workspace: every pushed item is
//! taken exactly once, FIFO order holds per queue, the queue may be shared
//! across threads, and a channel receiver observes messages in
//! send order per sender and unblocks when every sender is gone.  What this
//! implementation does *not* reproduce is crossbeam's performance profile —
//! operations take a lock, which is fine for the coarse batch-job granularity
//! `sem-serve` schedules (one queue operation per multi-millisecond solve).
//!
//! When a crates.io mirror is available, point `[workspace.dependencies]`
//! at the real `crossbeam` / `crossbeam-deque` / `crossbeam-channel` and
//! delete this crate.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod channel;
pub mod deque;
pub mod sched;
