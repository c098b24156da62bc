//! A pluggable schedule hook for systematic concurrency testing.
//!
//! Every queue operation in [`crate::deque`] and [`crate::channel`] passes
//! through [`yield_point`] before it touches shared state.  In production no
//! scheduler is installed and the call is a single relaxed atomic load — the
//! hook exists so a loom-style explorer (see `sem_serve::explore`) can
//! serialize a pool of worker threads and drive them through chosen
//! interleavings: each *controlled* thread parks at every yield point until
//! the installed [`Scheduler`] grants it the next step.
//!
//! Threads opt in explicitly with [`controlled`]; uncontrolled threads (the
//! caller that seeds queues, unrelated tests in the same process) pass
//! through untouched, so installing a scheduler perturbs only the pool under
//! test.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The shared-state operation a controlled thread is about to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedOp {
    /// `Injector::push`.
    InjectorPush,
    /// `Injector::steal`.
    InjectorSteal,
    /// `channel::Sender::send`.
    ChannelSend,
    /// `channel::Receiver::recv` / `try_recv`.
    ChannelRecv,
}

impl SchedOp {
    /// Short stable mnemonic (used in schedule traces).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            SchedOp::InjectorPush => "ip",
            SchedOp::InjectorSteal => "is",
            SchedOp::ChannelSend => "cs",
            SchedOp::ChannelRecv => "cr",
        }
    }
}

/// A schedule controller for a pool of cooperating threads.
///
/// Implementations typically *block* inside [`Scheduler::thread_started`] and
/// [`Scheduler::yield_point`] until they decide it is the calling thread's
/// turn, which serializes the pool and makes the interleaving a pure function
/// of the controller's choices.
pub trait Scheduler: Send + Sync {
    /// A controlled thread came up and identifies as `index`.  Called once
    /// per thread, before any yield point from that thread.
    fn thread_started(&self, index: usize);

    /// A controlled thread is about to perform `op`.  Returning hands the
    /// thread one step: it runs until its next yield point (or until it
    /// finishes).
    fn yield_point(&self, index: usize, op: SchedOp);

    /// A controlled thread is done: it will reach no further yield points.
    fn thread_finished(&self, index: usize);

    /// Whether the steal operation `op` the controlled thread `index` is
    /// about to perform should observe simulated contention
    /// ([`crate::deque::Steal::Retry`]) instead of touching the queue.
    ///
    /// Called *after* [`Scheduler::yield_point`] grants the step, so the
    /// decision rides the granted step rather than adding one.  The
    /// default — no contention, ever — preserves the vendored queue's
    /// uncontended behaviour; explorers override it to drive the
    /// contended-take paths that a mutex-backed queue can otherwise
    /// never reach.
    fn steal_contended(&self, index: usize, op: SchedOp) -> bool {
        let _ = (index, op);
        false
    }
}

/// Fast-path flag: true only while a scheduler is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The installed scheduler.  Guarded by a mutex only on install/uninstall
/// and thread registration — yield points use the thread-local clone.
static INSTALLED: Mutex<Option<Arc<dyn Scheduler>>> = Mutex::new(None);

thread_local! {
    /// This thread's control registration: its pool index plus a clone of
    /// the scheduler it registered with (so yield points never take the
    /// global lock).
    static CONTROL: RefCell<Option<(usize, Arc<dyn Scheduler>)>> = const { RefCell::new(None) };
}

/// Install `scheduler` as the process-wide schedule controller.
///
/// # Panics
/// Panics if a scheduler is already installed — explorers must serialize
/// (and [`uninstall`]) their runs.
pub fn install(scheduler: Arc<dyn Scheduler>) {
    let mut slot = INSTALLED.lock().expect("scheduler slot poisoned");
    assert!(
        slot.is_none(),
        "a schedule controller is already installed; explorer runs must not overlap"
    );
    *slot = Some(scheduler);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Remove the installed scheduler (no-op when none is installed).
pub fn uninstall() {
    let mut slot = INSTALLED.lock().expect("scheduler slot poisoned");
    ACTIVE.store(false, Ordering::SeqCst);
    *slot = None;
}

/// Register the calling thread as controlled pool member `index` for the
/// lifetime of the returned guard.  Inert (and nearly free) when no
/// scheduler is installed.
#[must_use]
pub fn controlled(index: usize) -> ControlGuard {
    if !ACTIVE.load(Ordering::SeqCst) {
        return ControlGuard { registered: false };
    }
    let scheduler = INSTALLED
        .lock()
        .expect("scheduler slot poisoned")
        .as_ref()
        .map(Arc::clone);
    match scheduler {
        Some(scheduler) => {
            CONTROL.with(|cell| *cell.borrow_mut() = Some((index, Arc::clone(&scheduler))));
            scheduler.thread_started(index);
            ControlGuard { registered: true }
        }
        None => ControlGuard { registered: false },
    }
}

/// RAII registration of a controlled thread (see [`controlled`]).
#[derive(Debug)]
pub struct ControlGuard {
    registered: bool,
}

impl Drop for ControlGuard {
    fn drop(&mut self) {
        if !self.registered {
            return;
        }
        CONTROL.with(|cell| {
            if let Some((index, scheduler)) = cell.borrow_mut().take() {
                scheduler.thread_finished(index);
            }
        });
    }
}

/// The instrumentation point every queue operation passes through.  A single
/// relaxed load when no scheduler is installed; a scheduling decision when
/// the calling thread is controlled.
#[inline]
pub(crate) fn yield_point(op: SchedOp) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    yield_point_slow(op);
}

#[cold]
fn yield_point_slow(op: SchedOp) {
    let control = CONTROL.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|(index, scheduler)| (*index, Arc::clone(scheduler)))
    });
    if let Some((index, scheduler)) = control {
        scheduler.yield_point(index, op);
    }
}

/// Ask the installed scheduler whether the steal `op` the calling thread is
/// about to perform should fail with simulated contention.  Always false in
/// production (no scheduler installed) and for uncontrolled threads.
#[inline]
pub(crate) fn simulate_contention(op: SchedOp) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    simulate_contention_slow(op)
}

#[cold]
fn simulate_contention_slow(op: SchedOp) -> bool {
    let control = CONTROL.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|(index, scheduler)| (*index, Arc::clone(scheduler)))
    });
    match control {
        Some((index, scheduler)) => scheduler.steal_contended(index, op),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A recorder that never blocks: counts events per phase.
    struct Recorder {
        started: AtomicUsize,
        yields: AtomicUsize,
        finished: AtomicUsize,
    }

    impl Scheduler for Recorder {
        fn thread_started(&self, _index: usize) {
            self.started.fetch_add(1, Ordering::SeqCst);
        }
        fn yield_point(&self, _index: usize, _op: SchedOp) {
            self.yields.fetch_add(1, Ordering::SeqCst);
        }
        fn thread_finished(&self, _index: usize) {
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Serializes the two tests below: both touch the process-global
    /// installed-scheduler slot.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn uncontrolled_threads_pass_through_without_a_scheduler() {
        let _serial = TEST_LOCK.lock().unwrap();
        // No install: ops run normally and the guard is inert.
        let guard = controlled(0);
        let injector = crate::deque::Injector::new();
        injector.push(1);
        assert_eq!(injector.steal().success(), Some(1));
        drop(guard);
    }

    #[test]
    fn controlled_threads_report_to_the_installed_scheduler() {
        let _serial = TEST_LOCK.lock().unwrap();
        let recorder = Arc::new(Recorder {
            started: AtomicUsize::new(0),
            yields: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
        });
        install(Arc::clone(&recorder) as Arc<dyn Scheduler>);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = controlled(3);
                let injector = crate::deque::Injector::new();
                injector.push(7);
                assert_eq!(injector.steal().success(), Some(7));
            });
        });
        uninstall();
        assert_eq!(recorder.started.load(Ordering::SeqCst), 1);
        assert_eq!(recorder.finished.load(Ordering::SeqCst), 1);
        // Two queue ops passed through the hook.
        assert_eq!(recorder.yields.load(Ordering::SeqCst), 2);
        // After uninstall the hook is inert again.
        let _guard = controlled(0);
        let injector = crate::deque::Injector::new();
        injector.push(1);
        assert_eq!(recorder.yields.load(Ordering::SeqCst), 2);
    }

    /// Grants every step; injects contention into the first `budget`
    /// injector steals.
    struct Contender {
        budget: AtomicUsize,
    }

    impl Scheduler for Contender {
        fn thread_started(&self, _index: usize) {}
        fn yield_point(&self, _index: usize, _op: SchedOp) {}
        fn thread_finished(&self, _index: usize) {}
        fn steal_contended(&self, _index: usize, op: SchedOp) -> bool {
            if op != SchedOp::InjectorSteal {
                return false;
            }
            self.budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                    left.checked_sub(1)
                })
                .is_ok()
        }
    }

    #[test]
    fn a_scheduler_can_inject_retry_into_controlled_steals() {
        let _serial = TEST_LOCK.lock().unwrap();
        install(Arc::new(Contender {
            budget: AtomicUsize::new(2),
        }) as Arc<dyn Scheduler>);
        let injector = crate::deque::Injector::new();
        injector.push(9);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = controlled(0);
                // The first two steals see simulated contention, the third
                // lands.
                assert!(injector.steal().is_retry());
                assert!(injector.steal().is_retry());
                assert_eq!(injector.steal().success(), Some(9));
            });
        });
        uninstall();
        // Uncontrolled threads never see injected contention.
        injector.push(4);
        assert_eq!(injector.steal().success(), Some(4));
    }
}
