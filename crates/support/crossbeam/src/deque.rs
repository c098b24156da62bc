//! The shared work queue with the `crossbeam-deque` API shape: a global
//! FIFO [`Injector`] any thread can push to and steal from.
//!
//! The queue is lock-based (see the crate docs); steals block briefly on
//! the lock instead of spinning, so [`Steal::Retry`] never arises
//! organically.  It *is* produced on demand: an installed schedule
//! controller (see [`crate::sched::Scheduler::steal_contended`]) can make a
//! controlled thread's steal observe simulated contention, which is how the
//! race explorer drives the contended-take path of a worker loop that a
//! mutex-backed queue would otherwise never exercise.

use crate::sched::{self, SchedOp};
use std::collections::VecDeque;
use std::sync::Mutex;

/// The outcome of one steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The queue was empty.
    Empty,
    /// One item was stolen.
    Success(T),
    /// The attempt lost a race and should be retried.  The lock-based
    /// implementation only produces it under an installed schedule
    /// controller injecting contention; in production steals serialize on
    /// the lock instead.
    Retry,
}

impl<T> Steal<T> {
    /// The stolen item, if the attempt succeeded.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(item) => Some(item),
            Steal::Empty | Steal::Retry => None,
        }
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    /// Whether the attempt lost a (possibly simulated) race.
    pub fn is_retry(&self) -> bool {
        matches!(self, Steal::Retry)
    }
}

/// A global FIFO queue every thread may push to and steal from.
#[derive(Debug)]
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// An empty injector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Push an item onto the back of the queue.
    pub fn push(&self, item: T) {
        sched::yield_point(SchedOp::InjectorPush);
        self.queue.lock().expect("queue poisoned").push_back(item);
    }

    /// Steal the oldest item.
    pub fn steal(&self) -> Steal<T> {
        sched::yield_point(SchedOp::InjectorSteal);
        if sched::simulate_contention(SchedOp::InjectorSteal) {
            return Steal::Retry;
        }
        match self.queue.lock().expect("queue poisoned").pop_front() {
            Some(item) => Steal::Success(item),
            None => Steal::Empty,
        }
    }

    /// Number of queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.lock().expect("queue poisoned").len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn injector_is_fifo_from_every_thread() {
        let injector = Injector::new();
        for i in 0..5 {
            injector.push(i);
        }
        let drained: Vec<i32> = std::iter::from_fn(|| injector.steal().success()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(injector.is_empty());
    }

    #[test]
    fn concurrent_stealing_conserves_every_item() {
        // A steal storm: four threads drain one injector; every item must
        // surface exactly once.
        const ITEMS: usize = 2000;
        let injector = Injector::new();
        for i in 0..ITEMS {
            injector.push(i);
        }
        let taken = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let local: Vec<usize> =
                        std::iter::from_fn(|| injector.steal().success()).collect();
                    taken.lock().unwrap().extend(local);
                });
            }
        });
        let taken = taken.into_inner().unwrap();
        assert_eq!(taken.len(), ITEMS, "no item dropped or duplicated");
        let unique: BTreeSet<usize> = taken.iter().copied().collect();
        assert_eq!(unique.len(), ITEMS);
        assert_eq!(unique.iter().next_back(), Some(&(ITEMS - 1)));
    }

    #[test]
    fn steal_success_and_empty_accessors() {
        assert_eq!(Steal::Success(7).success(), Some(7));
        assert_eq!(Steal::<i32>::Empty.success(), None);
        assert_eq!(Steal::<i32>::Retry.success(), None);
        assert!(Steal::<i32>::Empty.is_empty());
        assert!(!Steal::Success(1).is_empty());
    }
}
