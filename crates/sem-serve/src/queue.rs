//! Batch jobs: same-shape requests scheduled as one device session (one
//! shared upload, one batched submission).
//!
//! [`crate::ArrivalStream::coalesce`] builds them from an arrival stream.
//! A job never reorders *results*: it remembers its requests' ids, and the
//! host writes every answer back to its request's slot.

use crate::request::ProblemSpec;
use serde::{Deserialize, Serialize};

/// A packed batch: requests of one shape scheduled as one device session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchJob {
    /// The shape every request in the job shares.
    pub spec: ProblemSpec,
    /// Indices of the packed requests in the original submission order.
    pub requests: Vec<usize>,
}

impl BatchJob {
    /// Number of right-hand sides in the job.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.requests.len()
    }

    /// Split the job into front and back halves (the front half takes the
    /// extra request on odd sizes), preserving request order — the
    /// down-batching move of deadline admission.
    ///
    /// # Panics
    /// Panics if the job holds fewer than two requests.
    #[must_use]
    pub fn split(&self) -> (BatchJob, BatchJob) {
        assert!(self.batch_size() >= 2, "nothing to split");
        let mid = self.batch_size().div_ceil(2);
        (
            BatchJob {
                spec: self.spec,
                requests: self.requests[..mid].to_vec(),
            },
            BatchJob {
                spec: self.spec,
                requests: self.requests[mid..].to_vec(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_halves_preserve_order_and_conserve_requests() {
        let job = BatchJob {
            spec: ProblemSpec::cube(3, 2),
            requests: vec![4, 7, 9, 11, 12],
        };
        let (front, back) = job.split();
        assert_eq!(front.requests, vec![4, 7, 9], "front takes the extra");
        assert_eq!(back.requests, vec![11, 12]);
        assert_eq!(front.spec, job.spec);
        let (a, b) = back.split();
        assert_eq!((a.requests, b.requests), (vec![11], vec![12]));
    }
}
