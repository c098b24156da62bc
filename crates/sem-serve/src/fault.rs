//! Serving-layer fault-tolerance policy: detection thresholds, retry
//! backoff, the per-request retry ledger, per-device circuit breakers and
//! the trusted residual check.
//!
//! The simulator injects faults ([`fpga_sim::FaultPlan`] behind
//! `sem_accel::FaultyBackend`); this module is the *policy* side the
//! streaming host runs against it.  [`crate::chaos`] describes how
//! detection, retry and quarantine play out on its two executors.  Every
//! threshold is priced in modelled seconds, never on a wall clock.

use sem_accel::SemSystem;
use sem_mesh::ElementField;
use sem_solver::{CgOptions, CgSolver, SolveFault};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why the serving layer refused a job's answer (or never got one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultReason {
    /// The device died mid-solve (typed error from the backend).
    DeviceDead,
    /// A kernel hung and the solve was aborted (typed error).
    KernelHung,
    /// The solve "succeeded" but the recomputed residual failed
    /// verification — a transient upset corrupted the answer.
    CorruptResult,
    /// The session's modeled seconds blew the timeout budget — the
    /// signature of a sticky slowdown (degraded link or clock).
    TimeoutExceeded,
}

impl FaultReason {
    /// Stable lowercase label (metric label values, report keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::DeviceDead => "death",
            Self::KernelHung => "hang",
            Self::CorruptResult => "corrupt",
            Self::TimeoutExceeded => "timeout",
        }
    }

    /// The reason a typed solver fault maps to.
    #[must_use]
    pub fn of_solve_fault(fault: SolveFault) -> Self {
        match fault {
            SolveFault::DeviceDead { .. } => Self::DeviceDead,
            SolveFault::KernelHung { .. } => Self::KernelHung,
        }
    }
}

/// Knobs of the fault-tolerant streaming host.  Everything is priced in
/// modeled seconds; defaults are deliberately conservative so a fault-free
/// run records no fault.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultToleranceOptions {
    /// Residual verification slack: an answer is accepted when its
    /// recomputed relative residual is `<= verify_slack × cg.tolerance`.
    /// (CG's own stopping test uses the recursively updated residual,
    /// which drifts from the true residual by rounding — the slack absorbs
    /// that, while a bit-flip upset overshoots it by ~150 orders of
    /// magnitude.)
    pub verify_slack: f64,
    /// Timeout budget factor: a session whose modeled seconds exceed
    /// `timeout_factor ×` its drift-corrected admission prediction is
    /// treated as [`FaultReason::TimeoutExceeded`].
    pub timeout_factor: f64,
    /// Attempts before a job stops bouncing between accelerators and is
    /// pinned to the fallback device.
    pub max_retries: usize,
    /// First retry's modeled backoff delay.
    pub backoff_base_seconds: f64,
    /// Backoff ceiling (the exponential doubles up to here).
    pub backoff_cap_seconds: f64,
    /// Modeled seconds a quarantined device sits out before the breaker
    /// offers it a probe job.
    pub probe_cooldown_seconds: f64,
}

impl Default for FaultToleranceOptions {
    fn default() -> Self {
        Self {
            verify_slack: 10.0,
            timeout_factor: 4.0,
            max_retries: 5,
            backoff_base_seconds: 1e-3,
            backoff_cap_seconds: 0.1,
            probe_cooldown_seconds: 1.0,
        }
    }
}

impl FaultToleranceOptions {
    /// Modeled backoff before retry number `attempt` (1-based): capped
    /// exponential, `base × 2^(attempt-1)` up to the cap.
    #[must_use]
    pub fn backoff_seconds(&self, attempt: usize) -> f64 {
        let doublings = attempt.saturating_sub(1).min(52) as i32;
        (self.backoff_base_seconds * f64::from(2.0_f32).powi(doublings))
            .min(self.backoff_cap_seconds)
    }

    /// Whether a recomputed relative residual passes verification.
    /// NaN-safe: a NaN residual never verifies.
    #[must_use]
    pub fn residual_ok(&self, relative_residual: f64, tolerance: f64) -> bool {
        relative_residual <= self.verify_slack * tolerance
    }
}

/// One request's retry history.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RetryRecord {
    /// Attempts that failed (the successful attempt is not counted).
    pub attempts: usize,
    /// Reason of each failed attempt, in order.
    pub reasons: Vec<FaultReason>,
    /// Total modeled backoff seconds this request waited.
    pub backoff_seconds: f64,
}

/// The retry ledger: per-request failure history of one serve run, plus
/// run-wide totals — the audit trail proving no admitted job was dropped.
#[derive(Debug, Clone, Default)]
pub struct RetryLedger {
    records: BTreeMap<usize, RetryRecord>,
}

impl RetryLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one failed attempt for `request`; returns the attempt count
    /// so far (1 after the first failure).
    pub fn charge(&mut self, request: usize, reason: FaultReason, backoff_seconds: f64) -> usize {
        let record = self.records.entry(request).or_default();
        record.attempts += 1;
        record.reasons.push(reason);
        record.backoff_seconds += backoff_seconds;
        record.attempts
    }

    /// Failed attempts recorded for `request`.
    #[must_use]
    pub fn attempts(&self, request: usize) -> usize {
        self.records.get(&request).map_or(0, |r| r.attempts)
    }

    /// Total failed attempts across all requests.
    #[must_use]
    pub fn total_retries(&self) -> usize {
        self.records.values().map(|r| r.attempts).sum()
    }

    /// Requests that failed at least once (and their histories), by
    /// request index.
    #[must_use]
    pub fn records(&self) -> &BTreeMap<usize, RetryRecord> {
        &self.records
    }

    /// Failed attempts per reason label, as `(label, count)` pairs in
    /// stable label order (serde-friendly for bench artifacts).
    #[must_use]
    pub fn by_reason(&self) -> Vec<(String, usize)> {
        let mut out: BTreeMap<&'static str, usize> = BTreeMap::new();
        for record in self.records.values() {
            for reason in &record.reasons {
                *out.entry(reason.label()).or_insert(0) += 1;
            }
        }
        out.into_iter()
            .map(|(label, count)| (label.to_string(), count))
            .collect()
    }
}

/// Circuit-breaker health of one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Serving normally.
    Healthy,
    /// One strike: still serving, but the next fault quarantines.
    Suspect,
    /// Out of the placement set since the recorded modeled time; eligible
    /// for a probe job after the cooldown.
    Quarantined {
        /// Modeled seconds at which the device was quarantined.
        since_seconds: f64,
    },
}

impl BreakerState {
    /// Stable lowercase label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Suspect => "suspect",
            Self::Quarantined { .. } => "quarantined",
        }
    }
}

/// Per-device circuit breaker: healthy → suspect on a fault, suspect →
/// quarantined on a second, suspect → healthy on a success, and
/// probe-based re-admission out of quarantine after a modeled cooldown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Faults observed over the breaker's lifetime.
    pub faults: usize,
    /// Times the device entered quarantine.
    pub quarantines: usize,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A healthy breaker.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: BreakerState::Healthy,
            faults: 0,
            quarantines: 0,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the device is out of the normal placement set.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        matches!(self.state, BreakerState::Quarantined { .. })
    }

    /// A job completed verified on this device.  A suspect device is
    /// rehabilitated; a quarantined one must go through [`Self::probe_ok`]
    /// instead (success here would mean placement ignored the quarantine).
    pub fn on_success(&mut self) {
        if self.state == BreakerState::Suspect {
            self.state = BreakerState::Healthy;
        }
    }

    /// A job failed on this device at modeled time `now_seconds`.
    /// Returns the state after the strike.
    pub fn on_fault(&mut self, now_seconds: f64) -> BreakerState {
        self.faults += 1;
        self.state = match self.state {
            BreakerState::Healthy => BreakerState::Suspect,
            BreakerState::Suspect | BreakerState::Quarantined { .. } => {
                if !matches!(self.state, BreakerState::Quarantined { .. }) {
                    self.quarantines += 1;
                }
                BreakerState::Quarantined {
                    since_seconds: now_seconds,
                }
            }
        };
        self.state
    }

    /// Whether a quarantined device has sat out its cooldown and may be
    /// offered a probe job.
    ///
    /// Compares `now >= since + cooldown` — the *same* expression the
    /// placer uses to compute its wait-until time.  The subtractive
    /// form `now - since >= cooldown` disagrees with it at the boundary
    /// (for `since ≈ 1.001122…`, `(since + 1.0) - since` rounds below
    /// `1.0`), which let the host wake at exactly the scheduled probe
    /// time, find no probe due, and re-schedule the same wake-up forever.
    #[must_use]
    pub fn probe_due(&self, now_seconds: f64, cooldown_seconds: f64) -> bool {
        match self.state {
            BreakerState::Quarantined { since_seconds } => {
                now_seconds >= since_seconds + cooldown_seconds
            }
            _ => false,
        }
    }

    /// A probe job completed verified: re-admit the device (healthy, not
    /// suspect — the probe *is* the evidence).
    pub fn probe_ok(&mut self) {
        self.state = BreakerState::Healthy;
    }
}

/// Recompute the relative residual `‖b − Ax‖ / ‖b‖` of a released answer
/// on the trusted host operator (the native `PoissonOperator` path — never
/// the backend that produced the answer), in the same masked, weighted
/// norm CG's own stopping test uses.  Returns `0.0` for a zero right-hand
/// side, matching the solver's convention.
#[must_use]
pub fn relative_residual(system: &SemSystem, rhs: &ElementField, solution: &ElementField) -> f64 {
    let verifier = CgSolver::new(
        system.operator(),
        system.gather_scatter(),
        system.mask(),
        CgOptions::default(),
    );
    let mut b = rhs.clone();
    system.mask().apply(&mut b);
    let b_norm = verifier.inner_product(&b, &b).sqrt();
    if b_norm == 0.0 {
        return 0.0;
    }
    let ax = verifier.apply_operator(solution);
    b.axpy(-1.0, &ax);
    verifier.inner_product(&b, &b).sqrt() / b_norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_accel::Backend;

    #[test]
    fn backoff_is_capped_exponential() {
        let opts = FaultToleranceOptions::default();
        assert_eq!(opts.backoff_seconds(1), 1e-3);
        assert_eq!(opts.backoff_seconds(2), 2e-3);
        assert_eq!(opts.backoff_seconds(3), 4e-3);
        assert_eq!(opts.backoff_seconds(30), 0.1, "capped");
        assert_eq!(opts.backoff_seconds(1000), 0.1, "no overflow at depth");
    }

    #[test]
    fn residual_verification_is_nan_safe() {
        let opts = FaultToleranceOptions::default();
        assert!(opts.residual_ok(1e-11, 1e-10));
        assert!(!opts.residual_ok(1e-3, 1e-10));
        assert!(!opts.residual_ok(f64::NAN, 1e-10), "NaN never verifies");
    }

    #[test]
    fn ledger_tracks_attempts_reasons_and_backoff() {
        let mut ledger = RetryLedger::new();
        assert_eq!(ledger.charge(3, FaultReason::DeviceDead, 0.001), 1);
        assert_eq!(ledger.charge(3, FaultReason::CorruptResult, 0.002), 2);
        assert_eq!(ledger.charge(7, FaultReason::TimeoutExceeded, 0.001), 1);
        assert_eq!(ledger.attempts(3), 2);
        assert_eq!(ledger.attempts(0), 0);
        assert_eq!(ledger.total_retries(), 3);
        let by_reason = ledger.by_reason();
        assert!(by_reason.contains(&("death".to_string(), 1)));
        assert!(by_reason.contains(&("corrupt".to_string(), 1)));
        assert!((ledger.records()[&3].backoff_seconds - 0.003).abs() < 1e-15);
    }

    #[test]
    fn breaker_walks_healthy_suspect_quarantined_and_probes_back() {
        let mut breaker = CircuitBreaker::new();
        assert_eq!(breaker.state(), BreakerState::Healthy);
        assert_eq!(breaker.on_fault(1.0), BreakerState::Suspect);
        // A success while suspect rehabilitates.
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::Healthy);
        // Two strikes quarantine.
        breaker.on_fault(2.0);
        assert_eq!(
            breaker.on_fault(3.0),
            BreakerState::Quarantined { since_seconds: 3.0 }
        );
        assert!(breaker.is_quarantined());
        // on_success does NOT lift a quarantine.
        breaker.on_success();
        assert!(breaker.is_quarantined());
        // Probe only after the cooldown, measured in modeled time.
        assert!(!breaker.probe_due(3.5, 1.0));
        assert!(breaker.probe_due(4.0, 1.0));
        breaker.probe_ok();
        assert_eq!(breaker.state(), BreakerState::Healthy);
        assert_eq!(breaker.faults, 3);
        assert_eq!(breaker.quarantines, 1);
        // A failed probe re-quarantines at the probe's modeled time.
        breaker.on_fault(5.0);
        assert_eq!(
            breaker.on_fault(5.0),
            BreakerState::Quarantined { since_seconds: 5.0 }
        );
    }

    #[test]
    fn a_probe_is_due_at_exactly_the_scheduled_wake_up_time() {
        // Regression: the placer waits until `since + cooldown`, so
        // `probe_due` must be true at precisely that float.  The old
        // subtractive test (`now - since >= cooldown`) rounds the
        // difference below the cooldown for awkward `since` values — the
        // host then woke at the scheduled time, found no probe due, and
        // re-scheduled the identical wake-up forever (observed live with
        // an all-dead accelerator pool).
        let mut breaker = CircuitBreaker::new();
        let since = 1.001_122_026_227_285_f64;
        breaker.on_fault(since);
        breaker.on_fault(since);
        assert!(breaker.is_quarantined());
        let cooldown = 1.0;
        // The exact modeled instant the placer schedules.
        assert!(
            (since + cooldown) - since < cooldown,
            "the rounding this pins"
        );
        assert!(breaker.probe_due(since + cooldown, cooldown));
        assert!(!breaker.probe_due(since, cooldown));
    }

    #[test]
    fn trusted_residual_accepts_converged_answers_and_rejects_corruption() {
        let system = sem_accel::SemSystem::builder()
            .degree(4)
            .elements([2, 2, 2])
            .backend(Backend::cpu_specialized())
            .build();
        let rhs = system.problem().manufactured_rhs();
        let report = system
            .solve_many(std::slice::from_ref(&rhs), CgOptions::default())
            .pop()
            .unwrap();
        let good = relative_residual(&system, &rhs, &report.solution.solution);
        let opts = FaultToleranceOptions::default();
        let tolerance = report.solution.cg.relative_residual.max(1e-10);
        assert!(
            opts.residual_ok(good, tolerance),
            "converged solve verifies: residual {good} vs tolerance {tolerance}"
        );
        // Flip one bit of the answer the way the injector does (on an
        // interior node carrying a nonzero value — a masked boundary entry
        // is zero and its upset would vanish): detection must catch
        // exactly the corruption the simulator produces.
        let mut corrupted = report.solution.solution.clone();
        let target = corrupted
            .as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map_or(0, |(i, _)| i);
        corrupted.as_mut_slice()[target] =
            fpga_sim::corrupt_value(corrupted.as_mut_slice()[target]);
        let bad = relative_residual(&system, &rhs, &corrupted);
        assert!(
            !opts.residual_ok(bad, tolerance),
            "a single-event upset fails verification: residual {bad}"
        );
    }
}
