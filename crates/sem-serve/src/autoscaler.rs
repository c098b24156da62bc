//! Drift-corrected SLO autoscaling over a heterogeneous device pool.
//!
//! An [`Autoscaler`] owns an activation mask over a fixed candidate pool of
//! [`DeviceSlot`]s (typically the `arch-db` FPGA catalogue, real boards and
//! `fpga:projected:*` model-designed devices side by side) and flips at most
//! one device per observation window: *up* — cheapest inactive candidate by
//! TDP — when the window rejected work or its p99 latency ran hot against
//! the deadline; *down* — most expensive active device — only when the
//! window produced *positive evidence* of slack (a measured p99 well under
//! the deadline and zero rejections).
//!
//! The evidence rule is deliberate: a window that admitted nothing has no
//! latency percentile ([`WindowStats::p99_latency_seconds`] is `None`), and
//! the scaler **holds** rather than treating the absence of a tail as a
//! zero-latency tail.  The former `nearest_rank_percentile(&[], p) == 0.0`
//! behaviour turned exactly this situation — an overload window in which
//! every request was rejected — into a fabricated scale-*down* signal, the
//! opposite of what the pool needed.
//!
//! Cost is modelled, not measured: every candidate carries a provisioning
//! cost in watts (TDP from `arch_db::fpga_device`), the scaler activates
//! cheapest-first and retires most-expensive-first, and the serve loop
//! charges `active watts × window seconds` to the run so a bench can compare
//! cost-per-solve against a statically provisioned pool.

use crate::scheduler::DeviceSlot;
use crate::stream::WindowStats;
use sem_obs::recorder;
use serde::{Deserialize, Serialize};

/// When to grow and when to shrink, expressed against the serving deadline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AutoscalerPolicy {
    /// The arrival-relative latency target the pool must hold (same figure
    /// as [`crate::stream::LiveOptions::deadline_seconds`]).
    pub deadline_seconds: f64,
    /// Scale up when a window's p99 exceeds this fraction of the deadline
    /// (or when the window rejected any request).
    pub scale_up_fraction: f64,
    /// Scale down only when a window's measured p99 sits below this
    /// fraction of the deadline with zero rejections.
    pub scale_down_fraction: f64,
    /// Never deactivate below this many devices.
    pub min_devices: usize,
}

impl AutoscalerPolicy {
    /// The default thresholds (up above 90% of deadline, down below 40%,
    /// at least one device) around an explicit deadline.
    #[must_use]
    pub fn with_deadline(deadline_seconds: f64) -> Self {
        Self {
            deadline_seconds,
            scale_up_fraction: 0.9,
            scale_down_fraction: 0.4,
            min_devices: 1,
        }
    }
}

/// Which way a scale event moved the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDirection {
    /// A device was activated.
    Up,
    /// A device was deactivated.
    Down,
}

/// One pool-size change, attributed to the window whose stats triggered it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Index of the observation window that produced the signal.
    pub window: usize,
    /// Grow or shrink.
    pub direction: ScaleDirection,
    /// Pool index of the device that was (de)activated.
    pub device: usize,
    /// Display label of that device.
    pub label: String,
    /// Active devices after the flip.
    pub active_after: usize,
}

/// A deadline-holding, cost-minimising activation mask over a fixed
/// candidate pool.  Construct it over the same slots the [`crate::Server`]
/// was built with and pass it to [`crate::Server::serve_stream`]; the serve
/// loop feeds it one [`WindowStats`] per window and prices admission only
/// against the devices the mask holds active.
#[derive(Debug)]
pub struct Autoscaler {
    policy: AutoscalerPolicy,
    watts: Vec<f64>,
    labels: Vec<String>,
    active: Vec<bool>,
    events: Vec<ScaleEvent>,
}

impl Autoscaler {
    /// An autoscaler over `slots`, each priced at the matching entry of
    /// `watts`, starting with the `min_devices` cheapest candidates active.
    ///
    /// # Panics
    /// Panics if `watts` and `slots` disagree in length, a watt figure is
    /// non-finite or non-positive, or `min_devices` is zero or larger than
    /// the pool.
    #[must_use]
    pub fn new(policy: AutoscalerPolicy, slots: &[DeviceSlot], watts: Vec<f64>) -> Self {
        assert_eq!(watts.len(), slots.len(), "one watt figure per slot");
        assert!(
            watts.iter().all(|w| w.is_finite() && *w > 0.0),
            "provisioning costs must be positive"
        );
        assert!(
            policy.min_devices >= 1 && policy.min_devices <= slots.len(),
            "min_devices must be in 1..={}",
            slots.len()
        );
        let mut active = vec![false; slots.len()];
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_by(|&a, &b| watts[a].total_cmp(&watts[b]).then(a.cmp(&b)));
        for &device in order.iter().take(policy.min_devices) {
            active[device] = true;
        }
        Self {
            policy,
            watts,
            labels: slots.iter().map(|slot| slot.label.clone()).collect(),
            active,
            events: Vec::new(),
        }
    }

    /// The full FPGA candidate pool from the `arch-db` catalogue — every
    /// real evaluated board plus the Section V-D `fpga:projected:*`
    /// model-designed devices — with each slot's TDP watts as its
    /// provisioning cost.
    ///
    /// # Panics
    /// Panics if a catalogue slug fails to resolve to a backend (a workspace
    /// invariant: `arch-db` and `sem-accel` agree on the registry names).
    #[must_use]
    pub fn fpga_candidates() -> (Vec<DeviceSlot>, Vec<f64>) {
        let mut slots = Vec::new();
        let mut watts = Vec::new();
        let slugs: Vec<&str> = arch_db::fpga_device_slugs()
            .into_iter()
            .chain(arch_db::projected_fpga_slugs())
            .collect();
        for slug in slugs {
            let name = format!("fpga:{slug}");
            let slot = DeviceSlot::from_registry_name(&name)
                .unwrap_or_else(|| panic!("catalogue slug `{name}` missing from the registry"));
            let device = arch_db::fpga_device(slug)
                .unwrap_or_else(|| panic!("no device description for `{slug}`"));
            slots.push(slot);
            watts.push(device.tdp_watts);
        }
        (slots, watts)
    }

    /// The mask placement serves from: the active devices.  (Quarantined
    /// devices stay in it; placement skips them through the circuit
    /// breakers.)
    #[must_use]
    pub fn active_mask(&self) -> &[bool] {
        &self.active
    }

    /// Number of provisioned (active) devices.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Per-slot provisioning costs in watts.
    #[must_use]
    pub fn watts(&self) -> &[f64] {
        &self.watts
    }

    /// Every scale event so far, in window order.
    #[must_use]
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    /// Digest one closed window and flip at most one device.
    ///
    /// Up on rejections or a hot measured p99; down only on a cool measured
    /// p99 with zero rejections; hold when the window carries no latency
    /// evidence (`p99_latency_seconds == None`) and nothing was rejected.
    pub fn observe(&mut self, stats: &WindowStats) {
        let deadline = self.policy.deadline_seconds;
        let p99 = stats.p99_latency_seconds;
        let hot = p99.is_some_and(|p| p > self.policy.scale_up_fraction * deadline);
        let cool = p99.is_some_and(|p| p < self.policy.scale_down_fraction * deadline);
        if stats.rejected > 0 || hot {
            self.flip(stats.window, ScaleDirection::Up);
        } else if cool && stats.rejected == 0 {
            self.flip(stats.window, ScaleDirection::Down);
        }
        // Neither branch: hold.  In particular a window with no admitted
        // requests and no rejections is *absence of evidence*, not evidence
        // of slack.
    }

    fn flip(&mut self, window: usize, direction: ScaleDirection) {
        let candidate = match direction {
            // Cheapest inactive candidate first.
            ScaleDirection::Up => (0..self.active.len())
                .filter(|&d| !self.active[d])
                .min_by(|&a, &b| self.watts[a].total_cmp(&self.watts[b]).then(a.cmp(&b))),
            // Most expensive active device first, never below `min_devices`.
            ScaleDirection::Down if self.active_count() <= self.policy.min_devices => None,
            ScaleDirection::Down => (0..self.active.len())
                .filter(|&d| self.active[d])
                .max_by(|&a, &b| self.watts[a].total_cmp(&self.watts[b]).then(b.cmp(&a))),
        };
        let Some(device) = candidate else {
            return; // Saturated in that direction: every candidate already flipped.
        };
        self.active[device] = direction == ScaleDirection::Up;
        let obs = recorder();
        if obs.is_enabled() {
            let metric = match direction {
                ScaleDirection::Up => "sem_serve_scale_ups_total",
                ScaleDirection::Down => "sem_serve_scale_downs_total",
            };
            obs.counter_add(metric, &[], 1);
        }
        self.events.push(ScaleEvent {
            window,
            direction,
            device,
            label: self.labels[device].clone(),
            active_after: self.active_count(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(window: usize, admitted: usize, rejected: usize, p99: Option<f64>) -> WindowStats {
        WindowStats {
            window,
            start_seconds: window as f64 * 10.0,
            admitted,
            rejected,
            p99_latency_seconds: p99,
            active_devices: 0,
        }
    }

    fn pool(n: usize) -> (Vec<DeviceSlot>, Vec<f64>) {
        let slots: Vec<DeviceSlot> = (0..n)
            .map(|_| DeviceSlot::from_registry_name("cpu:optimized").unwrap())
            .collect();
        let watts = (0..n).map(|i| 100.0 + i as f64 * 50.0).collect();
        (slots, watts)
    }

    #[test]
    fn grows_cheapest_first_and_shrinks_most_expensive_first() {
        let (slots, watts) = pool(3);
        let mut scaler = Autoscaler::new(AutoscalerPolicy::with_deadline(10.0), &slots, watts);
        assert_eq!(scaler.active_mask(), &[true, false, false]);
        scaler.observe(&stats(0, 4, 2, Some(9.8)));
        assert_eq!(scaler.active_mask(), &[true, true, false], "cheapest next");
        scaler.observe(&stats(1, 4, 1, None));
        assert_eq!(scaler.active_mask(), &[true, true, true]);
        scaler.observe(&stats(2, 4, 0, Some(1.0)));
        assert_eq!(
            scaler.active_mask(),
            &[true, true, false],
            "most expensive retires first"
        );
        assert_eq!(scaler.events().len(), 3);
        assert_eq!(scaler.events()[2].direction, ScaleDirection::Down);
    }

    #[test]
    fn a_window_with_no_latency_evidence_holds_the_pool() {
        // The regression the Option-returning percentile exists for: an
        // all-rejected window used to read as p99 == 0.0 and shrink the
        // pool mid-overload; an *idle* window must not shrink it either.
        let (slots, watts) = pool(2);
        let mut scaler = Autoscaler::new(AutoscalerPolicy::with_deadline(10.0), &slots, watts);
        scaler.observe(&stats(0, 8, 1, None));
        assert_eq!(scaler.active_count(), 2, "rejections still scale up");
        scaler.observe(&stats(1, 0, 0, None));
        assert_eq!(scaler.active_count(), 2, "no evidence, no shrink");
        assert_eq!(scaler.events().len(), 1);
    }

    #[test]
    fn never_shrinks_below_min_devices_and_never_grows_past_the_pool() {
        let (slots, watts) = pool(2);
        let mut scaler = Autoscaler::new(AutoscalerPolicy::with_deadline(10.0), &slots, watts);
        scaler.observe(&stats(0, 4, 0, Some(0.5)));
        assert_eq!(scaler.active_count(), 1, "already at min_devices");
        scaler.observe(&stats(1, 0, 9, None));
        scaler.observe(&stats(2, 0, 9, None));
        scaler.observe(&stats(3, 0, 9, None));
        assert_eq!(scaler.active_count(), 2, "saturated at the pool size");
        assert_eq!(scaler.events().len(), 1, "saturated flips are not events");
    }

    #[test]
    fn fpga_candidates_cover_the_catalogue_with_positive_watts() {
        let (slots, watts) = Autoscaler::fpga_candidates();
        assert_eq!(
            slots.len(),
            arch_db::fpga_device_slugs().len() + arch_db::projected_fpga_slugs().len()
        );
        assert!(watts.iter().all(|w| *w > 0.0));
        assert!(slots.iter().any(|s| s.label.contains("projected")));
    }
}
