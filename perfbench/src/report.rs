//! Metric tables and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit.  A run fills in the values it measured; the printer walks the
//! table, so every run prints every metric of its mode (end-to-end with
//! tracing off, per-layer with tracing on).  A per-layer metric of a layer
//! the workload does not exercise reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics (tracing off): name and unit.  `_ref` metrics are
/// wall seconds converted to seconds on the reference host by the host
/// speed sampled around each timed solve or drain (see `host::HostSpeed`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("solve_s_ref.p50", "s"),
    ("answers_per_s_ref", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (tracing on): name and unit.  Computed byte counts
/// come from array sizes, not from hardware counters; `.modelled` figures
/// come from the FPGA cycle model or the serving model, never from a clock.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sem-kernel.ax.s_per_call", "s"),
    ("sem-kernel.ax.calls", "count"),
    ("sem-kernel.ax.gflops", "GFLOP/s"),
    ("sem-kernel.ax.flop_per_byte", "flop/B"),
    ("sem-kernel.ax.roofline_frac", "frac"),
    ("sem-kernel.ax.share", "frac"),
    ("sem-kernel.ax_parallel.speedup", "ratio"),
    ("sem-mesh.dssum.s_per_call", "s"),
    ("sem-mesh.dssum.gbs", "GB/s"),
    ("sem-mesh.dssum.share", "frac"),
    ("sem-mesh.mask.s_per_call", "s"),
    ("sem-mesh.mask.share", "frac"),
    ("sem-mesh.vec.s_per_iter", "s"),
    ("sem-mesh.vec.gbs", "GB/s"),
    ("sem-mesh.vec.share", "frac"),
    ("sem-solver.precond.s_per_call", "s"),
    ("sem-solver.precond.share", "frac"),
    ("sem-solver.precond.over_ax", "ratio"),
    ("sem-solver.cg.iterations", "count"),
    ("sem-solver.cg.self_share", "frac"),
    ("sem-solver.setup.precond_s", "s"),
    ("sem-solver.fdm.s_per_call", "s"),
    ("sem-solver.fdm.over_ax", "ratio"),
    ("sem-solver.setup.fdm_s", "s"),
    ("sem-solver.setup.coarse_dofs", "count"),
    ("sem-accel.setup.problem_s", "s"),
    ("fpga-sim.apply.s_per_call", "s"),
    ("fpga-sim.solve_s.modelled", "s"),
    ("sem-serve.solve_share", "frac"),
    ("sem-serve.overhead_s_per_req", "s"),
    ("sem-serve.jobs", "count"),
    ("sem-serve.mean_batch", "count"),
    ("sem-serve.steals", "count"),
    ("sem-serve.p99_latency_s.modelled", "s"),
    ("sem-serve.drift_correction.modelled", "ratio"),
    ("host.triad_gbs", "GB/s"),
    ("host.triad_mib", "MiB"),
    ("host.llc_mib", "MiB"),
    ("host.fma_gflops", "GFLOP/s"),
    ("ledger.coverage", "frac"),
    ("ledger.fidelity", "ratio"),
    ("verify.failed_frac", "frac"),
    ("verify.samples", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers (solves or served requests) attempted.
    pub attempted: u64,
    /// Answers rejected, not converged, or failing re-verification.
    pub failed: u64,
    /// Checks beyond per-answer verification that failed (ledger parity,
    /// run-to-run determinism), each with its reason.
    pub broken: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    ///
    /// # Panics
    /// Panics if `name` is in neither metric table (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not declared"
        );
        self.values.insert(name, value);
    }

    /// Add a human-readable line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one verified or failed answer.
    pub fn answer(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every answer verified and every check held.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.broken.is_empty()
    }

    /// Print the notes, a metric table, and the one-line JSON result, which
    /// is always the last line of standard output.
    pub fn print(&self, trace: bool) {
        for line in &self.notes {
            println!("# {line}");
        }
        for reason in &self.broken {
            println!("# CHECK FAILED: {reason}");
        }
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = self.values.get(name).copied();
            match value {
                Some(v) => println!("{name:<38} {v:>16.6e} {unit}"),
                None => println!("{name:<38} {:>16} {unit}  (not exercised)", 0),
            }
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// A finite `f64` as a JSON number with every digit `Display` gives.
fn json_number(v: f64) -> String {
    let text = format!("{v}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
