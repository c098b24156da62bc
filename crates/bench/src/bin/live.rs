//! Live-traffic serving benchmark: an offered-load ramp over the full
//! `arch-db` FPGA candidate pool, autoscaled against a p99 deadline and
//! compared with the largest static pool at modelled cost-per-solve.
//!
//! For each workload row (a Poisson rate ramp, a bursty trace and a diurnal
//! trace — all seeded, so every figure in the report is deterministic), the
//! same arrival stream is served twice:
//!
//! * **autoscaled** — the `Autoscaler` starts at one (cheapest-by-TDP)
//!   device and flips at most one device per observation window on the
//!   windowed rejection/p99 evidence;
//! * **static** — every candidate active for the whole run, the
//!   largest-pool baseline elasticity is measured against.
//!
//! The acceptance figures: the autoscaled run holds the p99 deadline on
//! every row and provisions strictly fewer watt-seconds per admitted solve
//! than the static pool.  Everything is virtual-time (arrival stamps,
//! simulated session seconds, window boundaries), so `BENCH_live.json` is
//! bitwise reproducible under the fixed seed on any host.
//!
//! Run with `cargo run --release -p bench --bin live -- [degree] [per_side] [horizon_units] [seed]`
//! (defaults `7 2 60 42`, which is also what CI's smoke step and the
//! committed `BENCH_live.json` use).  `horizon_units` is the trace length
//! in multiples of one probed single-request session, so the offered-load
//! ramp stresses the pool identically at every problem size.

use bench::table::{fmt, TableWriter};
use perf_model::WorkloadKind;
use sem_serve::autoscaler::{Autoscaler, AutoscalerPolicy, ScaleDirection};
use sem_serve::{ArrivalStream, LiveOptions, ProblemSpec, ServeOptions, Server};
use sem_solver::{CgOptions, PrecondSpec};
use serde::Serialize;

/// One workload of the ramp, served autoscaled and static.
#[derive(Debug, Clone, Serialize)]
struct LiveRow {
    /// Workload label (`poisson@…`, `bursty`, `diurnal`).
    workload: String,
    /// Mean offered load in requests per modelled second.
    offered_rps: f64,
    /// Requests in the trace.
    requests: usize,
    /// Requests the autoscaled run admitted.
    admitted: usize,
    /// Requests the autoscaled run rejected.
    rejected: usize,
    /// Autoscaled p50 arrival-relative latency (`None` if nothing admitted).
    p50_latency_seconds: Option<f64>,
    /// Autoscaled p99 arrival-relative latency (`None` if nothing admitted).
    p99_latency_seconds: Option<f64>,
    /// Whether the autoscaled p99 sat within the deadline.
    deadline_held: bool,
    /// Observation windows the trace spanned.
    windows: usize,
    /// Autoscaler activations.
    scale_ups: usize,
    /// Autoscaler deactivations.
    scale_downs: usize,
    /// Active devices per window, in window order.
    pool_trace: Vec<usize>,
    /// Mean active devices per window.
    mean_pool_devices: f64,
    /// Peak active devices.
    max_pool_devices: usize,
    /// Autoscaled provisioned watt-seconds per admitted solve.
    cost_per_solve_watt_seconds: Option<f64>,
    /// Final drift-corrector factor of the autoscaled run.
    drift_correction: f64,
    /// Requests the static full pool admitted.
    static_admitted: usize,
    /// Requests the static full pool rejected.
    static_rejected: usize,
    /// Static-pool p99 latency.
    static_p99_latency_seconds: Option<f64>,
    /// Static-pool provisioned watt-seconds per admitted solve.
    static_cost_per_solve_watt_seconds: Option<f64>,
}

/// The persisted benchmark.
#[derive(Debug, Clone, Serialize)]
struct LiveBenchReport {
    degree: usize,
    elements_per_side: usize,
    /// Trace length in probed single-request sessions.
    horizon_units: usize,
    /// Workload seed (arrival times and right-hand sides).
    seed: u64,
    /// Modelled seconds of one single-request session on the cheapest
    /// candidate — the unit every rate and deadline is expressed in.
    probe_session_seconds: f64,
    /// The p99 SLO every autoscaled row is asserted against.
    slo_seconds: f64,
    /// The (tighter) arrival-relative deadline admission prices against.
    admission_deadline_seconds: f64,
    /// Candidate pool labels, in pool order.
    pool: Vec<String>,
    /// Candidate TDP watts, in pool order.
    pool_watts: Vec<f64>,
    rows: Vec<LiveRow>,
}

fn options() -> ServeOptions {
    ServeOptions {
        cg: CgOptions {
            max_iterations: 600,
            tolerance: 1e-10,
            record_history: false,
        },
        max_batch: 4,
        ..ServeOptions::default()
    }
    .with_precond(PrecondSpec::Fdm)
}

/// Modelled seconds of one single-request session on the cheapest
/// candidate: the workload's natural time unit.
fn probe_session_seconds(spec: ProblemSpec) -> f64 {
    let (slots, watts) = Autoscaler::fpga_candidates();
    let cheapest = (0..slots.len())
        .min_by(|&a, &b| watts[a].total_cmp(&watts[b]))
        .expect("non-empty candidate pool");
    let mut server = Server::new(vec![slots[cheapest].clone()], options());
    let stream =
        ArrivalStream::from_workload(WorkloadKind::Poisson { rate_rps: 1.0 }, 1, 1.5, spec);
    assert!(!stream.is_empty(), "probe trace must contain an arrival");
    let generous = LiveOptions {
        deadline_seconds: 1e9,
        batch_window_seconds: 0.0,
        window_seconds: 1e9,
        down_batch: false,
        ..LiveOptions::default()
    };
    let report = server.serve_stream(&stream, &generous, None);
    let session = report.outcomes[0].completed_seconds - report.outcomes[0].started_seconds;
    assert!(session > 0.0);
    session
}

#[allow(clippy::too_many_lines)]
fn run_row(
    label: &str,
    kind: WorkloadKind,
    seed: u64,
    horizon_seconds: f64,
    spec: ProblemSpec,
    live: &LiveOptions,
    slo_seconds: f64,
) -> LiveRow {
    let stream = ArrivalStream::from_workload(kind, seed, horizon_seconds, spec);
    let (slots, watts) = Autoscaler::fpga_candidates();

    let mut autoscaled_server = Server::new(slots.clone(), options());
    let mut scaler = Autoscaler::new(
        AutoscalerPolicy::with_deadline(live.deadline_seconds),
        autoscaled_server.slots(),
        watts.clone(),
    );
    let autoscaled = autoscaled_server.serve_stream(&stream, live, Some(&mut scaler));

    let mut static_server = Server::new(slots, options());
    let fixed = static_server.serve_stream(&stream, live, None);
    // No fault is injected, so every answer must verify on its first
    // attempt: a retry here would be a spurious detection.
    for report in [&autoscaled, &fixed] {
        assert!(
            report.fault_events.is_empty() && report.unserved.is_empty(),
            "{label}: a fault-free live run recorded a fault"
        );
    }

    let p99 = autoscaled.latency_percentile_seconds(99.0);
    LiveRow {
        workload: label.to_string(),
        offered_rps: kind.mean_rate_rps(),
        requests: stream.len(),
        admitted: autoscaled.admitted(),
        rejected: autoscaled.rejected(),
        p50_latency_seconds: autoscaled.latency_percentile_seconds(50.0),
        p99_latency_seconds: p99,
        deadline_held: p99.is_none_or(|p| p <= slo_seconds),
        windows: autoscaled.windows.len(),
        scale_ups: autoscaled
            .scale_events
            .iter()
            .filter(|e| e.direction == ScaleDirection::Up)
            .count(),
        scale_downs: autoscaled
            .scale_events
            .iter()
            .filter(|e| e.direction == ScaleDirection::Down)
            .count(),
        pool_trace: autoscaled.active_trace.iter().map(Vec::len).collect(),
        mean_pool_devices: autoscaled.mean_active_devices(),
        max_pool_devices: autoscaled.max_active_devices(),
        cost_per_solve_watt_seconds: autoscaled.cost_per_solve_watt_seconds(&watts),
        drift_correction: autoscaled.drift_correction,
        static_admitted: fixed.admitted(),
        static_rejected: fixed.rejected(),
        static_p99_latency_seconds: fixed.latency_percentile_seconds(99.0),
        static_cost_per_solve_watt_seconds: fixed.cost_per_solve_watt_seconds(&watts),
    }
}

fn fmt_opt(value: Option<f64>, scale: f64, decimals: usize) -> String {
    value.map_or_else(|| "-".to_string(), |v| fmt(v * scale, decimals))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let degree: usize = positional.first().and_then(|s| s.parse().ok()).unwrap_or(7);
    let per_side: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let horizon_units: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(60);
    let seed: u64 = positional.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);

    let spec = ProblemSpec::cube(degree, per_side);
    let unit = probe_session_seconds(spec);
    let horizon = horizon_units as f64 * unit;
    // Admission prices against *predicted* latency; actuals can land a few
    // percent over while the drift corrector converges, so the admission
    // threshold keeps headroom below the p99 SLO the report asserts.
    let slo = 6.0 * unit;
    let live = LiveOptions {
        deadline_seconds: 0.92 * slo,
        batch_window_seconds: 0.1 * unit,
        window_seconds: 8.0 * unit,
        down_batch: true,
        ..LiveOptions::default()
    };
    println!(
        "Live serving: N = {degree}, {per_side}x{per_side}x{per_side} elements, \
         probe session {:.3} ms, p99 SLO {:.3} ms (admission at {:.3} ms), \
         horizon {horizon_units} units, seed {seed}\n",
        unit * 1e3,
        slo * 1e3,
        live.deadline_seconds * 1e3
    );

    // The ramp in units of one device's service rate (1/unit), plus a
    // bursty and a diurnal trace around the middle of the ramp.
    let service_rate = 1.0 / unit;
    let mut specs: Vec<(String, WorkloadKind)> = [0.5, 1.5, 3.0]
        .iter()
        .map(|&x| {
            (
                format!("poisson@{x}x"),
                WorkloadKind::Poisson {
                    rate_rps: x * service_rate,
                },
            )
        })
        .collect();
    specs.push((
        "bursty".to_string(),
        WorkloadKind::Bursty {
            base_rps: 0.5 * service_rate,
            burst_rps: 3.0 * service_rate,
            period_seconds: horizon / 4.0,
            burst_fraction: 0.25,
        },
    ));
    specs.push((
        "diurnal".to_string(),
        WorkloadKind::Diurnal {
            mean_rps: 1.5 * service_rate,
            amplitude: 0.8,
            period_seconds: horizon / 2.0,
        },
    ));

    let mut table = TableWriter::new(vec![
        "workload",
        "req",
        "adm",
        "rej",
        "p99 (ms)",
        "held",
        "pool mean/max",
        "ups/downs",
        "W·s/solve",
        "static W·s/solve",
    ]);
    let mut rows = Vec::new();
    for (label, kind) in &specs {
        let row = run_row(label, *kind, seed, horizon, spec, &live, slo);
        table.row(vec![
            row.workload.clone(),
            row.requests.to_string(),
            row.admitted.to_string(),
            row.rejected.to_string(),
            fmt_opt(row.p99_latency_seconds, 1e3, 3),
            row.deadline_held.to_string(),
            format!("{:.2}/{}", row.mean_pool_devices, row.max_pool_devices),
            format!("{}/{}", row.scale_ups, row.scale_downs),
            fmt_opt(row.cost_per_solve_watt_seconds, 1.0, 2),
            fmt_opt(row.static_cost_per_solve_watt_seconds, 1.0, 2),
        ]);
        rows.push(row);
    }
    table.print();

    // Acceptance: the deadline holds on every autoscaled row, and
    // elasticity beats the largest static pool on cost-per-solve wherever
    // both runs admitted work.
    for row in &rows {
        assert!(row.admitted > 0, "{}: nothing admitted", row.workload);
        assert!(
            row.deadline_held,
            "{}: autoscaled p99 {:?} overshot the SLO {slo}",
            row.workload, row.p99_latency_seconds
        );
        let (Some(elastic), Some(fixed)) = (
            row.cost_per_solve_watt_seconds,
            row.static_cost_per_solve_watt_seconds,
        ) else {
            panic!("{}: a run admitted nothing", row.workload);
        };
        assert!(
            elastic < fixed,
            "{}: autoscaled cost {elastic} must undercut the static pool {fixed}",
            row.workload
        );
    }
    let ups: usize = rows.iter().map(|r| r.scale_ups).sum();
    let downs: usize = rows.iter().map(|r| r.scale_downs).sum();
    assert!(ups > 0, "the ramp must trigger scale-ups");
    println!("\nacceptance held: p99 under deadline on every row, elastic cost < static cost ({ups} ups, {downs} downs).");

    let (slots, watts) = Autoscaler::fpga_candidates();
    let report = LiveBenchReport {
        degree,
        elements_per_side: per_side,
        horizon_units,
        seed,
        probe_session_seconds: unit,
        slo_seconds: slo,
        admission_deadline_seconds: live.deadline_seconds,
        pool: slots.into_iter().map(|slot| slot.label).collect(),
        pool_watts: watts,
        rows,
    };
    let json = serde::json::to_string(&report);
    std::fs::write("BENCH_live.json", &json).expect("write BENCH_live.json");
    println!("wrote BENCH_live.json");
}
