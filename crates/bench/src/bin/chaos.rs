//! Chaos battery: the fault-tolerant streaming host under seeded fault
//! plans, with recovery quality asserted as hard acceptance figures.
//!
//! There is one fault-tolerant streaming host with two executors
//! (`Server::serve_stream` and `Server::serve_stream_async`); this battery
//! drives the synchronous one, whose modelled clock makes every figure
//! replayable.  The request set is a closed stream (every arrival at
//! t = 0, no deadline), so admission packs it exactly like a batch serve.
//!
//! Four scenarios serve the same seeded request set on the same pool —
//! three identical FPGA boards plus a `cpu:optimized` degradation reserve:
//!
//! * **fault-free** — no injection; the baseline every other row's latency
//!   and solution bits are compared against;
//! * **committed-battery** — an explicit fault trace: three transient
//!   bit-flips and a hang on device 0, a hard death on device 1, plus a
//!   seeded plan on device 2.  The committed artifact's headline row;
//! * **seeded-storm** — independent seeded plans (transients, sticky
//!   slowdowns, hangs — never deaths) on every accelerator;
//! * **sticky-slowdown** — one 32× sticky slowdown, detected through the
//!   modeled-time timeout budget.
//!
//! Acceptance, asserted on every faulted row: **every request completes
//! verified** (zero unserved, residual re-checked on the trusted host
//! operator), the released answers are **bitwise identical** to the
//! fault-free run (all retries land on equivalent accelerators — the cpu
//! reserve is never needed), p99 latency inflation stays under
//! [`P99_INFLATION_BOUND`], and a **replay is bitwise deterministic**
//! (every scenario is served twice and the summaries must serialize
//! identically).  The battery row must additionally detect at least three
//! corruptions, one death and one hang — the committed fault trace the
//! roadmap's acceptance gate names.
//!
//! Everything is modeled time (the host holds `cpu:*` slots of a mixed
//! pool out of normal placement), so `BENCH_chaos.json` is bitwise
//! reproducible under the fixed seed on any host.
//!
//! Run with `cargo run --release -p bench --bin chaos -- [degree] [per_side] [requests] [seed]`
//! (defaults `4 2 24 42`, which is also what CI's smoke step and the
//! committed `BENCH_chaos.json` use).

use bench::table::{fmt, TableWriter};
use fpga_sim::{FaultKind, FaultPlan, ScheduledFault};
use sem_serve::{
    ArrivalStream, ChaosSummary, LiveOptions, LiveReport, ProblemSpec, ServeOptions, ServeRequest,
    Server,
};
use serde::Serialize;

/// The accelerator every scenario serves on (three identical boards, so
/// retries land on equivalent backends and bits must not drift).
const FPGA: &str = "fpga:stratix10-gx2800";

/// Hard ceiling on p99 latency inflation of any faulted scenario over the
/// fault-free baseline: retries, backoff waits and quarantine reroutes may
/// stretch the tail, but recovery must stay the same order of magnitude as
/// clean service.
const P99_INFLATION_BOUND: f64 = 5.0;

/// One scenario of the battery.
#[derive(Debug, Clone, Serialize)]
struct ChaosRow {
    /// Scenario label.
    scenario: String,
    /// Faults scheduled across the pool (seeded plans count their drawn
    /// faults).
    injected_faults: usize,
    /// The host's fault aggregate for this scenario.
    summary: ChaosSummary,
    /// p99 latency of this row over the fault-free baseline's (`None` on
    /// the baseline row itself).
    p99_inflation: Option<f64>,
    /// Whether every released solution matched the fault-free run bit for
    /// bit.
    bitwise_identical_to_baseline: bool,
}

/// The persisted benchmark.
#[derive(Debug, Clone, Serialize)]
struct ChaosBenchReport {
    degree: usize,
    elements_per_side: usize,
    requests: usize,
    /// Request/fault seed.
    seed: u64,
    /// Pool labels, in slot order (the last slot is the cpu reserve).
    pool: Vec<String>,
    max_batch: usize,
    /// Modeled-timeout budget factor of the recovery policy.
    timeout_factor: f64,
    /// Retry ceiling before a job pins to the fallback device.
    max_retries: usize,
    /// The asserted p99-inflation ceiling.
    p99_inflation_bound: f64,
    rows: Vec<ChaosRow>,
}

fn options() -> ServeOptions {
    ServeOptions {
        max_batch: 2,
        ..ServeOptions::default()
    }
}

/// Serve `requests` with `plans` armed, twice, asserting the replay is
/// bitwise deterministic; returns the first run's report.
fn serve_scenario(
    requests: &[ServeRequest],
    plans: &[(usize, FaultPlan)],
    live: &LiveOptions,
) -> LiveReport {
    let stream = ArrivalStream::closed(requests);
    let serve_once = || {
        let mut server =
            Server::from_registry_names(&[FPGA, FPGA, FPGA, "cpu:optimized"], options());
        for (device, plan) in plans {
            server.inject_faults(*device, plan.clone());
        }
        server.serve_stream(&stream, live, None)
    };
    let first = serve_once();
    let replay = serve_once();
    assert_eq!(
        serde::json::to_string(&first.chaos_summary()),
        serde::json::to_string(&replay.chaos_summary()),
        "a chaos serve must replay bitwise under a fixed fault plan"
    );
    first
}

/// Whether every outcome of `report` matches the baseline bit for bit.
fn bitwise_identical(baseline: &LiveReport, report: &LiveReport) -> bool {
    baseline.outcomes.len() == report.outcomes.len()
        && baseline
            .outcomes
            .iter()
            .zip(&report.outcomes)
            .all(|(a, b)| a.request == b.request && a.solution.as_slice() == b.solution.as_slice())
}

/// Count of faults a plan schedules, by detection label, for the table.
fn reason_count(summary: &ChaosSummary, label: &str) -> usize {
    summary
        .faults_by_reason
        .iter()
        .find(|(reason, _)| reason == label)
        .map_or(0, |(_, count)| *count)
}

fn fmt_opt(value: Option<f64>, scale: f64, decimals: usize) -> String {
    value.map_or_else(|| "-".to_string(), |v| fmt(v * scale, decimals))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let degree: usize = positional.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let per_side: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let request_count: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(24);
    let seed: u64 = positional.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);

    let spec = ProblemSpec::cube(degree, per_side);
    let requests: Vec<ServeRequest> = (0..request_count)
        .map(|i| ServeRequest::seeded(spec, seed.wrapping_add(i as u64)))
        .collect();
    // No deadline: the battery measures recovery, not admission.
    let live = LiveOptions {
        deadline_seconds: f64::INFINITY,
        ..LiveOptions::default()
    };
    println!(
        "Chaos battery: N = {degree}, {per_side}x{per_side}x{per_side} elements, \
         {request_count} requests, seed {seed}, pool 3x {FPGA} + cpu reserve\n"
    );

    // The committed fault trace: >= 3 transients, >= 1 hang, >= 1 death,
    // plus a seeded plan — the mix the acceptance gate names.
    let battery_plans = vec![
        (
            0,
            FaultPlan::new(vec![
                ScheduledFault {
                    at_op: 3,
                    kind: FaultKind::Transient,
                },
                ScheduledFault {
                    at_op: 30,
                    kind: FaultKind::Transient,
                },
                ScheduledFault {
                    at_op: 70,
                    kind: FaultKind::Transient,
                },
                ScheduledFault {
                    at_op: 110,
                    kind: FaultKind::Hang,
                },
            ]),
        ),
        (
            1,
            FaultPlan::new(vec![ScheduledFault {
                at_op: 25,
                kind: FaultKind::Death,
            }]),
        ),
        (2, FaultPlan::seeded(seed, 2, 400)),
    ];
    let storm_plans: Vec<(usize, FaultPlan)> = (0..3)
        .map(|device| {
            (
                device,
                FaultPlan::seeded(seed.wrapping_add(1000 + device as u64), 3, 600),
            )
        })
        .collect();
    let slowdown_plans = vec![(
        0,
        FaultPlan::new(vec![ScheduledFault {
            at_op: 10,
            kind: FaultKind::Slowdown { factor: 32.0 },
        }]),
    )];

    let scenarios: Vec<(&str, Vec<(usize, FaultPlan)>)> = vec![
        ("fault-free", Vec::new()),
        ("committed-battery", battery_plans),
        ("seeded-storm", storm_plans),
        ("sticky-slowdown", slowdown_plans),
    ];

    let mut table = TableWriter::new(vec![
        "scenario",
        "req",
        "done",
        "retries",
        "corrupt/death/hang/timeout",
        "probes",
        "quarantines",
        "p99 (ms)",
        "inflation",
    ]);
    let mut baseline: Option<LiveReport> = None;
    let mut rows = Vec::new();
    for (label, plans) in &scenarios {
        let report = serve_scenario(&requests, plans, &live);
        let summary = report.chaos_summary();
        let injected_faults: usize = plans.iter().map(|(_, plan)| plan.faults().len()).sum();
        let p99_inflation = baseline.as_ref().and_then(|base| {
            let base_p99 = base.latency_percentile_seconds(99.0)?;
            let p99 = report.latency_percentile_seconds(99.0)?;
            Some(p99 / base_p99)
        });
        let bitwise = baseline
            .as_ref()
            .is_none_or(|base| bitwise_identical(base, &report));
        table.row(vec![
            (*label).to_string(),
            summary.requests.to_string(),
            summary.completed.to_string(),
            summary.retries_total.to_string(),
            format!(
                "{}/{}/{}/{}",
                reason_count(&summary, "corrupt"),
                reason_count(&summary, "death"),
                reason_count(&summary, "hang"),
                reason_count(&summary, "timeout"),
            ),
            summary.probes.to_string(),
            summary.quarantines_total.to_string(),
            fmt_opt(summary.p99_latency_seconds, 1e3, 3),
            fmt_opt(p99_inflation, 1.0, 2),
        ]);
        rows.push(ChaosRow {
            scenario: (*label).to_string(),
            injected_faults,
            summary,
            p99_inflation,
            bitwise_identical_to_baseline: bitwise,
        });
        if baseline.is_none() {
            baseline = Some(report);
        }
    }
    table.print();

    // Acceptance.  Every scenario completes every admitted request with a
    // verified residual; nothing is ever lost or silently dropped.
    for row in &rows {
        assert_eq!(
            row.summary.completed, request_count,
            "{}: every admitted request must eventually complete verified",
            row.scenario
        );
        assert_eq!(
            row.summary.unserved, 0,
            "{}: no job may be lost",
            row.scenario
        );
        // Retries all land on equivalent accelerators, so released bits
        // must match the fault-free run exactly.
        assert_eq!(
            row.summary.fallback_jobs, 0,
            "{}: the cpu reserve must not be needed at this fault density",
            row.scenario
        );
        assert!(
            row.bitwise_identical_to_baseline,
            "{}: released answers drifted from the fault-free run",
            row.scenario
        );
        if let Some(inflation) = row.p99_inflation {
            assert!(
                inflation <= P99_INFLATION_BOUND,
                "{}: p99 inflated {inflation:.2}x over the fault-free run \
                 (bound {P99_INFLATION_BOUND})",
                row.scenario
            );
        }
    }
    // The committed battery row must carry the full fault mix.  The mix is
    // a property of the committed invocation: at other sizes/seeds a job
    // can consume a transient and the hang in one session, and the hang
    // outranks the corruption in the reported reason.
    let committed_invocation = degree == 4 && per_side == 2 && request_count == 24 && seed == 42;
    assert_eq!(
        rows[0].summary.retries_total, 0,
        "the fault-free baseline must verify every answer on its first attempt"
    );
    let battery = &rows[1];
    if committed_invocation {
        assert!(
            reason_count(&battery.summary, "corrupt") >= 3,
            "battery must detect >= 3 transient corruptions"
        );
        assert!(
            reason_count(&battery.summary, "death") >= 1,
            "battery must detect the device death"
        );
        assert!(
            reason_count(&battery.summary, "hang") >= 1,
            "battery must detect the hang"
        );
        assert!(
            battery.summary.quarantines_total >= 1,
            "the dead device must be quarantined"
        );
        assert!(
            battery.summary.recovered_requests >= 1,
            "some requests must complete after a failed attempt"
        );
    }
    assert!(
        battery.summary.retries_total >= 1,
        "the battery must observe at least one failed attempt"
    );
    let slowdown = &rows[3];
    assert!(
        reason_count(&slowdown.summary, "timeout") >= 1,
        "the sticky slowdown must blow the modeled timeout budget"
    );
    println!(
        "\nacceptance held: 100% verified completion, bitwise-identical answers, \
         p99 inflation <= {P99_INFLATION_BOUND}x, replays deterministic."
    );

    let report = ChaosBenchReport {
        degree,
        elements_per_side: per_side,
        requests: request_count,
        seed,
        pool: vec![
            FPGA.to_string(),
            FPGA.to_string(),
            FPGA.to_string(),
            "cpu:optimized".to_string(),
        ],
        max_batch: options().max_batch,
        timeout_factor: live.fault.timeout_factor,
        max_retries: live.fault.max_retries,
        p99_inflation_bound: P99_INFLATION_BOUND,
        rows,
    };
    let json = serde::json::to_string(&report);
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");
}
