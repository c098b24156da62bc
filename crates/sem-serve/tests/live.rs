//! Live-traffic serving invariants: answer identity between the streaming
//! hosts and the closed-batch path, seed determinism of open-loop runs,
//! the no-fabricated-percentile rule under total overload, and the
//! autoscaler's grow-under-load / shrink-when-it-fades / hold-without-
//! evidence behaviour.
//!
//! Timing-discipline note: every comparative assertion is on *modelled*
//! seconds (arrival stamps, predicted and simulated session times); the
//! suite is deterministic under any CI load.

use perf_model::WorkloadKind;
use sem_serve::autoscaler::{Autoscaler, AutoscalerPolicy, ScaleDirection};
use sem_serve::{
    ArrivalStream, LiveOptions, ProblemSpec, RejectionReason, ServeOptions, ServeRequest, Server,
    TimedRequest,
};
use sem_solver::CgOptions;

fn options(max_batch: usize) -> ServeOptions {
    ServeOptions {
        cg: CgOptions {
            max_iterations: 1000,
            tolerance: 1e-10,
            record_history: false,
        },
        max_batch,
        ..ServeOptions::default()
    }
}

/// An explicit trace: `n` seeded requests of one shape, `gap` seconds apart.
fn paced_stream(spec: ProblemSpec, n: usize, gap: f64) -> ArrivalStream {
    ArrivalStream::new(
        (0..n)
            .map(|i| TimedRequest {
                arrival_seconds: i as f64 * gap,
                request: ServeRequest::seeded(spec, i as u64),
            })
            .collect(),
    )
}

fn generous() -> LiveOptions {
    LiveOptions {
        deadline_seconds: 1e6,
        batch_window_seconds: 0.5,
        window_seconds: 2.0,
        down_batch: true,
        ..LiveOptions::default()
    }
}

#[test]
fn streaming_arrivals_answer_identical_to_the_closed_batch_path() {
    // The tentpole contract: on a homogeneous pool, the same admitted set
    // produces bitwise-identical solution vectors whether requests arrive
    // all at once (a closed set, batched as deep as `max_batch` allows),
    // stream through the synchronous executor, or ride the live feeder into
    // the work-stealing pool.
    let spec = ProblemSpec::cube(3, 2);
    let names = ["cpu:optimized", "cpu:optimized"];
    let stream = paced_stream(spec, 8, 0.3);
    let requests: Vec<ServeRequest> = stream.arrivals().iter().map(|t| t.request).collect();

    let admit_all = LiveOptions {
        deadline_seconds: f64::INFINITY,
        ..generous()
    };
    let closed = Server::from_registry_names(&names, options(4)).serve_stream(
        &ArrivalStream::closed(&requests),
        &admit_all,
        None,
    );
    let sync =
        Server::from_registry_names(&names, options(4)).serve_stream(&stream, &generous(), None);
    let streamed = Server::from_registry_names(&names, options(4)).serve_stream_async(
        &stream,
        &generous(),
        None,
    );

    assert_eq!(closed.admitted(), 8);
    assert!(
        closed.outcomes.iter().all(|o| o.batch == 4),
        "closed sets batch deep"
    );
    assert_eq!(sync.admitted(), 8);
    assert_eq!(streamed.admitted(), 8);
    assert!(sync.rejections.is_empty() && streamed.rejections.is_empty());
    for ((batch, live_sync), live_async) in closed
        .outcomes
        .iter()
        .zip(&sync.outcomes)
        .zip(&streamed.outcomes)
    {
        assert_eq!(batch.request, live_sync.request);
        assert_eq!(batch.request, live_async.request);
        assert_eq!(
            batch.solution.as_slice(),
            live_sync.solution.as_slice(),
            "request {} diverged on the reference host",
            batch.request
        );
        assert_eq!(
            batch.solution.as_slice(),
            live_async.solution.as_slice(),
            "request {} diverged on the streaming host",
            batch.request
        );
        assert_eq!(batch.iterations, live_async.iterations);
    }
    // Measured cpu sessions are this pool's own clock, so they re-price
    // later admissions like modelled ones do.
    assert_ne!(sync.drift_correction, 1.0, "a cpu-only pool learns drift");
    // Latency accounting stays arrival-relative and ordered.
    for outcome in &sync.outcomes {
        assert!(outcome.latency_seconds() >= 0.0);
        assert!(outcome.completed_seconds >= outcome.started_seconds);
        assert!(outcome.started_seconds >= outcome.arrival_seconds - 1e-12);
    }
}

#[test]
fn seeded_open_loop_runs_are_deterministic() {
    let spec = ProblemSpec::cube(3, 2);
    let kind = WorkloadKind::Poisson { rate_rps: 2.0 };
    let stream_a = ArrivalStream::from_workload(kind, 0x00C0_FFEE, 6.0, spec);
    let stream_b = ArrivalStream::from_workload(kind, 0x00C0_FFEE, 6.0, spec);
    assert_eq!(stream_a.len(), stream_b.len());
    for (a, b) in stream_a.arrivals().iter().zip(stream_b.arrivals()) {
        assert_eq!(a.arrival_seconds.to_bits(), b.arrival_seconds.to_bits());
        assert_eq!(a.request, b.request);
    }

    // Bitwise determinism needs an all-simulated pool: CPU backends re-time
    // every run, the cycle model prices every run identically.
    let live = LiveOptions {
        deadline_seconds: 3.0,
        ..generous()
    };
    let run = |stream: &ArrivalStream| {
        Server::from_registry_names(&["fpga:stratix10-gx2800"], options(4))
            .serve_stream(stream, &live, None)
    };
    let first = run(&stream_a);
    let second = run(&stream_b);
    assert_eq!(first.admitted(), second.admitted());
    assert_eq!(first.rejected(), second.rejected());
    assert_eq!(first.windows.len(), second.windows.len());
    assert_eq!(
        first.drift_correction.to_bits(),
        second.drift_correction.to_bits()
    );
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.request, b.request);
        assert_eq!(a.device, b.device);
        assert_eq!(a.completed_seconds.to_bits(), b.completed_seconds.to_bits());
        assert_eq!(a.solution.as_slice(), b.solution.as_slice());
    }
}

#[test]
fn total_overload_rejects_everything_without_fabricating_a_tail() {
    // An impossible deadline: every request is rejected, so no latency
    // evidence exists anywhere — the report and every window must say
    // `None`, never a fabricated 0.0 (the old percentile bug read exactly
    // this situation as a perfect tail and a scale-down signal).
    let spec = ProblemSpec::cube(3, 2);
    let stream = paced_stream(spec, 6, 0.2);
    let live = LiveOptions {
        deadline_seconds: 1e-12,
        ..generous()
    };
    let mut server = Server::from_registry_names(&["cpu:optimized"], options(4));
    let report = server.serve_stream(&stream, &live, None);
    assert_eq!(report.admitted(), 0);
    assert_eq!(report.rejected(), 6);
    assert_eq!(report.latency_percentile_seconds(99.0), None);
    assert!(!report.windows.is_empty());
    for window in &report.windows {
        assert_eq!(window.p99_latency_seconds, None);
    }
    for rejection in &report.rejections {
        assert_eq!(rejection.reason, RejectionReason::Deadline);
        assert!(rejection.predicted_latency_seconds > rejection.deadline_seconds);
    }
}

#[test]
fn invalid_specs_are_rejected_with_their_reason_while_valid_ones_are_answered() {
    // A zero degree or a zero element count cannot be meshed.  Such a
    // request used to reach the mesh's asserts and take the whole call's
    // answers down with it; now it is a typed rejection on both executors.
    let specs = [
        ProblemSpec::cube(3, 2),
        ProblemSpec::cube(0, 2),
        ProblemSpec {
            degree: 3,
            elements: [2, 0, 2],
        },
    ];
    let stream = ArrivalStream::new(
        (0..9)
            .map(|i| TimedRequest {
                arrival_seconds: i as f64 * 0.1,
                request: ServeRequest::seeded(specs[i % 3], i as u64),
            })
            .collect(),
    );
    for asynchronous in [false, true] {
        let mut server = Server::from_registry_names(&["fpga:stratix10-gx2800"], options(4));
        let report = if asynchronous {
            server.serve_stream_async(&stream, &generous(), None)
        } else {
            server.serve_stream(&stream, &generous(), None)
        };
        let answered: Vec<usize> = report.outcomes.iter().map(|o| o.request).collect();
        assert_eq!(answered, [0, 3, 6], "async {asynchronous}");
        let rejected: Vec<_> = report
            .rejections
            .iter()
            .map(|r| (r.request, r.reason))
            .collect();
        let invalid = [1, 2, 4, 5, 7, 8].map(|i| (i, RejectionReason::InvalidSpec));
        assert_eq!(rejected, invalid, "async {asynchronous}");
    }
}

#[test]
fn overflowing_specs_are_rejected_while_valid_ones_are_answered() {
    // `(degree + 1)³ · ex · ey · ez` overflows `usize` for both bad specs.
    // Meshing computes exactly that, so an unchecked spec would panic the
    // whole call: both executors must reject it with its reason.
    let specs = [
        ProblemSpec::cube(3, 2),
        ProblemSpec {
            degree: usize::MAX,
            elements: [1, 1, 1],
        },
        ProblemSpec {
            degree: 3,
            elements: [usize::MAX, 2, 1],
        },
    ];
    let stream = ArrivalStream::new(
        (0..6)
            .map(|i| TimedRequest {
                arrival_seconds: i as f64 * 0.1,
                request: ServeRequest::seeded(specs[i % 3], i as u64),
            })
            .collect(),
    );
    for asynchronous in [false, true] {
        let mut server = Server::from_registry_names(&["fpga:stratix10-gx2800"], options(4));
        let report = if asynchronous {
            server.serve_stream_async(&stream, &generous(), None)
        } else {
            server.serve_stream(&stream, &generous(), None)
        };
        let answered: Vec<usize> = report.outcomes.iter().map(|o| o.request).collect();
        assert_eq!(answered, [0, 3], "async {asynchronous}");
        let rejected: Vec<_> = report
            .rejections
            .iter()
            .map(|r| (r.request, r.reason))
            .collect();
        let invalid = [1, 2, 4, 5].map(|i| (i, RejectionReason::InvalidSpec));
        assert_eq!(rejected, invalid, "async {asynchronous}");
    }
}

#[test]
fn the_autoscaler_grows_under_load_shrinks_after_it_and_holds_when_idle() {
    // Self-calibrating: probe the modelled latency of one single-request
    // job on the (simulated, hence deterministic) device, then shape a
    // burst that overloads one device and a sparse tail that does not.
    let spec = ProblemSpec::cube(3, 2);
    let names = [
        "fpga:stratix10-gx2800",
        "fpga:stratix10-gx2800",
        "fpga:stratix10-gx2800",
    ];
    let probe = Server::from_registry_names(&names[..1], options(1)).serve_stream(
        &paced_stream(spec, 1, 1.0),
        &generous(),
        None,
    );
    let l = probe.outcomes[0].latency_seconds();
    assert!(l > 0.0);

    // Burst: arrivals 4x faster than one device can serve; tail: one
    // request every ~8 windows' worth of slack, keeping virtual time
    // moving so the post-burst windows close.
    let mut arrivals: Vec<TimedRequest> = (0..24)
        .map(|i| TimedRequest {
            arrival_seconds: i as f64 * 0.25 * l,
            request: ServeRequest::seeded(spec, i as u64),
        })
        .collect();
    arrivals.extend((0..6).map(|i| TimedRequest {
        arrival_seconds: (12.0 + i as f64 * 8.0) * l,
        request: ServeRequest::seeded(spec, 100 + i as u64),
    }));
    let stream = ArrivalStream::new(arrivals);

    let mut server = Server::from_registry_names(&names, options(2));
    let watts = vec![100.0, 150.0, 200.0];
    let deadline = 4.0 * l;
    let mut scaler = Autoscaler::new(
        AutoscalerPolicy::with_deadline(deadline),
        server.slots(),
        watts.clone(),
    );
    let live = LiveOptions {
        deadline_seconds: deadline,
        batch_window_seconds: 0.01 * l,
        window_seconds: 6.0 * l,
        down_batch: true,
        ..LiveOptions::default()
    };
    let report = server.serve_stream(&stream, &live, Some(&mut scaler));

    assert_eq!(report.windows.len(), report.active_trace.len());
    let ups = report
        .scale_events
        .iter()
        .filter(|e| e.direction == ScaleDirection::Up)
        .count();
    let downs = report
        .scale_events
        .iter()
        .filter(|e| e.direction == ScaleDirection::Down)
        .count();
    assert!(
        ups > 0,
        "the burst must grow the pool: {:?}",
        report.scale_events
    );
    assert!(
        downs > 0,
        "the idle tail must shrink it: {:?}",
        report.scale_events
    );
    assert!(report.max_active_devices() > 1);
    assert_eq!(
        report.active_trace.last().map(Vec::len),
        Some(1),
        "the tail settles back to min_devices"
    );
    // Elasticity is the point: the traced provisioning must cost less than
    // keeping the largest pool up for the whole run.
    let elastic = report.provisioned_watt_seconds(&watts);
    let static_full =
        watts.iter().sum::<f64>() * report.window_seconds * report.windows.len() as f64;
    assert!(elastic < static_full, "{elastic} vs {static_full}");
}

#[test]
fn an_fpga_catalogue_pool_serves_a_live_trace_end_to_end() {
    // The heterogeneous story: the full arch-db candidate pool (real
    // boards plus projected devices) behind the live host, scaled by TDP.
    let (slots, watts) = Autoscaler::fpga_candidates();
    let spec = ProblemSpec::cube(7, 2);
    let mut server = Server::new(slots, options(4));
    let mut scaler = Autoscaler::new(
        AutoscalerPolicy::with_deadline(0.5),
        server.slots(),
        watts.clone(),
    );
    let stream =
        ArrivalStream::from_workload(WorkloadKind::Poisson { rate_rps: 4.0 }, 7, 4.0, spec);
    let live = LiveOptions {
        deadline_seconds: 0.5,
        batch_window_seconds: 0.1,
        window_seconds: 1.0,
        down_batch: true,
        ..LiveOptions::default()
    };
    let report = server.serve_stream(&stream, &live, Some(&mut scaler));
    assert_eq!(report.admitted() + report.rejected(), stream.len());
    assert!(
        report.admitted() > 0,
        "a catalogue pool must admit something"
    );
    if let Some(p99) = report.latency_percentile_seconds(99.0) {
        assert!(p99 > 0.0);
    }
    assert!(report.cost_per_solve_watt_seconds(&watts).is_some());
}
