//! `codon-batch-pool`: a codon selection scan. One in-process caller
//! submits `SessionRequest`s to a one-worker pool pinned to the SSE CPU
//! back-end; the worker's spec prefers deferred execution (queue) and is
//! checkpointed. One caller and one worker keep a single core busy, so
//! another process on the host's second core does not slow the run.
//!
//! The requests are built before timing from a seeded grid of
//! (kappa, omega) points. The pruning oracle costs about 0.2 s per point on
//! the paper's shape, so the grid has [`GRID_POINTS`] points and the run
//! cycles through them; the worker's consecutive sessions always carry
//! different models, so memo and the eigen cache can skip nothing (the
//! traced run reports both skip rates).
//! Every result is checked against its point's oracle value.

use std::sync::Arc;
use std::time::Instant;

use beagle_core::pool::DEFAULT_QUEUE_CAPACITY;
use beagle_core::{
    BeagleInstance, BufferId, Flags, ImplementationManager, InstancePool, InstanceSpec, Lane,
    ManagerSupervisor, Operation, Pool, PoolBuilder, PoolStats, SessionRequest,
};
use beagle_cpu::register_cpu_factories;
use beagle_mcmc::ModelParams;
use beagle_phylo::likelihood::log_likelihood;

use crate::fixture::{self, CodonData};
use crate::layers::{self, KernelShape, LayerValues};
use crate::report::Report;
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Call, Layer, Span, TraceSink};
use crate::{Budget, Phase, Settings, IMPLEMENTATION, SETUP_REPEATS};

const WORKERS: usize = 1;
/// Distinct (kappa, omega) points in the seeded grid.
pub const GRID_POINTS: usize = 32;
/// Relative tolerance against the pruning oracle (f64 back-end).
const TOLERANCE: f64 = 1e-12;
/// Stack id of the caller in the trace.
const CLIENT_STACK: u32 = 100;

fn spec(data: &CodonData) -> InstanceSpec {
    let s = data.shape;
    InstanceSpec::for_tree(s.taxa, s.patterns, s.states, s.categories)
        .prefer(Flags::PRECISION_DOUBLE)
        .queued()
        .checkpointed()
}

/// One self-contained session per grid point.
fn sessions(data: &CodonData) -> Vec<SessionRequest> {
    let tips: Vec<Vec<u32>> = (0..data.shape.taxa)
        .map(|t| data.patterns.tip_states(t))
        .collect();
    let operations: Vec<Operation> = data
        .tree
        .operation_schedule()
        .iter()
        .map(|e| Operation::new(e.destination, e.child1, e.matrix1, e.child2, e.matrix2))
        .collect();
    data.grid
        .iter()
        .map(|&(kappa, omega)| {
            let model = ModelParams::Codon { kappa, omega }.build();
            let eig = model.eigen();
            SessionRequest {
                tip_states: tips.clone(),
                pattern_weights: data.patterns.weights().to_vec(),
                category_rates: data.rates.rates.clone(),
                category_weights: data.rates.weights.clone(),
                frequencies: model.frequencies().to_vec(),
                eigen: Some((
                    eig.vectors.as_slice().to_vec(),
                    eig.inverse_vectors.as_slice().to_vec(),
                    eig.values.clone(),
                )),
                matrices: data.tree.branch_assignments(),
                operations: operations.clone(),
                root: BufferId(data.tree.root()),
                scaled: false,
                deadline: None,
            }
        })
        .collect()
}

/// The pruning oracle for every grid point, on two threads.
fn oracle(data: &CodonData) -> Vec<f64> {
    let mut out = vec![0.0; data.grid.len()];
    let half = out.len().div_ceil(2);
    std::thread::scope(|scope| {
        for (chunk, points) in out.chunks_mut(half).zip(data.grid.chunks(half)) {
            scope.spawn(move || {
                for (slot, &(kappa, omega)) in chunk.iter_mut().zip(points) {
                    let model = ModelParams::Codon { kappa, omega }.build();
                    *slot = log_likelihood(&data.tree, &model, &data.rates, &data.patterns);
                }
            });
        }
    });
    out
}

fn manager() -> Arc<ImplementationManager> {
    let mut m = ImplementationManager::new();
    register_cpu_factories(&mut m);
    Arc::new(m)
}

/// One completed request: grid point, latency and result.
struct Done {
    point: usize,
    latency_ms: f64,
    result: Result<f64, String>,
}

/// Run the closed loop until the budget is spent: the caller, on this
/// thread, submits the next request only when the last one has answered.
fn run_client(
    pool: &InstancePool,
    requests: &[SessionRequest],
    budget: Budget,
    trace: Option<&Arc<TraceSink>>,
) -> (Phase, Vec<Done>) {
    let handle = pool.handle();
    let mut done = Vec::new();
    let start = Instant::now();
    while !budget.done(start.elapsed().as_secs_f64(), done.len()) {
        let point = done.len() % requests.len();
        let session = requests[point].clone();
        let t0 = Instant::now();
        let s0 = trace.map(|s| s.now());
        let result = match handle.submit_session(Lane::Batch, session) {
            Ok(ticket) => match ticket.wait() {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(e.to_string()),
                Err(e) => Err(e.to_string()),
            },
            Err(e) => Err(e.to_string()),
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(sink), Some(s0)) = (trace, s0) {
            sink.record(Span {
                stack: CLIENT_STACK,
                layer: Layer::Client,
                call: Call::Eval,
                start: s0,
                end: sink.now(),
                items: 0,
                value: result.as_ref().map(|v| v.to_bits()).unwrap_or(0),
            });
        }
        done.push(Done {
            point,
            latency_ms,
            result,
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    let latencies_ms: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    let failed = done.iter().filter(|d| d.result.is_err()).count() as u64;
    (
        Phase {
            wall_s,
            attempted: done.len() as u64,
            latencies_ms,
            failed,
            peak_rss_mib: fixture::peak_rss_mib(),
        },
        done,
    )
}

/// Set-up: manager, pool, and one full evaluation per worker.
fn start_pool(
    data: &CodonData,
    requests: &[SessionRequest],
    trace: Option<&Arc<TraceSink>>,
) -> Result<InstancePool, String> {
    let manager = manager();
    let pool = match trace {
        None => PoolBuilder::from_spec(spec(data))
            .workers(WORKERS)
            .pin([IMPLEMENTATION])
            .build(&manager)
            .map_err(|e| format!("build pool: {e}"))?,
        Some(sink) => {
            // PoolBuilder::build, with hand-built traced stacks.
            let spec = spec(data).with_stats();
            let mut workers = Vec::new();
            for w in 0..WORKERS {
                let inst = trace::build_stack(
                    &manager,
                    &spec.clone().named(IMPLEMENTATION),
                    sink,
                    w as u32,
                )
                .map_err(|e| format!("build traced stack: {e}"))?;
                workers.push((inst.details().implementation_name.clone(), inst));
            }
            let supervisor = Arc::new(ManagerSupervisor::new(Arc::clone(&manager), spec));
            Pool::with_supervisor(workers, DEFAULT_QUEUE_CAPACITY, supervisor, true)
        }
    };
    let handle = pool.handle();
    let tickets: Vec<_> = requests
        .iter()
        .take(WORKERS)
        .map(|r| handle.submit_session(Lane::Batch, r.clone()))
        .collect();
    for t in tickets {
        t.map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
    }
    Ok(pool)
}

pub fn run(settings: &Settings, report: &mut Report) -> Result<(), String> {
    let data = fixture::codon(
        settings.seed,
        if settings.tiny { 120 } else { 1500 },
        GRID_POINTS,
    );
    crate::record_shape(report, &data.shape);
    report.fact("model", "GY94 codon, 1 rate category, unscaled");
    report.fact("grid_points", GRID_POINTS);
    report.fact("clients", 1);
    report.fact("workers", WORKERS);
    report.fact(
        "stack",
        "client -> pool (1 worker) -> checkpoint -> rescue -> queue -> memo -> CPU-SSE",
    );
    let requests = sessions(&data);
    let mut expected = oracle(&data);
    if settings.tamper {
        expected[0] *= 1.0 + 1e-9;
    }

    crate::pin(report);
    let t = Instant::now();
    let pool = start_pool(&data, &requests, None)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let (mut phase, done) = run_client(&pool, &requests, settings.untraced(), None);
    let (drained, fleet) = pool.shutdown_drain(None);
    if !drained {
        report.fail_check(1, "pool did not drain".into());
    }
    if fleet.iter().any(|w| w.simulated_time().is_some()) {
        report.fail_check(1, "end-to-end timing would use simulated_time()".into());
    }
    report.fact(
        "workers_impl",
        fleet[0].details().implementation_name.clone(),
    );
    phase.failed += check(&done, &expected, report);

    if settings.trace {
        return traced(settings, &data, &requests, &expected, &phase, report);
    }
    // The remaining set-ups for the median run after the timed phase, so the
    // resident-set peak it recorded reflects a single set-up.
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let pool = start_pool(&data, &requests, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        pool.shutdown_drain(None);
    }
    crate::end_to_end(report, &phase, &setup_s);
    Ok(())
}

/// Compare every result with its grid point's oracle value; returns the
/// number of wrong results (failed requests are already counted).
fn check(done: &[Done], expected: &[f64], report: &mut Report) -> u64 {
    let mut wrong = 0u64;
    let mut first = None;
    for d in done {
        match &d.result {
            Ok(v) => {
                let want = expected[d.point];
                let rel = ((v - want) / want).abs();
                if rel.is_nan() || rel > TOLERANCE {
                    wrong += 1;
                    first.get_or_insert(format!(
                        "point {}: lnL {v} vs oracle {want} (rel {rel:e})",
                        d.point
                    ));
                }
            }
            Err(e) => {
                first.get_or_insert(format!("request failed: {e}"));
            }
        }
    }
    let failed = done.iter().filter(|d| d.result.is_err()).count();
    if let Some(problem) = first {
        report
            .problems
            .push(format!("{wrong} wrong, {failed} failed; first: {problem}"));
    }
    wrong
}

fn traced(
    settings: &Settings,
    data: &CodonData,
    requests: &[SessionRequest],
    expected: &[f64],
    untraced: &Phase,
    report: &mut Report,
) -> Result<(), String> {
    let sink = TraceSink::new();
    guard_stacks(data, requests, &sink, report)?;
    let pool = start_pool(data, requests, Some(&sink))?;
    let before = pool.stats();
    sink.arm(true);
    let (mut phase, done) = run_client(&pool, requests, settings.measured(), Some(&sink));
    sink.arm(false);
    let after = pool.stats();
    // The fleet comes back from the drain; dropping it flushes the shims'
    // counters into the sink.
    let (_, fleet) = pool.shutdown_drain(None);
    drop(fleet);
    phase.failed += check(&done, expected, report);
    crate::account(report, untraced);
    crate::account(report, &phase);

    let spans = sink.take_spans();
    let counters = sink.take_counters();
    crate::write_spans(settings, &spans);
    let evals = phase.latencies_ms.len() as f64;
    let mut v = LayerValues::default();

    let order = [
        Layer::Checkpoint,
        Layer::Rescue,
        Layer::Queue,
        Layer::Memo,
        Layer::Backend,
    ];
    let worker_spans: Vec<Span> = spans
        .iter()
        .filter(|s| s.layer != Layer::Client)
        .copied()
        .collect();
    let self_ns = trace::layer_self_times(&worker_spans, &order);
    layers::self_times(&mut v, &self_ns, evals);
    layers::wrapper_counters(&mut v, &spans, &counters, Layer::Queue, evals);
    let shape = KernelShape {
        patterns: data.shape.patterns as f64,
        states: 61.0,
        categories: 1.0,
        real_bytes: 8.0,
    };
    layers::cpu_classes(&mut v, &layers::backend_kernels(&counters), shape, evals);

    // Pool: correlate each request with the worker session that served it.
    let mut calls: Vec<Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::Client)
        .copied()
        .collect();
    calls.sort_by_key(|s| s.start);
    let sessions = trace::sessions(&spans, Layer::Checkpoint);
    let matched = trace::correlate(&calls, &sessions);
    let mut wait_ms = Vec::new();
    let mut service_ms = Vec::new();
    let mut served = Vec::new();
    let mut wait_ns = 0u64;
    for (c, m) in calls.iter().zip(&matched) {
        let Some(i) = *m else { continue };
        let s = &sessions[i];
        wait_ns += s.start - c.start;
        wait_ms.push((s.start - c.start) as f64 * 1e-6);
        service_ms.push((s.end - s.start) as f64 * 1e-6);
        served.push((c.stack, s.stack));
    }
    v.set("pool.wait_ms_p50", median(&wait_ms));
    match percentile(&wait_ms, 0.99) {
        Ok(p99) => v.set("pool.wait_ms_p99", p99),
        Err(e) => report.fact("refused", format!("pool.wait_ms_p99: {e}")),
    }
    v.set("pool.service_ms_p50", median(&service_ms));
    v.set("pool.affinity_frac", layers::affinity(&served));
    let session_ns: u64 = sessions.iter().map(|s| s.end - s.start).sum();
    v.set(
        "pool.worker_busy_frac",
        ratio(session_ns as f64 * 1e-9, WORKERS as f64 * phase.wall_s),
    );
    let delta = |f: fn(&PoolStats) -> u64| (f(&after) - f(&before)) as f64;
    v.set(
        "pool.steal_frac",
        ratio(delta(|s| s.stolen), delta(|s| s.completed)),
    );
    v.set("pool.requeued", delta(|s| s.requeued));
    v.set("pool.rejected", delta(|s| s.rejected));
    v.set(
        "trace.uncorrelated_frac",
        1.0 - ratio(service_ms.len() as f64, calls.len() as f64),
    );

    let call_ns: u64 = calls.iter().map(Span::duration).sum();
    let attributed = wait_ns + self_ns.values().sum::<u64>();
    v.set(
        "trace.unattributed_frac",
        1.0 - ratio(attributed as f64, call_ns as f64),
    );
    crate::trace_overhead(&mut v, untraced, &phase, spans.len());
    v.emit(report);
    Ok(())
}

/// Drift guard: the hand-built worker stack and the spec-built one return
/// identical bits on the same two consecutive sessions.
fn guard_stacks(
    data: &CodonData,
    requests: &[SessionRequest],
    sink: &Arc<TraceSink>,
    report: &mut Report,
) -> Result<(), String> {
    let m = manager();
    let spec = spec(data).with_stats().named(IMPLEMENTATION);
    let mut hand: Box<dyn BeagleInstance> =
        trace::build_stack(&m, &spec, sink, 900).map_err(|e| e.to_string())?;
    let mut built = spec.instantiate(&m).map_err(|e| e.to_string())?;
    for (i, r) in requests.iter().take(2).enumerate() {
        let a = r.evaluate(hand.as_mut()).map_err(|e| e.to_string())?;
        let b = r.evaluate(built.as_mut()).map_err(|e| e.to_string())?;
        if a.to_bits() != b.to_bits() {
            report.fail_check(
                1,
                format!("hand-built stack drifted on session {i}: {a} vs {b}"),
            );
        }
    }
    Ok(())
}
