//! The two MC3 workloads: `nuc-mc3-local` (one `BeagleEngine` per chain)
//! and `nuc-mc3-remote` (one `RemoteEngine` per chain, against a loopback
//! server the benchmark starts).
//!
//! [`Mc3`] drives the chains as `beagle_mcmc::run_mc3` does — same chain
//! seeds and heating, every chain advancing one swap interval between swaps,
//! the same master-RNG draws for swaps — but stops on a clock instead of a
//! generation count, and advances the chains in turn, one generation each,
//! on one thread instead of one thread per chain. Within a swap interval
//! the chains are independent, so the order changes no draw. The
//! correctness check replays the first rounds with `run_mc3` itself and
//! requires a bit-identical cold trace.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use beagle_core::wire::{decode_frame, encode_frame};
use beagle_core::{
    BufferId, Deadline, Flags, Frame, ImplementationManager, InstanceSpec, Lane, Operation,
    SessionRequest,
};
use beagle_cpu::{register_cpu_factories, CpuFactory, ThreadingModel};
use beagle_mcmc::chain::log_posterior;
use beagle_mcmc::{
    run_mc3, BeagleEngine, LikelihoodEngine, MarkovChain, Mc3Config, ModelParams, RemoteEngine,
};
use beagle_phylo::likelihood::log_likelihood;
use beagle_phylo::{ReversibleModel, SitePatterns, SiteRates, Tree};
use beagle_server::{Endpoint, Server, ServerBuilder};

use crate::fixture::{self, NucData};
use crate::layers::{self, KernelShape, LayerValues};
use crate::report::Report;
use crate::stats::{median, ratio};
use crate::trace::{self, Layer, Span, TraceSink, TracingFactory, FACTORY_STACK_BASE};
use crate::{Budget, Phase, Settings, IMPLEMENTATION, SETUP_REPEATS};

const CHAINS: usize = 2;
/// Pool workers of the loopback server. One: with the chains taking turns
/// the run keeps a single core busy, so another process on the host's
/// second core does not slow it, and no request is stolen by another
/// worker.
const SERVER_WORKERS: usize = 1;
const SWAP_INTERVAL: usize = 10;
/// Rounds of the timed run replayed through `run_mc3` for the trace check.
const CHECK_ROUNDS: usize = 3;
/// Relative tolerance of the f32 back-end against the f64 pruning oracle.
const F32_TOLERANCE: f64 = 1e-5;
/// Shipped sessions replayed through the frame codec off the clock in a
/// traced remote run; an evenly spaced sample keeps the replay short.
const REPLAY_SAMPLE: usize = 400;

fn config(seed: u64, rounds: usize) -> Mc3Config {
    Mc3Config {
        chains: CHAINS,
        generations: rounds * SWAP_INTERVAL,
        swap_interval: SWAP_INTERVAL,
        sample_interval: 0,
        heating: 0.1,
        seed,
    }
}

/// The local chains' instance: default wrappers (memo + rescue), single
/// precision, pinned to the SSE CPU back-end.
fn local_spec(data: &NucData) -> InstanceSpec {
    let s = data.shape;
    InstanceSpec::for_tree(s.taxa, s.patterns, s.states, s.categories)
        .named(IMPLEMENTATION)
        .prefer(Flags::PRECISION_SINGLE)
}

/// The server pool's spec: the same shape and precision preference; the
/// pool pins the implementation.
fn server_spec(data: &NucData) -> InstanceSpec {
    let s = data.shape;
    InstanceSpec::for_tree(s.taxa, s.patterns, s.states, s.categories)
        .prefer(Flags::PRECISION_SINGLE)
}

/// A [`LikelihoodEngine`] that times every call of the engine it wraps and,
/// when traced, records an MC3-layer span and keeps the evaluated inputs.
pub struct TimedEngine {
    inner: Box<dyn LikelihoodEngine>,
    latencies_ms: Vec<f64>,
    trace: Option<(Arc<TraceSink>, u32)>,
    captured: Vec<(Tree, ReversibleModel)>,
    capture: bool,
}

impl TimedEngine {
    fn new(inner: Box<dyn LikelihoodEngine>) -> Self {
        TimedEngine {
            inner,
            latencies_ms: Vec::new(),
            trace: None,
            captured: Vec::new(),
            capture: false,
        }
    }

    fn traced(mut self, sink: &Arc<TraceSink>, stack: u32, capture: bool) -> Self {
        self.trace = Some((Arc::clone(sink), stack));
        self.capture = capture;
        self
    }
}

impl LikelihoodEngine for TimedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
        let Some((sink, stack)) = &self.trace else {
            let start = Instant::now();
            let lnl = self.inner.log_likelihood(tree, model);
            self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            return lnl;
        };
        let start = sink.now();
        let lnl = self.inner.log_likelihood(tree, model);
        let end = sink.now();
        self.latencies_ms.push((end - start) as f64 * 1e-6);
        if sink.armed() {
            sink.record(Span {
                stack: *stack,
                layer: Layer::Mcmc,
                call: trace::Call::Eval,
                start,
                end,
                items: 0,
                value: lnl.to_bits(),
            });
            if self.capture {
                self.captured.push((tree.clone(), model.clone()));
            }
        }
        lnl
    }

    fn elapsed(&self) -> Duration {
        self.inner.elapsed()
    }
}

/// Coupled chains advanced round by round (see the module docs).
pub struct Mc3 {
    chains: Vec<MarkovChain>,
    engines: Vec<TimedEngine>,
    master: SmallRng,
    cold_trace: Vec<f64>,
    /// Each chain's first log-likelihood (the set-up evaluation).
    initial: Vec<f64>,
}

impl Mc3 {
    /// Initialize the chains; each evaluates its starting state once.
    fn start(seed: u64, data: &NucData, mut engines: Vec<TimedEngine>) -> Self {
        let cfg = config(seed, 0);
        let chains: Vec<MarkovChain> = engines
            .iter_mut()
            .enumerate()
            .map(|(i, engine)| {
                MarkovChain::new(
                    data.start.clone(),
                    data.params,
                    1.0 / (1.0 + cfg.heating * i as f64),
                    cfg.seed.wrapping_add(1000 + i as u64),
                    engine,
                )
            })
            .collect();
        let initial = chains.iter().map(|c| c.state.log_likelihood).collect();
        for e in &mut engines {
            e.latencies_ms.clear();
        }
        Mc3 {
            chains,
            engines,
            master: SmallRng::seed_from_u64(cfg.seed),
            cold_trace: Vec::new(),
            initial,
        }
    }

    fn accepted_proposed(&self) -> (usize, usize) {
        self.chains.iter().fold((0, 0), |(a, p), c| {
            (a + c.stats.accepted, p + c.stats.proposed)
        })
    }

    /// Advance round by round until the budget is spent: every chain
    /// advances one swap interval, then one swap is attempted. Within an
    /// interval the chains take turns generation by generation on the
    /// calling thread, as MrBayes does without MPI, so at most one
    /// evaluation is in flight and the run needs a single core.
    fn run(&mut self, budget: Budget) -> Phase {
        let start = Instant::now();
        loop {
            for _ in 0..SWAP_INTERVAL {
                for (chain, engine) in self.chains.iter_mut().zip(self.engines.iter_mut()) {
                    chain.advance(1, engine);
                }
            }
            swap(&mut self.master, &mut self.chains);
            self.cold_trace.push(self.chains[0].state.log_likelihood);
            let evals = self.engines.iter().map(|e| e.latencies_ms.len()).sum();
            if budget.done(start.elapsed().as_secs_f64(), evals) {
                break;
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let latencies_ms = self
            .engines
            .iter()
            .flat_map(|e| e.latencies_ms.iter().copied())
            .collect::<Vec<_>>();
        Phase {
            wall_s,
            attempted: latencies_ms.len() as u64,
            latencies_ms,
            failed: 0,
            peak_rss_mib: fixture::peak_rss_mib(),
        }
    }
}

/// One swap attempt between a random adjacent pair, drawing from the master
/// RNG exactly as `run_mc3` does; states swap, temperatures stay.
fn swap(master: &mut SmallRng, chains: &mut [MarkovChain]) {
    let i = master.random_range(0..chains.len() - 1);
    let j = i + 1;
    let (pi, pj) = (
        log_posterior(&chains[i].state),
        log_posterior(&chains[j].state),
    );
    let log_ratio = (chains[i].beta - chains[j].beta) * (pj - pi);
    if log_ratio >= 0.0 || master.random_range(0.0..1.0) < log_ratio.exp() {
        let (left, right) = chains.split_at_mut(j);
        std::mem::swap(&mut left[i].state, &mut right[0].state);
    }
}

fn manager() -> ImplementationManager {
    let mut m = ImplementationManager::new();
    register_cpu_factories(&mut m);
    m
}

fn local_engines(
    manager: &ImplementationManager,
    data: &NucData,
    traced: Option<&Arc<TraceSink>>,
) -> Result<Vec<TimedEngine>, String> {
    let spec = local_spec(data);
    (0..CHAINS)
        .map(|c| {
            let inst = match traced {
                None => spec.instantiate(manager),
                Some(sink) => {
                    trace::build_stack(manager, &spec.clone().with_stats(), sink, c as u32)
                }
            }
            .map_err(|e| format!("create {IMPLEMENTATION}: {e}"))?;
            if inst.simulated_time().is_some() {
                return Err("end-to-end timing would use simulated_time()".into());
            }
            let engine = BeagleEngine::new(inst, data.patterns.clone(), data.rates.clone(), true);
            let timed = TimedEngine::new(Box::new(engine));
            Ok(match traced {
                None => timed,
                Some(sink) => timed.traced(sink, c as u32, false),
            })
        })
        .collect()
}

/// A running loopback service plus the chains talking to it.
struct Remote {
    mc3: Mc3,
    server: Server,
}

impl Remote {
    fn start(
        manager: ImplementationManager,
        settings: &Settings,
        data: &NucData,
        traced: Option<&Arc<TraceSink>>,
    ) -> Result<Remote, String> {
        let manager = Arc::new(manager);
        let server = ServerBuilder::from_spec(match traced {
            None => server_spec(data),
            Some(_) => server_spec(data).with_stats(),
        })
        .workers(SERVER_WORKERS)
        .pin([IMPLEMENTATION])
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .map_err(|e| format!("start server: {e}"))?;
        let addr = server.tcp_addr().ok_or("server has no TCP address")?;
        let engines = (0..CHAINS)
            .map(|c| {
                let engine = RemoteEngine::connect(
                    Endpoint::Tcp(addr.to_string()),
                    data.patterns.clone(),
                    data.rates.clone(),
                    true,
                )
                .map_err(|e| format!("connect: {e}"))?;
                let timed = TimedEngine::new(Box::new(engine));
                Ok(match traced {
                    None => timed,
                    Some(sink) => timed.traced(sink, c as u32, true),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mc3 = Mc3::start(settings.seed, data, engines);
        Ok(Remote { mc3, server })
    }

    /// Close the connections, then drain the server.
    fn stop(self) -> (Mc3, bool) {
        let Remote { mut mc3, server } = self;
        mc3.engines.clear();
        let drained = server.drain(Some(Deadline::new(Duration::from_secs(10))));
        (mc3, drained)
    }
}

/// Server counters that feed the error rate and the server/pool layer
/// metrics.
#[derive(Clone, Copy, Default)]
struct ServerCounts {
    busy: u64,
    wire_errors: u64,
    lost: u64,
    completed: u64,
    stolen: u64,
    requeued: u64,
    rejected: u64,
}

impl ServerCounts {
    fn read(server: &Server) -> Self {
        let j = server.stats_json();
        let s = |k| layers::json_u64(&j, "server", k);
        let p = |k| layers::json_u64(&j, "pool", k);
        ServerCounts {
            busy: s("busy_client_cap") + s("busy_pool_full") + s("busy_draining"),
            wire_errors: s("wire_errors"),
            lost: s("lost"),
            completed: p("completed"),
            stolen: p("stolen"),
            requeued: p("requeued"),
            rejected: p("rejected"),
        }
    }

    fn since(self, b: ServerCounts) -> Self {
        ServerCounts {
            busy: self.busy - b.busy,
            wire_errors: self.wire_errors - b.wire_errors,
            lost: self.lost - b.lost,
            completed: self.completed - b.completed,
            stolen: self.stolen - b.stolen,
            requeued: self.requeued - b.requeued,
            rejected: self.rejected - b.rejected,
        }
    }
}

/// One untraced set-up: manager, instances or server and connections, and
/// each chain's first evaluation.
fn set_up(
    settings: &Settings,
    data: &NucData,
    remote: bool,
) -> Result<(Mc3, Option<Server>), String> {
    Ok(if remote {
        let r = Remote::start(manager(), settings, data, None)?;
        (r.mc3, Some(r.server))
    } else {
        let m = manager();
        let engines = local_engines(&m, data, None)?;
        (Mc3::start(settings.seed, data, engines), None)
    })
}

/// Close the chains' connections and drain the server, if any; false when
/// the server did not drain.
fn tear_down(mc3: Mc3, server: Option<Server>) -> (Mc3, bool) {
    match server {
        Some(server) => Remote { mc3, server }.stop(),
        None => (mc3, true),
    }
}

/// Run `nuc-mc3-local` (`remote == false`) or `nuc-mc3-remote`.
pub fn run(settings: &Settings, remote: bool, report: &mut Report) -> Result<(), String> {
    let data = fixture::nucleotide(settings.seed, if settings.tiny { 400 } else { 20_000 });
    record_fixture(report, &data, remote);
    crate::pin(report);

    let t = Instant::now();
    let (mut mc3, server) = set_up(settings, &data, remote)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let before = server.as_ref().map(ServerCounts::read);
    let mut phase = mc3.run(settings.untraced());
    let counts = server
        .as_ref()
        .map(|s| ServerCounts::read(s).since(before.expect("read with the server")));
    if let Some(c) = counts {
        // Refusals are attempts the caller had to repeat.
        phase.attempted += c.busy;
        phase.failed += c.busy + c.wire_errors + c.lost;
    }
    let untraced_initial = mc3.initial.clone();
    let (mc3, drained) = tear_down(mc3, server);
    if !drained {
        report.fail_check(1, "server did not drain".into());
    }
    report.fact("rounds", mc3.cold_trace.len());
    check(settings, &data, &mc3, report);

    if settings.trace {
        return traced(settings, &data, remote, &phase, &untraced_initial, report);
    }
    // The remaining set-ups for the median run after the timed phase, so the
    // resident-set peak it recorded reflects a single set-up.
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let (mc3, server) = set_up(settings, &data, remote)?;
        setup_s.push(t.elapsed().as_secs_f64());
        tear_down(mc3, server);
    }
    crate::end_to_end(report, &phase, &setup_s);
    Ok(())
}

fn record_fixture(report: &mut Report, data: &NucData, remote: bool) {
    crate::record_shape(report, &data.shape);
    report.fact("model", "HKY85+G4, rescaled every operation");
    report.fact("chains", CHAINS);
    report.fact("swap_interval", SWAP_INTERVAL);
    if remote {
        report.fact(
            "stack",
            "RemoteEngine -> WIRE-v1 over loopback TCP -> server -> pool (1 worker) -> rescue -> memo -> CPU-SSE",
        );
    } else {
        report.fact("stack", "BeagleEngine -> rescue -> memo -> CPU-SSE");
    }
}

/// The checks every run makes, off the clock.
fn check(settings: &Settings, data: &NucData, mc3: &Mc3, report: &mut Report) {
    // 1. The timed run's cold trace starts exactly as run_mc3 on local
    //    engines with the same seed. For the remote workload this is the
    //    local-vs-remote bit-identity check.
    let rounds = CHECK_ROUNDS.min(mc3.cold_trace.len());
    let m = manager();
    match local_engines(&m, data, None) {
        Ok(engines) => {
            let mut boxed: Vec<Box<dyn LikelihoodEngine>> = engines
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn LikelihoodEngine>)
                .collect();
            let reference = run_mc3(
                &config(settings.seed, rounds),
                &data.start,
                data.params,
                &mut boxed,
            );
            let mut expected = reference.cold_trace;
            if settings.tamper {
                expected[0] = f64::from_bits(expected[0].to_bits() ^ 1);
            }
            let mismatched = expected
                .iter()
                .zip(&mc3.cold_trace)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            if mismatched > 0 {
                report.fail_check(
                    (mismatched * SWAP_INTERVAL * CHAINS) as u64,
                    format!("cold trace differs from run_mc3 in {mismatched} of {rounds} rounds"),
                );
            }
        }
        Err(e) => report.fail_check(1, e),
    }
    // 2. Every chain's current log-likelihood matches the pruning oracle
    //    on its state.
    for (i, chain) in mc3.chains.iter().enumerate() {
        let s = &chain.state;
        let oracle = log_likelihood(&s.tree, &s.params.build(), &data.rates, &data.patterns);
        let rel = ((s.log_likelihood - oracle) / oracle).abs();
        if rel.is_nan() || rel > F32_TOLERANCE {
            report.fail_check(
                1,
                format!(
                    "chain {i}: lnL {} vs oracle {oracle} (rel {rel:e})",
                    s.log_likelihood
                ),
            );
        }
    }
}

/// The traced run: hand-built stacks (local) or a tracing factory under the
/// server's pool (remote), checked against the spec-built stacks first.
fn traced(
    settings: &Settings,
    data: &NucData,
    remote: bool,
    untraced: &Phase,
    untraced_initial: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let sink = TraceSink::new();
    if !remote {
        guard_local_stacks(data, &sink, report)?;
    }
    let mut server = None;
    let mut mc3 = if remote {
        let mut m = ImplementationManager::new();
        m.register(Box::new(TracingFactory::new(
            Box::new(CpuFactory::new(ThreadingModel::Serial, true)),
            &sink,
        )));
        let r = Remote::start(m, settings, data, Some(&sink))?;
        server = Some(r.server);
        r.mc3
    } else {
        let m = manager();
        Mc3::start(settings.seed, data, local_engines(&m, data, Some(&sink))?)
    };
    // Same inputs, so the set-up evaluation must agree bit for bit.
    if mc3
        .initial
        .iter()
        .map(|x| x.to_bits())
        .ne(untraced_initial.iter().map(|x| x.to_bits()))
    {
        report.fail_check(
            1,
            "traced stack's first evaluation differs from the spec-built one".into(),
        );
    }
    let before = server.as_ref().map(ServerCounts::read);
    let (acc0, prop0) = mc3.accepted_proposed();
    sink.arm(true);
    let mut phase = mc3.run(settings.measured());
    sink.arm(false);
    let counts = server
        .as_ref()
        .map(|s| ServerCounts::read(s).since(before.expect("read with the server")));
    if let Some(c) = counts {
        phase.attempted += c.busy;
        phase.failed += c.busy + c.wire_errors + c.lost;
    }
    crate::account(report, untraced);
    crate::account(report, &phase);
    let (acc1, prop1) = mc3.accepted_proposed();
    let captured: Vec<(Tree, ReversibleModel)> = mc3
        .engines
        .iter_mut()
        .flat_map(|e| std::mem::take(&mut e.captured))
        .collect();
    // Dropping the stacks flushes their counters into the sink.
    if !tear_down(mc3, server).1 {
        report.fail_check(1, "server did not drain".into());
    }
    let spans = sink.take_spans();
    let counters = sink.take_counters();
    crate::write_spans(settings, &spans);

    let evals = phase.latencies_ms.len() as f64;
    let mut v = LayerValues::default();
    v.set(
        "mcmc.accept_frac",
        ratio((acc1 - acc0) as f64, (prop1 - prop0) as f64),
    );
    let shape = KernelShape {
        patterns: data.shape.patterns as f64,
        states: 4.0,
        categories: data.shape.categories as f64,
        real_bytes: 4.0,
    };
    layers::cpu_classes(&mut v, &layers::backend_kernels(&counters), shape, evals);
    let eval_ns: u64 = spans
        .iter()
        .filter(|s| s.layer == Layer::Mcmc)
        .map(Span::duration)
        .sum();
    let attributed = if remote {
        remote_layers(
            &mut v,
            &spans,
            &captured,
            data,
            &phase,
            counts.unwrap_or_default(),
        )
    } else {
        let order = [Layer::Mcmc, Layer::Rescue, Layer::Memo, Layer::Backend];
        let self_ns = trace::layer_self_times(&spans, &order);
        layers::self_times(&mut v, &self_ns, evals);
        let (ops, matrices) = layers::items_at(&spans, Layer::Rescue);
        v.set("mcmc.ops_per_eval", ratio(ops as f64, evals));
        v.set("mcmc.matrices_per_eval", ratio(matrices as f64, evals));
        layers::wrapper_counters(&mut v, &spans, &counters, Layer::Memo, evals);
        self_ns.values().sum::<u64>()
    };
    v.set(
        "trace.unattributed_frac",
        1.0 - ratio(attributed as f64, eval_ns as f64),
    );
    crate::trace_overhead(&mut v, untraced, &phase, spans.len());
    v.emit(report);
    Ok(())
}

/// Drift guard: a hand-built stack and a spec-built stack run the same
/// sequence (full, dirty-path, topology and model changes) and must return
/// identical bits.
fn guard_local_stacks(
    data: &NucData,
    sink: &Arc<TraceSink>,
    report: &mut Report,
) -> Result<(), String> {
    let m = manager();
    let spec = local_spec(data).with_stats();
    let hand = trace::build_stack(&m, &spec, sink, 900).map_err(|e| e.to_string())?;
    let built = spec.instantiate(&m).map_err(|e| e.to_string())?;
    let mut a = BeagleEngine::new(hand, data.patterns.clone(), data.rates.clone(), true);
    let mut b = BeagleEngine::new(built, data.patterns.clone(), data.rates.clone(), true);
    let mut tree = data.start.clone();
    let mut rng = SmallRng::seed_from_u64(7);
    let kappa = [2.0, 2.0, 2.0, 3.5];
    for (step, k) in kappa.iter().enumerate() {
        match step {
            1 => {
                let (node, t) = tree.branch_assignments()[3];
                tree.node_mut(node).branch_length = t * 1.25;
            }
            2 => {
                let v = tree.nni_candidates()[0];
                tree.nni(v, &mut rng);
            }
            _ => {}
        }
        let model = ModelParams::Nucleotide { kappa: *k }.build();
        let (x, y) = (
            a.log_likelihood(&tree, &model),
            b.log_likelihood(&tree, &model),
        );
        if x.to_bits() != y.to_bits() {
            report.fail_check(
                1,
                format!("hand-built stack drifted at step {step}: {x} vs {y}"),
            );
        }
    }
    Ok(())
}

/// The session `RemoteEngine` ships for one evaluation (same construction
/// as `RemoteEngine::session`).
fn session_for(
    tree: &Tree,
    model: &ReversibleModel,
    patterns: &SitePatterns,
    rates: &SiteRates,
) -> SessionRequest {
    let eig = model.eigen();
    SessionRequest {
        tip_states: (0..tree.taxon_count())
            .map(|t| patterns.tip_states(t))
            .collect(),
        pattern_weights: patterns.weights().to_vec(),
        category_rates: rates.rates.clone(),
        category_weights: rates.weights.clone(),
        frequencies: model.frequencies().to_vec(),
        eigen: Some((
            eig.vectors.as_slice().to_vec(),
            eig.inverse_vectors.as_slice().to_vec(),
            eig.values.clone(),
        )),
        matrices: tree.branch_assignments(),
        operations: tree
            .operation_schedule()
            .iter()
            .map(|e| {
                Operation::new(e.destination, e.child1, e.matrix1, e.child2, e.matrix2)
                    .with_scaling(e.destination)
            })
            .collect(),
        root: BufferId(tree.root()),
        scaled: true,
        deadline: None,
    }
}

/// Remote per-layer metrics. Returns the attributed nanoseconds: every
/// evaluation whose worker session was found is fully attributed (session
/// build, server hop, worker-side wrappers, back-end).
fn remote_layers(
    v: &mut LayerValues,
    spans: &[Span],
    captured: &[(Tree, ReversibleModel)],
    data: &NucData,
    phase: &Phase,
    counts: ServerCounts,
) -> u64 {
    let mut evals: Vec<Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::Mcmc)
        .copied()
        .collect();
    evals.sort_by_key(|s| s.start);
    let sessions = trace::sessions(spans, Layer::Backend);
    let matched = trace::correlate(&evals, &sessions);
    let n = evals.len() as f64;

    // Every evaluation ships the full schedule and every branch's matrix.
    let shipped_ops: usize = captured
        .iter()
        .map(|(tree, _)| tree.operation_schedule().len())
        .sum();
    let shipped_matrices: usize = captured
        .iter()
        .map(|(tree, _)| tree.branch_assignments().len())
        .sum();
    let shipped = captured.len() as f64;
    v.set("mcmc.ops_per_eval", ratio(shipped_ops as f64, shipped));
    v.set(
        "mcmc.matrices_per_eval",
        ratio(shipped_matrices as f64, shipped),
    );

    // Off the clock: rebuild an evenly spaced sample of the shipped sessions
    // and time the client-side session build and the frame codec on them.
    let stride = captured.len().div_ceil(REPLAY_SAMPLE).max(1);
    let sample: Vec<_> = captured.iter().step_by(stride).collect();
    let mut build_ns = 0u128;
    let (mut encode_ns, mut decode_ns) = (0u128, 0u128);
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for (tree, model) in &sample {
        let t = Instant::now();
        let session = session_for(tree, model, &data.patterns, &data.rates);
        build_ns += t.elapsed().as_nanos();
        let submit = Frame::Submit {
            lane: Lane::Interactive,
            session: Box::new(session),
        };
        let t = Instant::now();
        let request = encode_frame(1, &submit);
        let response = encode_frame(1, &Frame::Result(-1234.5));
        encode_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let ok = decode_frame(&request).is_ok() && decode_frame(&response).is_ok();
        decode_ns += t.elapsed().as_nanos();
        assert!(ok, "frames must round-trip");
        req_bytes += request.len();
        resp_bytes += response.len();
    }
    let c = sample.len() as f64;
    let build_ms = ratio(build_ns as f64, c) * 1e-6;
    v.set("mcmc.self_ms_per_eval", build_ms);
    v.set("wire.request_bytes", ratio(req_bytes as f64, c));
    v.set("wire.response_bytes", ratio(resp_bytes as f64, c));
    v.set("wire.encode_us", ratio(encode_ns as f64, c) * 1e-3);
    v.set("wire.decode_us", ratio(decode_ns as f64, c) * 1e-3);

    let (backend_ops, backend_matrices) = layers::items_at(spans, Layer::Backend);
    v.set(
        "memo.op_skip_frac",
        1.0 - ratio(backend_ops as f64, shipped_ops as f64),
    );
    v.set(
        "memo.matrix_skip_frac",
        1.0 - ratio(backend_matrices as f64, shipped_matrices as f64),
    );

    let mut overhead_ns = 0f64;
    let mut wrappers_ns = 0f64;
    let mut service_ms = Vec::new();
    let mut served = Vec::new();
    let mut attributed = 0u64;
    let mut found = 0usize;
    for (e, m) in evals.iter().zip(&matched) {
        let Some(i) = *m else { continue };
        let s = &sessions[i];
        let worker = s.end - s.start;
        found += 1;
        overhead_ns += (e.duration() - worker) as f64 - build_ms * 1e6;
        wrappers_ns += (worker - s.busy) as f64;
        service_ms.push(worker as f64 * 1e-6);
        served.push((e.stack, s.stack - FACTORY_STACK_BASE));
        attributed += e.duration();
    }
    let found_f = found as f64;
    v.set(
        "server.overhead_ms_per_eval",
        ratio(overhead_ns, found_f) * 1e-6,
    );
    v.set(
        "server.wrappers_ms_per_eval",
        ratio(wrappers_ns, found_f) * 1e-6,
    );
    v.set("server.busy_refusals", counts.busy as f64);
    v.set("server.wire_errors", counts.wire_errors as f64);
    v.set("server.lost", counts.lost as f64);
    let backend_ns: u64 = sessions.iter().map(|s| s.busy).sum();
    v.set(
        "cpu.backend_ms_per_eval",
        ratio(backend_ns as f64, n) * 1e-6,
    );
    v.set("pool.service_ms_p50", median(&service_ms));
    v.set("pool.affinity_frac", layers::affinity(&served));
    let session_ns: u64 = sessions.iter().map(|s| s.end - s.start).sum();
    v.set(
        "pool.worker_busy_frac",
        ratio(
            session_ns as f64 * 1e-9,
            SERVER_WORKERS as f64 * phase.wall_s,
        ),
    );
    v.set(
        "pool.steal_frac",
        ratio(counts.stolen as f64, counts.completed as f64),
    );
    v.set("pool.requeued", counts.requeued as f64);
    v.set("pool.rejected", counts.rejected as f64);
    v.set("trace.uncorrelated_frac", 1.0 - ratio(found_f, n));
    attributed
}
