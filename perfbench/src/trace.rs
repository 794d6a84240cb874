//! Span tracing from outside the library.
//!
//! Nothing here changes the library: layers are timed by wrapping calls into
//! their public entry points.
//!
//! * [`TraceShim`] is a [`BeagleInstance`] that forwards every call to the
//!   instance it wraps and records a [`Span`] around it. [`build_stack`]
//!   composes the wrapper stack from the public constructors in the order
//!   `ImplementationManager::create_from_spec` uses, with a shim under every
//!   layer, so each layer's self time is its span minus its child's span.
//! * [`TracingFactory`] wraps a real back-end factory, so instances a
//!   manager creates on its own (the server's pool workers) record back-end
//!   spans.
//! * Kernel, memo and queue counters are read through the public
//!   `statistics()`, `memo_stats()` and `queue_stats()` methods when a shim
//!   first records and again when it is dropped; the difference is pushed to
//!   the [`TraceSink`].
//!
//! Spans are kept in memory and written out once, when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use beagle_core::checkpoint::Provenance;
use beagle_core::ops::Operation;
use beagle_core::rescue::RescueInstance;
use beagle_core::{
    memo, BeagleInstance, BufferId, CheckpointedInstance, Deadline, Flags, ImplementationFactory,
    ImplementationManager, InstanceConfig, InstanceDetails, InstanceSpec, InstanceStats,
    KernelClass, KernelCounter, MemoInstance, MemoStats, QueueStats, QueuedInstance,
    ResourceDescription, Result, ScalingMode,
};

/// The layers a likelihood evaluation passes through, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// A caller's request as the caller sees it (codon scan: submit → ticket).
    Client,
    /// One `LikelihoodEngine::log_likelihood` call of an MC3 chain.
    Mcmc,
    /// `CheckpointedInstance` and everything below it.
    Checkpoint,
    /// `RescueInstance` and everything below it.
    Rescue,
    /// `QueuedInstance` and everything below it.
    Queue,
    /// `MemoInstance` and everything below it.
    Memo,
    /// The raw CPU back-end.
    Backend,
}

impl Layer {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Mcmc => "mcmc",
            Layer::Checkpoint => "checkpoint",
            Layer::Rescue => "rescue",
            Layer::Queue => "queue",
            Layer::Memo => "memo",
            Layer::Backend => "backend",
        }
    }
}

/// Which call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Eval,
    SetTipStates,
    SetTipPartials,
    SetPartials,
    GetPartials,
    SetPatternWeights,
    SetStateFrequencies,
    SetCategoryRates,
    SetCategoryWeights,
    SetEigen,
    UpdateMatrices,
    UpdateDerivatives,
    IntegrateEdgeDerivatives,
    SetMatrix,
    GetMatrix,
    UpdatePartials,
    UpdatePartialsByLevels,
    ResetScale,
    AccumulateScale,
    IntegrateRoot,
    IntegrateEdge,
    GetSiteLogLikelihoods,
    Wait,
    Checkpoint,
}

/// One timed call. `stack` names the instance stack (or caller) it ran on;
/// times are nanoseconds since the sink's epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub stack: u32,
    pub layer: Layer,
    pub call: Call,
    pub start: u64,
    pub end: u64,
    /// Work items: operations for partials updates, matrices for matrix
    /// updates, 0 otherwise.
    pub items: u32,
    /// Bit pattern of the returned log-likelihood for root integrations and
    /// evaluations, 0 otherwise.
    pub value: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Counters read through an instance's public statistics methods.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub kernels: [KernelCounter; KernelClass::COUNT],
    pub memo: MemoStats,
    pub queue: QueueStats,
}

impl Counters {
    fn read(inst: &dyn BeagleInstance) -> Self {
        let stats = inst.statistics().unwrap_or_default();
        Counters {
            kernels: stats.counters,
            memo: inst.memo_stats().unwrap_or_default(),
            queue: inst.queue_stats().unwrap_or_default(),
        }
    }

    fn since(&self, base: &Counters) -> Counters {
        let mut kernels = self.kernels;
        for (k, b) in kernels.iter_mut().zip(&base.kernels) {
            k.calls -= b.calls;
            k.items -= b.items;
            k.bytes -= b.bytes;
            k.wall_nanos -= b.wall_nanos;
            k.modeled_nanos -= b.modeled_nanos;
        }
        let (m, mb) = (&self.memo, &base.memo);
        let (q, qb) = (&self.queue, &base.queue);
        Counters {
            kernels,
            memo: MemoStats {
                enabled: m.enabled,
                ops_skipped: m.ops_skipped - mb.ops_skipped,
                ops_executed: m.ops_executed - mb.ops_executed,
                matrices_skipped: m.matrices_skipped - mb.matrices_skipped,
                matrices_computed: m.matrices_computed - mb.matrices_computed,
                integrations_skipped: m.integrations_skipped - mb.integrations_skipped,
                integrations_computed: m.integrations_computed - mb.integrations_computed,
                sets_deduped: m.sets_deduped - mb.sets_deduped,
                scale_pairs_skipped: m.scale_pairs_skipped - mb.scale_pairs_skipped,
            },
            queue: QueueStats {
                flushes: q.flushes - qb.flushes,
                batches_submitted: q.batches_submitted - qb.batches_submitted,
                levels_submitted: q.levels_submitted - qb.levels_submitted,
                ops_enqueued: q.ops_enqueued - qb.ops_enqueued,
                ops_submitted: q.ops_submitted - qb.ops_submitted,
                eigen_cache_hits: q.eigen_cache_hits - qb.eigen_cache_hits,
                eigen_cache_misses: q.eigen_cache_misses - qb.eigen_cache_misses,
                eigen_cache_invalidations: q.eigen_cache_invalidations
                    - qb.eigen_cache_invalidations,
                eigen_cache_evictions: q.eigen_cache_evictions - qb.eigen_cache_evictions,
            },
        }
    }
}

/// The counters one shim's instance accumulated while the sink was armed.
#[derive(Clone, Debug)]
pub struct LayerCounters {
    pub layer: Layer,
    pub counters: Counters,
}

/// Where spans and counters go. Recording happens only while armed, so
/// set-up work is never traced.
pub struct TraceSink {
    epoch: Instant,
    armed: AtomicBool,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<LayerCounters>>,
}

impl TraceSink {
    pub fn new() -> Arc<Self> {
        Arc::new(TraceSink {
            epoch: Instant::now(),
            armed: AtomicBool::new(false),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            counters: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since this sink was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        if self.armed() {
            self.spans.lock().expect("no recorder panics").push(span);
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no recorder panics"))
    }

    pub fn take_counters(&self) -> Vec<LayerCounters> {
        std::mem::take(&mut *self.counters.lock().expect("no recorder panics"))
    }
}

/// A pass-through [`BeagleInstance`] recording one span per call.
pub struct TraceShim {
    inner: Box<dyn BeagleInstance>,
    sink: Arc<TraceSink>,
    stack: u32,
    layer: Layer,
    baseline: Option<Counters>,
}

impl TraceShim {
    pub fn wrap(
        inner: Box<dyn BeagleInstance>,
        sink: &Arc<TraceSink>,
        stack: u32,
        layer: Layer,
    ) -> Box<dyn BeagleInstance> {
        Box::new(TraceShim {
            inner,
            sink: Arc::clone(sink),
            stack,
            layer,
            baseline: None,
        })
    }

    fn push(&self, call: Call, start: u64, items: usize, value: u64) {
        self.sink.record(Span {
            stack: self.stack,
            layer: self.layer,
            call,
            start,
            end: self.sink.now(),
            items: items as u32,
            value,
        });
    }

    fn timed<R>(
        &mut self,
        call: Call,
        items: usize,
        f: impl FnOnce(&mut dyn BeagleInstance) -> R,
    ) -> R {
        if !self.sink.armed() {
            return f(self.inner.as_mut());
        }
        if self.baseline.is_none() {
            self.baseline = Some(Counters::read(self.inner.as_ref()));
        }
        let start = self.sink.now();
        let r = f(self.inner.as_mut());
        self.push(call, start, items, 0);
        r
    }

    fn timed_lnl(
        &mut self,
        call: Call,
        f: impl FnOnce(&mut dyn BeagleInstance) -> Result<f64>,
    ) -> Result<f64> {
        if !self.sink.armed() {
            return f(self.inner.as_mut());
        }
        if self.baseline.is_none() {
            self.baseline = Some(Counters::read(self.inner.as_ref()));
        }
        let start = self.sink.now();
        let r = f(self.inner.as_mut());
        let bits = r.as_ref().map(|v| v.to_bits()).unwrap_or(0);
        self.push(call, start, 0, bits);
        r
    }

    fn timed_ref<R>(&self, call: Call, f: impl FnOnce(&dyn BeagleInstance) -> R) -> R {
        let start = self.sink.now();
        let r = f(self.inner.as_ref());
        self.push(call, start, 0, 0);
        r
    }
}

impl Drop for TraceShim {
    fn drop(&mut self) {
        if let Some(base) = self.baseline.take() {
            let counters = Counters::read(self.inner.as_ref()).since(&base);
            // Drop must not panic: a poisoned sink just loses these counters.
            if let Ok(mut sink) = self.sink.counters.lock() {
                sink.push(LayerCounters {
                    layer: self.layer,
                    counters,
                });
            }
        }
    }
}

impl BeagleInstance for TraceShim {
    fn details(&self) -> &InstanceDetails {
        self.inner.details()
    }

    fn config(&self) -> &InstanceConfig {
        self.inner.config()
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.timed(Call::SetTipStates, 0, |i| i.set_tip_states(tip, states))
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.timed(Call::SetTipPartials, 0, |i| {
            i.set_tip_partials(tip, partials)
        })
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.timed(Call::SetPartials, 0, |i| i.set_partials(buffer, partials))
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.timed_ref(Call::GetPartials, |i| i.get_partials(buffer))
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.timed(Call::SetPatternWeights, 0, |i| {
            i.set_pattern_weights(weights)
        })
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.timed(Call::SetStateFrequencies, 0, |i| {
            i.set_state_frequencies(index, frequencies)
        })
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.timed(Call::SetCategoryRates, 0, |i| i.set_category_rates(rates))
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.timed(Call::SetCategoryWeights, 0, |i| {
            i.set_category_weights(index, weights)
        })
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.timed(Call::SetEigen, 0, |i| {
            i.set_eigen_decomposition(index, vectors, inverse_vectors, values)
        })
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.timed(Call::UpdateMatrices, matrix_indices.len(), |i| {
            i.update_transition_matrices(eigen_index, matrix_indices, branch_lengths)
        })
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.timed(Call::UpdateDerivatives, matrix_indices.len(), |i| {
            i.update_transition_derivatives(
                eigen_index,
                matrix_indices,
                d1_indices,
                d2_indices,
                branch_lengths,
            )
        })
    }

    fn integrate_edge_derivatives(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        d1_matrix: BufferId,
        d2_matrix: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<(f64, f64, f64)> {
        self.timed(Call::IntegrateEdgeDerivatives, 0, |i| {
            i.integrate_edge_derivatives(
                parent,
                child,
                matrix,
                d1_matrix,
                d2_matrix,
                category_weights,
                frequencies,
                scaling,
            )
        })
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.timed(Call::SetMatrix, 0, |i| {
            i.set_transition_matrix(index, matrix)
        })
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.timed_ref(Call::GetMatrix, |i| i.get_transition_matrix(index))
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        self.timed(Call::UpdatePartials, operations.len(), |i| {
            i.update_partials(operations)
        })
    }

    fn update_partials_by_levels(&mut self, levels: &[Vec<Operation>]) -> Result<()> {
        let ops = levels.iter().map(Vec::len).sum();
        self.timed(Call::UpdatePartialsByLevels, ops, |i| {
            i.update_partials_by_levels(levels)
        })
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        self.timed(Call::ResetScale, 0, |i| i.reset_scale_factors(cumulative))
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        self.timed(Call::AccumulateScale, 0, |i| {
            i.accumulate_scale_factors(scale_indices, cumulative)
        })
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        self.timed_lnl(Call::IntegrateRoot, |i| {
            i.integrate_root(root, category_weights, frequencies, scaling)
        })
    }

    fn integrate_edge(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        self.timed_lnl(Call::IntegrateEdge, |i| {
            i.integrate_edge(
                parent,
                child,
                matrix,
                category_weights,
                frequencies,
                scaling,
            )
        })
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        self.timed_ref(Call::GetSiteLogLikelihoods, |i| {
            i.get_site_log_likelihoods()
        })
    }

    fn wait_for_computation(&mut self) -> Result<()> {
        self.timed(Call::Wait, 0, |i| i.wait_for_computation())
    }

    fn simulated_time(&self) -> Option<std::time::Duration> {
        self.inner.simulated_time()
    }

    fn reset_simulated_time(&mut self) {
        self.inner.reset_simulated_time()
    }

    fn peek_simulated_time(&self) -> Option<std::time::Duration> {
        self.inner.peek_simulated_time()
    }

    fn queue_stats(&self) -> Option<QueueStats> {
        self.inner.queue_stats()
    }

    fn statistics(&self) -> Option<InstanceStats> {
        self.inner.statistics()
    }

    fn take_journal(&mut self) -> Vec<beagle_core::Event> {
        self.inner.take_journal()
    }

    fn set_deadline(&mut self, deadline: Option<Deadline>) {
        self.inner.set_deadline(deadline)
    }

    fn checkpoint(&mut self) -> Option<beagle_core::Checkpoint> {
        self.timed(Call::Checkpoint, 0, |i| i.checkpoint())
    }

    fn set_incremental(&mut self, enabled: bool) {
        self.inner.set_incremental(enabled)
    }

    fn memo_stats(&self) -> Option<MemoStats> {
        self.inner.memo_stats()
    }
}

/// Compose the wrapper stack `spec` describes, with a [`TraceShim`] under
/// every layer and above the outermost one. The order mirrors
/// `ImplementationManager::create_from_spec`: back-end, memo, queue,
/// rescue, checkpoint. The back-end itself comes from `create_from_spec` on
/// the same spec with every wrapper switched off, so factory selection and
/// flag handling are the manager's own.
pub fn build_stack(
    manager: &ImplementationManager,
    spec: &InstanceSpec,
    sink: &Arc<TraceSink>,
    stack: u32,
) -> Result<Box<dyn BeagleInstance>> {
    let asynch = (spec.preferences | spec.requirements).contains(Flags::COMPUTATION_ASYNCH);
    let mut raw_spec = spec.clone();
    raw_spec.preferences = raw_spec.preferences.without(Flags::COMPUTATION_ASYNCH);
    raw_spec.requirements = raw_spec.requirements.without(Flags::COMPUTATION_ASYNCH);
    raw_spec.rescue = false;
    raw_spec.checkpoint = false;
    raw_spec.incremental = Some(false);
    raw_spec.deadline = None;
    let raw = manager.create_from_spec(&raw_spec)?;

    let mut inst = TraceShim::wrap(raw, sink, stack, Layer::Backend);
    if spec.incremental.unwrap_or(true) && !memo::incremental_disabled_by_env() {
        inst = TraceShim::wrap(Box::new(MemoInstance::new(inst)), sink, stack, Layer::Memo);
    }
    if asynch {
        inst = TraceShim::wrap(
            Box::new(QueuedInstance::new(inst)),
            sink,
            stack,
            Layer::Queue,
        );
    }
    if spec.rescue {
        inst = TraceShim::wrap(
            Box::new(RescueInstance::new(inst)),
            sink,
            stack,
            Layer::Rescue,
        );
    }
    if spec.checkpoint {
        let provenance = Provenance {
            preferences: spec.preferences,
            requirements: spec.requirements,
            rescue: spec.rescue,
            implementation: spec.implementation.clone(),
        };
        inst = TraceShim::wrap(
            Box::new(CheckpointedInstance::new(inst, spec.config, provenance)),
            sink,
            stack,
            Layer::Checkpoint,
        );
    }
    if spec.deadline.is_some() {
        inst.set_deadline(spec.deadline);
    }
    Ok(inst)
}

/// Stack ids of instances a [`TracingFactory`] creates start here, apart
/// from the ids the benchmark gives its own stacks and callers.
pub const FACTORY_STACK_BASE: u32 = 1000;

/// A factory that delegates to a real one and wraps every instance it
/// creates in a back-end [`TraceShim`].
pub struct TracingFactory {
    inner: Box<dyn ImplementationFactory>,
    sink: Arc<TraceSink>,
    next: AtomicU32,
}

impl TracingFactory {
    pub fn new(inner: Box<dyn ImplementationFactory>, sink: &Arc<TraceSink>) -> Self {
        TracingFactory {
            inner,
            sink: Arc::clone(sink),
            next: AtomicU32::new(FACTORY_STACK_BASE),
        }
    }
}

impl ImplementationFactory for TracingFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supported_flags(&self) -> Flags {
        self.inner.supported_flags()
    }

    fn resource(&self) -> ResourceDescription {
        self.inner.resource()
    }

    fn priority(&self) -> i32 {
        self.inner.priority()
    }

    fn supports_config(&self, config: &InstanceConfig) -> bool {
        self.inner.supports_config(config)
    }

    fn create(
        &self,
        config: &InstanceConfig,
        preference_flags: Flags,
        requirement_flags: Flags,
    ) -> Result<Box<dyn BeagleInstance>> {
        let inst = self
            .inner
            .create(config, preference_flags, requirement_flags)?;
        let stack = self.next.fetch_add(1, Ordering::Relaxed);
        Ok(TraceShim::wrap(inst, &self.sink, stack, Layer::Backend))
    }
}

// ---------------------------------------------------------------------------
// Analysis.
// ---------------------------------------------------------------------------

/// Time covered by `parents` but not by `children`. Both lists must be
/// sorted by start; parents must not overlap each other (children may).
pub fn self_time(parents: &[(u64, u64)], children: &[(u64, u64)]) -> u64 {
    // Union of the children as disjoint sorted intervals.
    let mut union: Vec<(u64, u64)> = Vec::with_capacity(children.len());
    for &(s, e) in children {
        match union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => union.push((s, e)),
        }
    }
    let mut total = 0;
    let mut j = 0;
    for &(a, b) in parents {
        while j < union.len() && union[j].1 <= a {
            j += 1;
        }
        let mut covered = 0;
        let mut k = j;
        while k < union.len() && union[k].0 < b {
            covered += union[k].1.min(b) - union[k].0.max(a);
            k += 1;
        }
        total += (b - a) - covered;
    }
    total
}

/// Sorted `(start, end)` intervals of one layer on one stack.
fn intervals(spans: &[Span], stack: u32, layer: Layer) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.stack == stack && s.layer == layer)
        .map(|s| (s.start, s.end))
        .collect();
    v.sort_unstable();
    v
}

/// Self time of every layer in `order` (outermost first), summed over all
/// stacks: on each stack, a layer's spans minus the part covered by the next
/// layer in `order` that has spans on that stack.
pub fn layer_self_times(spans: &[Span], order: &[Layer]) -> BTreeMap<Layer, u64> {
    let mut stacks: Vec<u32> = spans.iter().map(|s| s.stack).collect();
    stacks.sort_unstable();
    stacks.dedup();
    let mut out: BTreeMap<Layer, u64> = order.iter().map(|&l| (l, 0)).collect();
    for stack in stacks {
        let per_layer: Vec<Vec<(u64, u64)>> =
            order.iter().map(|&l| intervals(spans, stack, l)).collect();
        for i in 0..order.len() {
            let child = per_layer[i + 1..]
                .iter()
                .find(|v| !v.is_empty())
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            *out.entry(order[i]).or_default() += self_time(&per_layer[i], child);
        }
    }
    out
}

/// One session as a worker stack saw it: every call at one layer from the
/// end of the previous root integration up to and including the next one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Session {
    pub stack: u32,
    pub start: u64,
    pub end: u64,
    /// Bit pattern of the root log-likelihood that closed the session.
    pub lnl: u64,
    /// Partials operations and matrices that reached this layer.
    pub ops: u64,
    pub matrices: u64,
    /// Time spent inside this layer's calls (the session minus the gaps
    /// between calls).
    pub busy: u64,
}

/// Split each stack's spans of `layer` into sessions closed by a root
/// integration. Trailing calls with no integration are dropped.
pub fn sessions(spans: &[Span], layer: Layer) -> Vec<Session> {
    let mut by_stack: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer == layer) {
        by_stack.entry(s.stack).or_default().push(s);
    }
    let mut out = Vec::new();
    for (stack, mut list) in by_stack {
        list.sort_by_key(|s| s.start);
        let mut open: Option<Session> = None;
        for s in list {
            let cur = open.get_or_insert(Session {
                stack,
                start: s.start,
                end: s.end,
                lnl: 0,
                ops: 0,
                matrices: 0,
                busy: 0,
            });
            cur.end = s.end;
            cur.busy += s.duration();
            match s.call {
                Call::UpdatePartials | Call::UpdatePartialsByLevels => cur.ops += s.items as u64,
                Call::UpdateMatrices => cur.matrices += s.items as u64,
                _ => {}
            }
            if s.call == Call::IntegrateRoot {
                cur.lnl = s.value;
                out.push(*cur);
                open = None;
            }
        }
    }
    out
}

/// Match each caller-side evaluation span to the worker session that served
/// it: same log-likelihood bits, and the session lies inside the
/// evaluation's interval. Each session serves at most one evaluation.
pub fn correlate(evals: &[Span], sessions: &[Session]) -> Vec<Option<usize>> {
    let mut by_bits: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in sessions.iter().enumerate() {
        by_bits.entry(s.lnl).or_default().push(i);
    }
    let mut used = vec![false; sessions.len()];
    evals
        .iter()
        .map(|e| {
            let found =
                by_bits.get(&e.value)?.iter().copied().find(|&i| {
                    !used[i] && sessions[i].start >= e.start && sessions[i].end <= e.end
                })?;
            used[found] = true;
            Some(found)
        })
        .collect()
}

/// Spans as CSV with a header line, for the trace file written at the end
/// of a run (times in nanoseconds since the sink's epoch).
pub fn spans_to_csv(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 48 + 64);
    out.push_str("stack,layer,call,start_ns,end_ns,items,value_bits\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{:?},{},{},{},{}",
            s.stack,
            s.layer.name(),
            s.call,
            s.start,
            s.end,
            s.items,
            s.value
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stack: u32, layer: Layer, call: Call, start: u64, end: u64, value: u64) -> Span {
        Span {
            stack,
            layer,
            call,
            start,
            end,
            items: 0,
            value,
        }
    }

    #[test]
    fn self_time_subtracts_covered_part() {
        // Parent [0,100) with children [10,20) and [30,60): 60 self.
        assert_eq!(self_time(&[(0, 100)], &[(10, 20), (30, 60)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time(&[(0, 100)], &[(10, 50), (40, 60)]), 50);
        // Children straddling a parent boundary count only inside it.
        assert_eq!(self_time(&[(10, 20), (30, 40)], &[(5, 15), (35, 50)]), 10);
        // No children: everything is self time.
        assert_eq!(self_time(&[(0, 7), (10, 12)], &[]), 9);
        // A child between parents covers nothing.
        assert_eq!(self_time(&[(0, 10), (20, 30)], &[(12, 18)]), 20);
    }

    #[test]
    fn layer_self_times_telescope_to_the_outer_span() {
        let spans = vec![
            span(0, Layer::Mcmc, Call::Eval, 0, 100, 0),
            span(0, Layer::Rescue, Call::UpdatePartials, 10, 50, 0),
            span(0, Layer::Rescue, Call::IntegrateRoot, 60, 90, 7),
            // No memo layer on this stack: rescue's child is the back-end.
            span(0, Layer::Backend, Call::UpdatePartials, 15, 45, 0),
            span(0, Layer::Backend, Call::IntegrateRoot, 62, 88, 7),
            // A second stack with its own outer span.
            span(1, Layer::Mcmc, Call::Eval, 0, 10, 0),
            span(1, Layer::Backend, Call::IntegrateRoot, 2, 6, 0),
        ];
        let order = [Layer::Mcmc, Layer::Rescue, Layer::Memo, Layer::Backend];
        let t = layer_self_times(&spans, &order);
        assert_eq!(t[&Layer::Mcmc], 30 + 6);
        assert_eq!(t[&Layer::Rescue], 14);
        assert_eq!(t[&Layer::Memo], 0);
        assert_eq!(t[&Layer::Backend], 56 + 4);
        assert_eq!(t.values().sum::<u64>(), 100 + 10);
    }

    #[test]
    fn sessions_close_at_root_integration() {
        let mut spans = vec![
            span(5, Layer::Backend, Call::SetEigen, 0, 1, 0),
            span(5, Layer::Backend, Call::UpdatePartials, 2, 5, 0),
            span(5, Layer::Backend, Call::IntegrateRoot, 6, 7, 11),
            span(5, Layer::Backend, Call::UpdatePartials, 10, 12, 0),
            span(5, Layer::Backend, Call::IntegrateRoot, 13, 14, 22),
            span(5, Layer::Backend, Call::SetEigen, 20, 21, 0),
        ];
        spans[1].items = 3;
        let s = sessions(&spans, Layer::Backend);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].start, s[0].end, s[0].lnl, s[0].ops), (0, 7, 11, 3));
        assert_eq!(s[0].busy, 1 + 3 + 1);
        assert_eq!((s[1].start, s[1].end, s[1].lnl), (10, 14, 22));
    }

    #[test]
    fn correlation_needs_bits_and_containment() {
        let session = |stack, start, end, lnl| Session {
            stack,
            start,
            end,
            lnl,
            ops: 0,
            matrices: 0,
            busy: 0,
        };
        let sessions = vec![
            session(1000, 5, 9, 42),
            session(1001, 12, 18, 42),
            session(1000, 21, 25, 77),
        ];
        let evals = vec![
            // Same bits as two sessions: only the contained one matches.
            span(0, Layer::Mcmc, Call::Eval, 10, 20, 42),
            span(1, Layer::Mcmc, Call::Eval, 0, 10, 42),
            // Contains a session, but its bits differ.
            span(0, Layer::Mcmc, Call::Eval, 20, 30, 78),
        ];
        assert_eq!(correlate(&evals, &sessions), vec![Some(1), Some(0), None]);
    }
}
