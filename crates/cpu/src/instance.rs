//! The CPU instance: one type, four execution strategies.
//!
//! [`CpuInstance`] owns an [`InstanceBuffers`] arena and executes the
//! partial-likelihoods bottleneck with whichever [`Threading`] model it was
//! created with — the three iterations the paper describes in §VI (futures,
//! thread-create, thread-pool) plus the original serial model — combined
//! with the kernel table resolved once at creation by [`crate::simd`]
//! (scalar / portable / AVX2).
//!
//! The traversal hot path is allocation-free: work items are plain-data
//! `ChunkTask`/`RootTask` structs kept in a reusable `Scratch` arena,
//! the pattern partition is computed once at instance creation, and batches
//! go to the pool through [`ThreadPool::run_tasks`] (which allocates
//! nothing per dispatch). Buffers use the SIMD layout of
//! [`beagle_core::buffers::simd_state_stride`] — nucleotide patterns dense
//! at stride 4, wider state counts padded to the lane width so the vector
//! kernels run remainder-free; the padding never escapes the public API.
//! Each operation runs as one pass over L1-sized pattern tiles (see
//! [`TILE_BYTES`]): a tile's categories are computed, rescaled and logged
//! before the next tile is touched.

use beagle_core::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use beagle_core::buffers::InstanceBuffers;
use beagle_core::error::{BeagleError, Result};
use beagle_core::obs::{self, EventKind, KernelClass, Recorder};
use beagle_core::ops::{dependency_levels, Operation};
use beagle_core::real::{widen_slice, Real};

use crate::kernels::{self, EdgeChild};
use crate::pool::{partition_range, ThreadPool};
use crate::simd::{select_kind, DispatchKind, DispatchReal, KernelDispatch};

/// Patterns below this threshold run serially even under a threading model —
/// §VI-B: "to prevent small problem sizes from being slower than the previous
/// serial implementation, we set a minimum sequence length of 512 patterns
/// for threading to be used".
pub const MIN_PATTERNS_FOR_THREADING: usize = 512;

/// Destination bytes (all categories together) one pattern tile of an
/// operation covers. A tile's partials are written by the kernels and then
/// read and rewritten by the rescale passes, so it must stay in L1 between
/// the two: 16 KiB leaves room for the children's tiles and the matrices
/// in a 32 KiB L1d. Nucleotide f32 with 4 categories gets 256-pattern
/// tiles; a 61-state f64 codon model with one category gets 32.
pub const TILE_BYTES: usize = 16 * 1024;

/// Execution strategy for the likelihood kernels.
pub enum Threading {
    /// Original single-threaded model.
    Serial,
    /// One asynchronous task per *tree operation*; operations that are
    /// independent in the topology run concurrently (§VI-A).
    Futures,
    /// Threads created and joined per `update_partials` call, splitting the
    /// pattern range evenly (§VI-B).
    ThreadCreate {
        /// Number of threads to create per call.
        threads: usize,
    },
    /// Persistent worker pool; also parallelizes root integration (§VI-C).
    /// The pool is shared (`Arc`) so many instances — e.g. one per MCMC
    /// chain — reuse the same workers instead of oversubscribing the host.
    ThreadPool {
        /// The shared pool.
        pool: std::sync::Arc<ThreadPool>,
    },
}

impl Threading {
    fn thread_count(&self) -> usize {
        match self {
            Threading::Serial | Threading::Futures => 1,
            Threading::ThreadCreate { threads } => *threads,
            Threading::ThreadPool { pool } => pool.thread_count(),
        }
    }
}

/// Raw view of a child operand inside a task (borrow-erased).
#[derive(Clone, Copy)]
enum OperandPtr<T> {
    Partials(*const T),
    States(*const u32),
}

/// One (pattern-range × all categories) unit of an `update_partials`
/// operation as plain data: raw pointers into the instance arena plus the
/// geometry needed to slice them. Tasks over disjoint pattern ranges touch
/// disjoint parts of `dest`/`scale`, so a batch of them is data-race free.
struct ChunkTask<T: Real> {
    dest: *mut T,
    /// Start of the operation's scale buffer, or null.
    scale: *mut T,
    c1: OperandPtr<T>,
    c2: OperandPtr<T>,
    m1: *const T,
    m2: *const T,
    s: usize,
    sp: usize,
    n_pat: usize,
    n_cat: usize,
    p0: usize,
    p1: usize,
    dispatch: &'static KernelDispatch<T>,
}

// SAFETY: the pointers reference buffers that outlive the batch (the
// executing call blocks until every task finished); tasks of one concurrent
// batch write disjoint ranges, and none reads a buffer another writes
// (`level_is_independent`, and a destination is never its own child).
unsafe impl<T: Real> Send for ChunkTask<T> {}

// SAFETY: a shared `&ChunkTask` exposes no operations at all (every field is
// private to this module and only `run_chunk(&mut ...)` dereferences the
// pointers, under the exclusive `&mut self` of the executing call), so
// sharing references across threads cannot race. Required so the `Scratch`
// arena doesn't strip `Sync` from `CpuInstance`.
unsafe impl<T: Real> Sync for ChunkTask<T> {}

/// Execute one chunk task in pattern tiles of [`TILE_BYTES`]: each tile
/// computes every category block, then (if requested) takes the per-pattern
/// max over the categories, applies it and takes its log while the tile is
/// still in cache, before the next tile starts. Patterns are independent,
/// so the tiling changes no bit of the result.
fn run_chunk<T: DispatchReal>(t: &mut ChunkTask<T>) {
    let (s, sp) = (t.s, t.sp);
    let d = t.dispatch;
    let tile = (TILE_BYTES / (t.n_cat * sp * std::mem::size_of::<T>())).max(1);
    for q0 in (t.p0..t.p1).step_by(tile) {
        let n = (q0 + tile).min(t.p1) - q0;
        for cat in 0..t.n_cat {
            let off = (cat * t.n_pat + q0) * sp;
            // SAFETY: `off..off + n*sp` lies inside the destination buffer,
            // and no task running concurrently touches these patterns of it.
            let dest = unsafe { std::slice::from_raw_parts_mut(t.dest.add(off), n * sp) };
            let m1 = unsafe { std::slice::from_raw_parts(t.m1.add(cat * s * sp), s * sp) };
            let m2 = unsafe { std::slice::from_raw_parts(t.m2.add(cat * s * sp), s * sp) };
            match (t.c1, t.c2) {
                (OperandPtr::Partials(a), OperandPtr::Partials(b)) => {
                    let a = unsafe { std::slice::from_raw_parts(a.add(off), n * sp) };
                    let b = unsafe { std::slice::from_raw_parts(b.add(off), n * sp) };
                    (d.partials_partials)(dest, a, b, m1, m2, s, sp);
                }
                (OperandPtr::States(a), OperandPtr::Partials(b)) => {
                    let a = unsafe { std::slice::from_raw_parts(a.add(q0), n) };
                    let b = unsafe { std::slice::from_raw_parts(b.add(off), n * sp) };
                    (d.states_partials)(dest, a, b, m1, m2, s, sp);
                }
                (OperandPtr::Partials(a), OperandPtr::States(b)) => {
                    // Symmetric kernel with swapped matrices.
                    let a = unsafe { std::slice::from_raw_parts(a.add(off), n * sp) };
                    let b = unsafe { std::slice::from_raw_parts(b.add(q0), n) };
                    (d.states_partials)(dest, b, a, m2, m1, s, sp);
                }
                (OperandPtr::States(a), OperandPtr::States(b)) => {
                    let a = unsafe { std::slice::from_raw_parts(a.add(q0), n) };
                    let b = unsafe { std::slice::from_raw_parts(b.add(q0), n) };
                    (d.states_states)(dest, a, b, m1, m2, s, sp);
                }
            }
        }
        if !t.scale.is_null() {
            // SAFETY: these patterns of the scale buffer, which no concurrent
            // task touches.
            let scale = unsafe { std::slice::from_raw_parts_mut(t.scale.add(q0), n) };
            scale.iter_mut().for_each(|x| *x = T::ZERO);
            for cat in 0..t.n_cat {
                let off = (cat * t.n_pat + q0) * sp;
                let block = unsafe { std::slice::from_raw_parts(t.dest.add(off), n * sp) };
                (d.rescale_max)(block, scale, sp);
            }
            for cat in 0..t.n_cat {
                let off = (cat * t.n_pat + q0) * sp;
                let block = unsafe { std::slice::from_raw_parts_mut(t.dest.add(off), n * sp) };
                (d.rescale_apply)(block, scale, sp);
            }
            kernels::rescale_finish(scale);
        }
    }
}

/// One pattern-range unit of root integration as plain data.
struct RootTask<T: Real> {
    site: *mut T,
    len: usize,
    root: *const T,
    root_len: usize,
    freqs: *const T,
    freqs_len: usize,
    catw: *const T,
    catw_len: usize,
    pw: *const T,
    cscale: *const T,
    s: usize,
    sp: usize,
    n_pat: usize,
    p0: usize,
    dispatch: &'static KernelDispatch<T>,
    sum: f64,
}

// SAFETY: same protocol as ChunkTask — buffers outlive the blocking batch,
// ranges are disjoint.
unsafe impl<T: Real> Send for RootTask<T> {}

// SAFETY: as for `ChunkTask` — `&RootTask` exposes nothing; pointer access
// happens only in `run_root(&mut ...)` within an exclusive call.
unsafe impl<T: Real> Sync for RootTask<T> {}

fn run_root<T: DispatchReal>(t: &mut RootTask<T>) {
    // SAFETY: pointers/lengths were taken from live slices that outlive the
    // batch; `site` is this task's disjoint chunk.
    let site = unsafe { std::slice::from_raw_parts_mut(t.site, t.len) };
    let root = unsafe { std::slice::from_raw_parts(t.root, t.root_len) };
    let freqs = unsafe { std::slice::from_raw_parts(t.freqs, t.freqs_len) };
    let catw = unsafe { std::slice::from_raw_parts(t.catw, t.catw_len) };
    let pw = unsafe { std::slice::from_raw_parts(t.pw, t.n_pat) };
    let cscale = if t.cscale.is_null() {
        None
    } else {
        Some(unsafe { std::slice::from_raw_parts(t.cscale, t.n_pat) })
    };
    t.sum = (t.dispatch.integrate_root)(
        site, root, freqs, catw, pw, cscale, t.s, t.sp, t.n_pat, t.p0,
    );
}

/// Reusable per-instance work arenas: dispatching a traversal allocates
/// nothing after the first call at each size.
struct Scratch<T: Real> {
    chunk_tasks: Vec<ChunkTask<T>>,
    root_tasks: Vec<RootTask<T>>,
}

impl<T: Real> Default for Scratch<T> {
    fn default() -> Self {
        Self {
            chunk_tasks: Vec::new(),
            root_tasks: Vec::new(),
        }
    }
}

/// A CPU-resident BEAGLE instance with precision `T`.
pub struct CpuInstance<T: DispatchReal> {
    bufs: InstanceBuffers<T>,
    threading: Threading,
    /// Kernel table resolved at creation (scalar / portable / avx2).
    dispatch: &'static KernelDispatch<T>,
    /// Minimum pattern count before pattern-level threading engages.
    min_patterns: usize,
    /// Precomputed (start, end) pattern ranges, one per thread.
    partition: Vec<(usize, usize)>,
    scratch: Scratch<T>,
    details: InstanceDetails,
    /// Kernel timers/counters + event journal; disabled unless the instance
    /// was created with [`beagle_core::Flags::INSTANCE_STATS`].
    recorder: Recorder,
}

impl<T: DispatchReal> CpuInstance<T> {
    /// Create an instance. `details` should describe the chosen strategy;
    /// factories fill it in. The kernel path resolves from `vectorized`,
    /// host capability, and the `BEAGLE_FORCE_SCALAR` override.
    pub fn new(
        config: InstanceConfig,
        threading: Threading,
        vectorized: bool,
        details: InstanceDetails,
    ) -> Result<Self> {
        Self::with_dispatch_kind(config, threading, select_kind(vectorized), details)
    }

    /// Create an instance with an explicit kernel table — used by parity
    /// tests and benchmarks to pin the dispatch path regardless of host
    /// detection or environment.
    pub fn with_dispatch_kind(
        config: InstanceConfig,
        threading: Threading,
        kind: DispatchKind,
        details: InstanceDetails,
    ) -> Result<Self> {
        let partition = partition_range(config.pattern_count, threading.thread_count());
        Ok(Self {
            bufs: InstanceBuffers::new_padded(config)?,
            threading,
            dispatch: T::dispatch(kind),
            min_patterns: MIN_PATTERNS_FOR_THREADING,
            partition,
            scratch: Scratch::default(),
            details,
            recorder: Recorder::disabled(),
        })
    }

    /// Turn on kernel statistics and the event journal for this instance.
    /// Called by factories when the client asked for
    /// [`beagle_core::Flags::INSTANCE_STATS`].
    pub fn enable_statistics(&mut self) {
        self.recorder = Recorder::new(true);
        let path = self.dispatch.path;
        let threading = match &self.threading {
            Threading::Serial => "serial",
            Threading::Futures => "futures",
            Threading::ThreadCreate { .. } => "thread-create",
            Threading::ThreadPool { .. } => "thread-pool",
        };
        let threads = self.threading.thread_count();
        self.recorder.event(EventKind::DispatchSelected, || {
            format!("kernel_path={path} threading={threading} threads={threads}")
        });
    }

    /// True when buffer `b` holds compact tip states (and no expanded
    /// partials) — the operand classification the kernel table dispatches
    /// on, reused to attribute timing per kernel class.
    fn is_state_operand(&self, b: usize) -> bool {
        self.bufs.partials[b].is_none() && self.bufs.tip_states[b].is_some()
    }

    /// Attribute one `update_partials`-family call's wall time across the
    /// partials kernel classes, split by each class's share of the
    /// operation list (classified after execution, when every intermediate
    /// child has materialized partials).
    fn record_partials_call(&mut self, operations: &[Operation], wall: std::time::Duration) {
        let mut counts = [0u64; 3];
        for op in operations {
            let idx = match (
                self.is_state_operand(op.child1),
                self.is_state_operand(op.child2),
            ) {
                (false, false) => 0,
                (true, true) => 2,
                _ => 1,
            };
            counts[idx] += 1;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return;
        }
        // Rough traffic model: destination write + two operand reads per op.
        let cfg = &self.bufs.config;
        let padded = cfg.category_count * cfg.pattern_count * self.bufs.state_stride;
        let bytes_per_op = (3 * padded * std::mem::size_of::<T>()) as u64;
        let classes = [
            KernelClass::PartialsPP,
            KernelClass::PartialsSP,
            KernelClass::PartialsSS,
        ];
        for (i, class) in classes.into_iter().enumerate() {
            if counts[i] == 0 {
                continue;
            }
            self.recorder
                .tally(class, counts[i], counts[i] * bytes_per_op);
            self.recorder
                .add_wall(class, wall.mul_f64(counts[i] as f64 / total as f64));
        }
    }

    /// Override the 512-pattern threading threshold (used by tests and by
    /// the benchmark harness's ablations).
    pub fn set_min_patterns_for_threading(&mut self, min: usize) {
        self.min_patterns = min;
    }

    /// Name of the kernel path this instance resolved to
    /// ("scalar" / "portable" / "avx2").
    pub fn dispatch_path(&self) -> &'static str {
        self.dispatch.path
    }

    /// Append one chunk task per range of `op` to `tasks`, first allocating
    /// the destination in place if it was never written. Every pointer
    /// comes from `Vec::as_ptr`/`as_mut_ptr`, which create no reference to
    /// the buffer, so writing through one task's destination leaves a later
    /// task's pointer into the same buffer valid (a destination may be a
    /// later operation's child). The caller must run and clear `tasks`
    /// before any buffer of `bufs` is replaced.
    fn push_chunk_tasks(
        tasks: &mut Vec<ChunkTask<T>>,
        bufs: &mut InstanceBuffers<T>,
        op: &Operation,
        ranges: &[(usize, usize)],
        dispatch: &'static KernelDispatch<T>,
    ) {
        bufs.ensure_destination(op.destination);
        let dest = bufs.partials[op.destination]
            .as_mut()
            .map(Vec::as_mut_ptr)
            .expect("destination just ensured");
        let scale = op.dest_scale_write.map_or(std::ptr::null_mut(), |si| {
            bufs.scale_buffers[si].as_mut_ptr()
        });
        let operand = |child: usize| match (&bufs.partials[child], &bufs.tip_states[child]) {
            (Some(p), _) => OperandPtr::Partials(p.as_ptr()),
            (None, Some(st)) => OperandPtr::States(st.as_ptr()),
            (None, None) => panic!("operand buffer {child} not initialized (validation missed it)"),
        };
        let (c1, c2) = (operand(op.child1), operand(op.child2));
        let cfg = &bufs.config;
        for &(p0, p1) in ranges {
            tasks.push(ChunkTask {
                dest,
                scale,
                c1,
                c2,
                m1: bufs.matrices[op.child1_matrix].as_ptr(),
                m2: bufs.matrices[op.child2_matrix].as_ptr(),
                s: cfg.state_count,
                sp: bufs.state_stride,
                n_pat: cfg.pattern_count,
                n_cat: cfg.category_count,
                p0,
                p1,
                dispatch,
            });
        }
    }

    /// Execute operations in list order on the calling thread, each as one
    /// tiled pass over the whole pattern range.
    fn execute_ops_serial(&mut self, ops: &[Operation]) {
        let full_range = [(0, self.bufs.config.pattern_count)];
        let tasks = &mut self.scratch.chunk_tasks;
        tasks.clear();
        for op in ops {
            Self::push_chunk_tasks(tasks, &mut self.bufs, op, &full_range, self.dispatch);
        }
        tasks.iter_mut().for_each(run_chunk);
        tasks.clear();
    }

    /// Run the gathered chunk tasks concurrently and clear them: one pool
    /// batch (thread-pool) or one scoped thread per task (thread-create
    /// and futures).
    fn run_tasks_concurrently(&mut self, use_pool: bool) {
        let tasks = &mut self.scratch.chunk_tasks;
        match &self.threading {
            Threading::ThreadPool { pool } if use_pool => {
                let n_tasks = tasks.len() as u64;
                pool.run_tasks(tasks, run_chunk::<T>);
                self.recorder.tally(KernelClass::PoolDispatch, n_tasks, 0);
            }
            // Thread-create and futures: threads created and joined per
            // batch (§VI-A, §VI-B).
            _ => std::thread::scope(|scope| {
                for t in tasks.iter_mut() {
                    scope.spawn(move || run_chunk(t));
                }
            }),
        }
        tasks.clear();
    }

    /// Operations with pattern-level parallelism in one dispatch: every
    /// operation's per-partition chunk tasks are gathered and run together,
    /// so `ops` must be mutually independent. Chunk boundaries are those of
    /// the per-op path, so results are bit-for-bit equal to it.
    fn execute_batch_chunked(&mut self, ops: &[Operation], use_pool: bool) {
        let tasks = &mut self.scratch.chunk_tasks;
        tasks.clear();
        for op in ops {
            Self::push_chunk_tasks(tasks, &mut self.bufs, op, &self.partition, self.dispatch);
        }
        self.run_tasks_concurrently(use_pool);
    }

    /// Futures model: operations that are independent in the tree run as
    /// concurrent async tasks; pattern ranges are NOT split (§VI-A).
    fn execute_ops_futures(&mut self, operations: &[Operation]) {
        for level in dependency_levels(operations) {
            self.execute_level_concurrent(&level);
        }
    }

    /// True if the operations of `level` may run concurrently: no two share
    /// a destination or scale target and none reads another's destination.
    /// Level plans built by `beagle_core::ops` always pass; this guards
    /// hand-built plans, which then run sequentially.
    fn level_is_independent(level: &[Operation]) -> bool {
        let mut dests = std::collections::HashSet::new();
        let mut scales = std::collections::HashSet::new();
        level.iter().all(|op| {
            dests.insert(op.destination) && op.dest_scale_write.is_none_or(|s| scales.insert(s))
        }) && level
            .iter()
            .all(|op| !dests.contains(&op.child1) && !dests.contains(&op.child2))
    }

    /// One level of mutually independent operations, each as its own
    /// full-pattern-range task on a scoped thread (the futures model).
    fn execute_level_concurrent(&mut self, level: &[Operation]) {
        if level.len() == 1 || !Self::level_is_independent(level) {
            self.execute_ops_serial(level);
            return;
        }
        let full_range = [(0, self.bufs.config.pattern_count)];
        let tasks = &mut self.scratch.chunk_tasks;
        tasks.clear();
        for op in level {
            Self::push_chunk_tasks(tasks, &mut self.bufs, op, &full_range, self.dispatch);
        }
        self.run_tasks_concurrently(false);
    }

    /// One level of mutually independent operations as a single batched
    /// dispatch (one pool batch or one thread scope) instead of one per
    /// operation.
    fn execute_level_chunked(&mut self, level: &[Operation], use_pool: bool) {
        if Self::level_is_independent(level) {
            self.execute_batch_chunked(level, use_pool);
        } else {
            for op in level {
                self.execute_batch_chunked(std::slice::from_ref(op), use_pool);
            }
        }
    }

    /// Validate an operation list: indices in range, every child readable
    /// (tip, previously computed partials, or produced earlier in the list).
    fn validate_operations(&self, operations: &[Operation]) -> Result<()> {
        let mut produced = std::collections::HashSet::new();
        for op in operations {
            self.bufs.check_operation_indices(op)?;
            for child in [op.child1, op.child2] {
                let exists = self.bufs.partials[child].is_some()
                    || self.bufs.tip_states[child].is_some()
                    || produced.contains(&child);
                if !exists {
                    return Err(BeagleError::InvalidConfiguration(format!(
                        "operation reads buffer {child} before it was computed"
                    )));
                }
            }
            produced.insert(op.destination);
        }
        Ok(())
    }

    /// Root integration, optionally parallelized over patterns on the pool.
    fn root_log_likelihood(
        &mut self,
        root_buffer: usize,
        cw_index: usize,
        f_index: usize,
        cumulative_scale: Option<usize>,
    ) -> Result<f64> {
        let cfg = self.bufs.config;
        if root_buffer >= cfg.partials_buffer_count {
            return Err(BeagleError::OutOfRange {
                what: "partials buffer (root)",
                index: root_buffer,
                limit: cfg.partials_buffer_count,
            });
        }
        if cw_index >= self.bufs.category_weights.len() {
            return Err(BeagleError::OutOfRange {
                what: "category weights buffer",
                index: cw_index,
                limit: self.bufs.category_weights.len(),
            });
        }
        if f_index >= self.bufs.frequencies.len() {
            return Err(BeagleError::OutOfRange {
                what: "frequencies buffer",
                index: f_index,
                limit: self.bufs.frequencies.len(),
            });
        }
        if let Some(cs) = cumulative_scale {
            if cs >= self.bufs.scale_buffers.len() {
                return Err(BeagleError::OutOfRange {
                    what: "scale buffer",
                    index: cs,
                    limit: self.bufs.scale_buffers.len(),
                });
            }
        }
        let root =
            self.bufs.partials[root_buffer]
                .take()
                .ok_or(BeagleError::InvalidConfiguration(format!(
                    "root buffer {root_buffer} has never been computed"
                )))?;
        let mut site_lnl = std::mem::take(&mut self.bufs.site_log_likelihoods);

        let s = cfg.state_count;
        let sp = self.bufs.state_stride;
        let n_pat = cfg.pattern_count;
        let freqs = &self.bufs.frequencies[f_index];
        let catw = &self.bufs.category_weights[cw_index];
        let pw = &self.bufs.pattern_weights;
        let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());

        let parallel_root =
            matches!(self.threading, Threading::ThreadPool { .. }) && n_pat >= self.min_patterns;
        let total = if parallel_root {
            let Threading::ThreadPool { pool } = &self.threading else {
                unreachable!()
            };
            let tasks = &mut self.scratch.root_tasks;
            tasks.clear();
            let site_base = site_lnl.as_mut_ptr();
            for &(p0, p1) in &self.partition {
                tasks.push(RootTask {
                    // SAFETY: p0 < n_pat == site_lnl length.
                    site: unsafe { site_base.add(p0) },
                    len: p1 - p0,
                    root: root.as_ptr(),
                    root_len: root.len(),
                    freqs: freqs.as_ptr(),
                    freqs_len: freqs.len(),
                    catw: catw.as_ptr(),
                    catw_len: catw.len(),
                    pw: pw.as_ptr(),
                    cscale: cscale.map_or(std::ptr::null(), |cs| cs.as_ptr()),
                    s,
                    sp,
                    n_pat,
                    p0,
                    dispatch: self.dispatch,
                    sum: 0.0,
                });
            }
            pool.run_tasks(tasks, run_root::<T>);
            let total = tasks.iter().map(|t| t.sum).sum();
            tasks.clear();
            total
        } else {
            (self.dispatch.integrate_root)(
                &mut site_lnl,
                &root,
                freqs,
                catw,
                pw,
                cscale,
                s,
                sp,
                n_pat,
                0,
            )
        };

        if parallel_root {
            self.recorder
                .tally(KernelClass::PoolDispatch, self.partition.len() as u64, 0);
        }
        self.bufs.site_log_likelihoods = site_lnl;
        self.bufs.partials[root_buffer] = Some(root);
        if total.is_nan() {
            return Err(BeagleError::NumericalFailure(
                "root log-likelihood is NaN (consider enabling scaling)".into(),
            ));
        }
        Ok(total)
    }
}

impl<T: DispatchReal> BeagleInstance for CpuInstance<T> {
    fn details(&self) -> &InstanceDetails {
        &self.details
    }

    fn config(&self) -> &InstanceConfig {
        &self.bufs.config
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.bufs.set_tip_states(tip, states)
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.bufs.set_tip_partials(tip, partials)
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.bufs.set_partials(buffer, partials)
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.bufs.get_partials(buffer)
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.bufs.set_pattern_weights(weights)
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.bufs.set_state_frequencies(index, frequencies)
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.bufs.set_category_rates(rates)
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.bufs.set_category_weights(index, weights)
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.bufs
            .set_eigen_decomposition(index, vectors, inverse_vectors, values)
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        let sw = self.recorder.start();
        let r = self
            .bufs
            .update_transition_matrices(eigen_index, matrix_indices, branch_lengths);
        let bytes = (matrix_indices.len()
            * self.bufs.config.category_count
            * self.bufs.config.state_count
            * self.bufs.state_stride
            * std::mem::size_of::<T>()) as u64;
        self.recorder.finish(
            sw,
            KernelClass::TransitionMatrices,
            matrix_indices.len() as u64,
            bytes,
        );
        r
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.bufs.update_transition_derivatives(
            eigen_index,
            matrix_indices,
            d1_indices,
            d2_indices,
            branch_lengths,
        )
    }

    fn integrate_edge_derivatives(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        d1: BufferId,
        d2: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<(f64, f64, f64)> {
        let sw = self.recorder.start();
        let parent_buffer = parent.index();
        let child_buffer = child.index();
        let matrix_index = matrix.index();
        let d1_matrix = d1.index();
        let d2_matrix = d2.index();
        let category_weights_index = category_weights.index();
        let frequencies_index = frequencies.index();
        let cumulative_scale = scaling.index();
        let cfg = self.bufs.config;
        self.bufs.check_integration_indices(
            &[parent_buffer, child_buffer],
            &[matrix_index, d1_matrix, d2_matrix],
            frequencies_index,
            category_weights_index,
            cumulative_scale,
        )?;
        let parent =
            self.bufs.partials[parent_buffer]
                .as_ref()
                .ok_or(BeagleError::InvalidConfiguration(format!(
                    "parent buffer {parent_buffer} has never been computed"
                )))?;
        let child = if let Some(p) = &self.bufs.partials[child_buffer] {
            kernels::EdgeChild::Partials(p.as_slice())
        } else if let Some(st) = &self.bufs.tip_states[child_buffer] {
            kernels::EdgeChild::States(st.as_slice())
        } else {
            return Err(BeagleError::InvalidConfiguration(format!(
                "child buffer {child_buffer} has never been written"
            )));
        };
        let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());
        let (lnl, d1, d2) = kernels::integrate_edge_derivatives(
            parent,
            child,
            &self.bufs.matrices[matrix_index],
            &self.bufs.matrices[d1_matrix],
            &self.bufs.matrices[d2_matrix],
            &self.bufs.frequencies[frequencies_index],
            &self.bufs.category_weights[category_weights_index],
            &self.bufs.pattern_weights,
            cscale,
            cfg.state_count,
            self.bufs.state_stride,
            cfg.pattern_count,
        );
        self.recorder
            .finish(sw, KernelClass::EdgeIntegrate, cfg.pattern_count as u64, 0);
        if lnl.is_nan() {
            return Err(BeagleError::NumericalFailure(
                "edge derivative log-likelihood is NaN".into(),
            ));
        }
        Ok((lnl, d1, d2))
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.bufs.set_transition_matrix(index, matrix)
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.bufs.get_transition_matrix(index)
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        // Validate everything up front; ops later in the list may read
        // destinations produced by earlier ops in the same call.
        self.validate_operations(operations)?;

        let t0 = self.recorder.is_enabled().then(std::time::Instant::now);
        self.recorder.event(EventKind::OperationBegin, || {
            format!("update_partials ops={}", operations.len())
        });
        let n_pat = self.bufs.config.pattern_count;
        match self.threading {
            Threading::Serial => self.execute_ops_serial(operations),
            Threading::Futures => self.execute_ops_futures(operations),
            Threading::ThreadCreate { .. } | Threading::ThreadPool { .. } => {
                let use_pool = matches!(self.threading, Threading::ThreadPool { .. });
                if n_pat < self.min_patterns {
                    self.execute_ops_serial(operations);
                } else {
                    for op in operations {
                        self.execute_batch_chunked(std::slice::from_ref(op), use_pool);
                    }
                }
            }
        }
        if let Some(t0) = t0 {
            self.record_partials_call(operations, t0.elapsed());
            self.recorder.event(EventKind::OperationEnd, || {
                format!("update_partials ops={}", operations.len())
            });
        }
        Ok(())
    }

    fn update_partials_by_levels(&mut self, levels: &[Vec<Operation>]) -> Result<()> {
        let flat: Vec<Operation> = levels.iter().flatten().copied().collect();
        self.validate_operations(&flat)?;

        let t0 = self.recorder.is_enabled().then(std::time::Instant::now);
        self.recorder.event(EventKind::OperationBegin, || {
            format!(
                "update_partials_by_levels ops={} levels={}",
                flat.len(),
                levels.len()
            )
        });
        let n_pat = self.bufs.config.pattern_count;
        match self.threading {
            Threading::Serial => self.execute_ops_serial(&flat),
            // The futures model is already level-structured: run each given
            // level as one wave of scoped tasks.
            Threading::Futures => {
                for level in levels {
                    self.execute_level_concurrent(level);
                }
            }
            Threading::ThreadCreate { .. } | Threading::ThreadPool { .. } => {
                let use_pool = matches!(self.threading, Threading::ThreadPool { .. });
                if n_pat < self.min_patterns {
                    // Below the threading threshold batching buys nothing.
                    self.execute_ops_serial(&flat);
                } else {
                    // One dispatch per dependency level instead of one per
                    // operation — the batching win the queue is after.
                    for level in levels {
                        self.execute_level_chunked(level, use_pool);
                    }
                }
            }
        }
        if let Some(t0) = t0 {
            self.record_partials_call(&flat, t0.elapsed());
            self.recorder.event(EventKind::OperationEnd, || {
                format!("update_partials_by_levels ops={}", flat.len())
            });
        }
        Ok(())
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        let sw = self.recorder.start();
        let r = self.bufs.reset_scale_factors(cumulative);
        self.recorder.finish(sw, KernelClass::Rescale, 1, 0);
        r
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        let sw = self.recorder.start();
        let r = self
            .bufs
            .accumulate_scale_factors(scale_indices, cumulative);
        self.recorder
            .finish(sw, KernelClass::Rescale, scale_indices.len() as u64, 0);
        r
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        let sw = self.recorder.start();
        let r = self.root_log_likelihood(
            root.index(),
            category_weights.index(),
            frequencies.index(),
            scaling.index(),
        );
        let patterns = self.bufs.config.pattern_count as u64;
        self.recorder
            .finish(sw, KernelClass::RootIntegrate, patterns, 0);
        r
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
        let sw = self.recorder.start();
        let parent_buffer = parent.index();
        let child_buffer = child.index();
        let matrix_index = matrix.index();
        let category_weights_index = category_weights.index();
        let frequencies_index = frequencies.index();
        let cumulative_scale = scaling.index();
        let cfg = self.bufs.config;
        self.bufs.check_integration_indices(
            &[parent_buffer, child_buffer],
            &[matrix_index],
            frequencies_index,
            category_weights_index,
            cumulative_scale,
        )?;
        let parent =
            self.bufs.partials[parent_buffer]
                .take()
                .ok_or(BeagleError::InvalidConfiguration(format!(
                    "parent buffer {parent_buffer} has never been computed"
                )))?;
        // Reuse the site-likelihood buffer instead of allocating a fresh one
        // per call (allocation-free hot path).
        let mut site_lnl = std::mem::take(&mut self.bufs.site_log_likelihoods);
        let result = (|| {
            let child = if let Some(p) = &self.bufs.partials[child_buffer] {
                EdgeChild::Partials(p.as_slice())
            } else if let Some(st) = &self.bufs.tip_states[child_buffer] {
                EdgeChild::States(st.as_slice())
            } else {
                return Err(BeagleError::InvalidConfiguration(format!(
                    "child buffer {child_buffer} has never been written"
                )));
            };
            let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());
            Ok((self.dispatch.integrate_edge)(
                &mut site_lnl,
                &parent,
                child,
                &self.bufs.matrices[matrix_index],
                &self.bufs.frequencies[frequencies_index],
                &self.bufs.category_weights[category_weights_index],
                &self.bufs.pattern_weights,
                cscale,
                cfg.state_count,
                self.bufs.state_stride,
                cfg.pattern_count,
                0,
            ))
        })();
        self.bufs.site_log_likelihoods = site_lnl;
        self.bufs.partials[parent_buffer] = Some(parent);
        self.recorder
            .finish(sw, KernelClass::EdgeIntegrate, cfg.pattern_count as u64, 0);
        let total = result?;
        if total.is_nan() {
            return Err(BeagleError::NumericalFailure(
                "edge log-likelihood is NaN (consider enabling scaling)".into(),
            ));
        }
        Ok(total)
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        Ok(widen_slice(&self.bufs.site_log_likelihoods))
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        self.recorder.stats()
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        self.recorder.take_journal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beagle_core::flags::Flags;

    fn instance(s: usize, kind: DispatchKind) -> CpuInstance<f32> {
        let details = InstanceDetails {
            implementation_name: "test".into(),
            resource_name: "test".into(),
            flags: Flags::NONE,
            thread_count: 1,
        };
        let config = InstanceConfig::for_tree(3, 13, s, 2);
        CpuInstance::with_dispatch_kind(config, Threading::Serial, kind, details).unwrap()
    }

    /// Destinations are reused without zero-filling, so a wide-state f32
    /// buffer's pad lanes must still be exact zeros after client partials
    /// and then operations have been written into it.
    #[test]
    fn wide_f32_destination_keeps_zero_pad_lanes_on_reuse() {
        for s in [20, 61] {
            for kind in [
                DispatchKind::Scalar,
                DispatchKind::Portable,
                DispatchKind::Avx2,
            ] {
                let mut inst = instance(s, kind);
                let cfg = inst.bufs.config;
                let sp = inst.bufs.state_stride;
                assert!(sp > s, "s={s} must be padded");
                let states: Vec<u32> = (0..13).map(|p| (p * 7 % s) as u32).collect();
                inst.set_tip_states(0, &states).unwrap();
                let tip: Vec<f64> = (0..13 * s).map(|i| 0.1 + (i % 9) as f64 / 10.0).collect();
                inst.set_tip_partials(1, &tip).unwrap();
                inst.set_tip_states(2, &states).unwrap();
                let m: Vec<f64> = (0..cfg.matrix_len())
                    .map(|i| 0.01 + (i % 13) as f64 / 20.0)
                    .collect();
                for b in 0..cfg.matrix_buffer_count {
                    inst.set_transition_matrix(b, &m).unwrap();
                }
                inst.set_partials(3, &vec![0.5; cfg.partials_len()])
                    .unwrap();
                let ops = [
                    Operation::new(3, 0, 0, 1, 1).with_scaling(0),
                    Operation::new(4, 3, 3, 2, 2).with_scaling(1),
                    Operation::new(3, 1, 1, 2, 2),
                    Operation::new(4, 0, 0, 3, 3),
                ];
                for op in ops {
                    inst.update_partials(&[op]).unwrap();
                    for b in [3, 4] {
                        let Some(buf) = &inst.bufs.partials[b] else {
                            continue;
                        };
                        for pat in buf.chunks_exact(sp) {
                            assert!(
                                pat[s..].iter().all(|x| x.to_bits() == 0),
                                "s={s} {kind:?}: buffer {b} pad lane written"
                            );
                        }
                    }
                }
            }
        }
    }
}
