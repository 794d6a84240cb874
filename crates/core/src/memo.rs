//! Epoch-based incremental computation: skip work whose inputs are
//! bit-identical to what the destination already holds.
//!
//! The paper's workloads are MCMC-driven: each proposal perturbs one branch
//! or one model parameter, yet a naive client refreshes every partial on
//! every move. BEAGLE leaves dirty tracking to clients (BEAST does it);
//! [`MemoInstance`] instead does it *inside* the library, as generic
//! operation memoization that every caller benefits from.
//!
//! # Scheme
//!
//! Every mutable buffer space (partials/tips, transition matrices, eigen
//! systems, category rates/weights, state frequencies, pattern weights,
//! scale factors) carries an **epoch**: the value of a per-instance logical
//! clock at the buffer's last actual write. Every destination additionally
//! carries an **input signature** describing exactly how its current
//! content was produced:
//!
//! * a partials destination holds `Op { op, child/matrix epochs }` after an
//!   executed operation, or `Direct` after a `set_*` (content kept for
//!   bit-compare);
//! * a matrix buffer holds `Derived { eigen epoch, rates epoch, t bits }`
//!   after `update_transition_matrices`, or `Direct` after
//!   `set_transition_matrix`;
//! * a cumulative scale buffer holds `Reset`, `OpScale` or `Accumulated`
//!   signatures mirroring the scale-factor bookkeeping calls.
//!
//! A call whose candidate signature equals the destination's stored
//! signature would write bit-identical content, so it is skipped entirely.
//! Mutating `set_*` calls are deduplicated by **full bit-pattern
//! comparison** (never hashed), so a skip can never be wrong.
//!
//! # Placement and toggling
//!
//! The manager installs the memo directly above the raw back-end — *below*
//! the operation queue, rescue, checkpoint and partitioned wrappers — so
//! deferred flushes, rescue re-runs, journal replays and checkpoint
//! restores all flow through it with their real call shapes. Bookkeeping
//! runs unconditionally; the `enabled` flag only gates the *skip decision*,
//! so [`BeagleInstance::set_incremental`] can be toggled mid-run without
//! ever desynchronizing the epoch state. `BEAGLE_INCREMENTAL_DISABLE=1`
//! prevents installation entirely (the escape hatch reproduces baseline
//! bits *and* timings).
//!
//! # Error handling
//!
//! If a forwarded call fails, every destination it might have touched gets
//! its epoch bumped and its signature cleared: the back-end's state is
//! unknown, so nothing downstream may be skipped. A queued retry after a
//! transient fault therefore re-executes rather than falsely skipping.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::call::Call;
use crate::error::Result;
use crate::obs::{self, EventKind, Recorder};
use crate::ops::Operation;

/// Environment variable that disables the incremental layer at creation
/// (the memo wrapper is not installed at all).
pub const INCREMENTAL_DISABLE_ENV: &str = "BEAGLE_INCREMENTAL_DISABLE";

/// Whether the environment disables incremental computation globally.
pub fn incremental_disabled_by_env() -> bool {
    std::env::var(INCREMENTAL_DISABLE_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Skip/hit counters of one [`MemoInstance`], exposed through
/// [`BeagleInstance::memo_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Whether the skip decision is currently enabled.
    pub enabled: bool,
    /// Partials operations skipped (destination already held the result).
    pub ops_skipped: u64,
    /// Partials operations actually forwarded to the back-end.
    pub ops_executed: u64,
    /// Transition-matrix derivations skipped.
    pub matrices_skipped: u64,
    /// Transition-matrix derivations actually forwarded.
    pub matrices_computed: u64,
    /// Root/edge integrations answered from the cached value.
    pub integrations_skipped: u64,
    /// Root/edge integrations actually forwarded.
    pub integrations_computed: u64,
    /// Mutating `set_*` calls elided because the content was bit-identical.
    pub sets_deduped: u64,
    /// Deferred `reset_scale_factors` + `accumulate_scale_factors` pairs
    /// skipped together because the cumulative buffer already held the
    /// identical accumulation.
    pub scale_pairs_skipped: u64,
}

impl MemoStats {
    /// Total number of skipped units of work, across every category. The
    /// partitioned parent compares this before/after a child call to keep
    /// partially-skipped batches out of the load balancer's rate estimates.
    pub fn total_skips(&self) -> u64 {
        self.ops_skipped
            + self.matrices_skipped
            + self.integrations_skipped
            + self.sets_deduped
            + self.scale_pairs_skipped
    }

    /// Fold another child's counters into this one (used by
    /// [`crate::multi::PartitionedInstance`] to aggregate across children).
    /// `enabled` stays true only if every merged child has skipping on.
    pub fn merge(&mut self, other: &MemoStats) {
        self.enabled &= other.enabled;
        self.ops_skipped += other.ops_skipped;
        self.ops_executed += other.ops_executed;
        self.matrices_skipped += other.matrices_skipped;
        self.matrices_computed += other.matrices_computed;
        self.integrations_skipped += other.integrations_skipped;
        self.integrations_computed += other.integrations_computed;
        self.sets_deduped += other.sets_deduped;
        self.scale_pairs_skipped += other.scale_pairs_skipped;
    }
}

/// How a partials destination got its current content.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PartialsSig {
    /// Set directly; the bits live in the memo's direct-content map.
    Direct,
    /// Produced by `op` when its inputs had these epochs.
    Op {
        op: Operation,
        c1: u64,
        m1: u64,
        c2: u64,
        m2: u64,
    },
}

/// How a transition-matrix buffer got its current content.
#[derive(Clone, Debug, PartialEq)]
enum MatrixSig {
    /// Set directly; the bits live in the memo's direct-content map.
    Direct,
    /// Derived from an eigen system and a branch length.
    Derived {
        eigen_index: usize,
        eigen_epoch: u64,
        rates_epoch: u64,
        t_bits: u64,
    },
}

/// How a scale buffer got its current content.
#[derive(Clone, Debug, PartialEq)]
enum ScaleSig {
    /// Zeroed by `reset_scale_factors`.
    Reset,
    /// Holds the per-op rescale factors written for `dest` at `dest_epoch`.
    OpScale { dest: usize, dest_epoch: u64 },
    /// Holds `reset` + `accumulate` of these `(scale index, epoch)` pairs.
    Accumulated(Vec<(usize, u64)>),
}

/// Signature of the most recent root/edge integration.
#[derive(Clone, Debug, PartialEq)]
struct IntegrationSig {
    edge: bool,
    buffers: [usize; 3],
    part_epochs: [u64; 2],
    matrix_epoch: u64,
    catw: (usize, u64),
    freq: (usize, u64),
    pattern_weights_epoch: u64,
    scaling: ScalingMode,
    scale_epoch: u64,
}

fn epoch_at(v: &[u64], i: usize) -> u64 {
    v.get(i).copied().unwrap_or(0)
}

fn bump_at(v: &mut Vec<u64>, i: usize, epoch: u64) {
    if i >= v.len() {
        v.resize(i + 1, 0);
    }
    v[i] = epoch;
}

fn slot<T>(v: &mut Vec<Option<T>>, i: usize) -> &mut Option<T> {
    if i >= v.len() {
        v.resize_with(i + 1, || None);
    }
    &mut v[i]
}

fn get_slot<T>(v: &[Option<T>], i: usize) -> Option<&T> {
    v.get(i).and_then(|s| s.as_ref())
}

/// The buffer a direct write (a `set_*` call) targets. Every such call is
/// deduplicated by one keyed-slot helper ([`MemoInstance::set_direct`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SetKey {
    /// A partials buffer: tip states, tip partials or direct partials.
    Partials(usize),
    Matrix(usize),
    Eigen(usize),
    Frequencies(usize),
    CategoryWeights(usize),
    CategoryRates,
    PatternWeights,
}

/// Exact content of a direct write, kept for dedup comparison: tip states
/// verbatim, any other payload as the bit patterns of its values, led by a
/// call-kind tag and each part's length (so a tip-partials write never
/// matches a partials write of the same bits, nor one eigen split another).
#[derive(Debug, PartialEq)]
enum Content {
    States(Vec<u32>),
    Bits(Vec<u64>),
}

impl SetKey {
    /// The slot a direct write targets and its content; `None` for
    /// computed writes.
    fn of(call: &Call<'_>) -> Option<(SetKey, Content)> {
        fn bits(tag: u64, parts: &[&Cow<'_, [f64]>]) -> Content {
            let words = 1 + parts.iter().map(|p| 1 + p.len()).sum::<usize>();
            let mut out = Vec::with_capacity(words);
            out.push(tag);
            for part in parts {
                out.push(part.len() as u64);
                out.extend(part.iter().map(|x| x.to_bits()));
            }
            Content::Bits(out)
        }
        Some(match call {
            Call::SetTipStates(tip, states) => {
                (SetKey::Partials(*tip), Content::States(states.to_vec()))
            }
            Call::SetTipPartials(tip, p) => (SetKey::Partials(*tip), bits(1, &[p])),
            Call::SetPartials(buffer, p) => (SetKey::Partials(*buffer), bits(2, &[p])),
            Call::SetTransitionMatrix(i, m) => (SetKey::Matrix(*i), bits(0, &[m])),
            Call::SetEigenDecomposition(i, v, iv, ev) => (SetKey::Eigen(*i), bits(0, &[v, iv, ev])),
            Call::SetStateFrequencies(i, f) => (SetKey::Frequencies(*i), bits(0, &[f])),
            Call::SetCategoryWeights(i, w) => (SetKey::CategoryWeights(*i), bits(0, &[w])),
            Call::SetCategoryRates(rates) => (SetKey::CategoryRates, bits(0, &[rates])),
            Call::SetPatternWeights(w) => (SetKey::PatternWeights, bits(0, &[w])),
            _ => return None,
        })
    }
}

/// The incremental memoization wrapper. See the module docs for the scheme;
/// created by the manager directly above the raw back-end.
pub struct MemoInstance {
    inner: Box<dyn BeagleInstance>,
    enabled: bool,
    clock: u64,

    /// Content of each buffer whose last write was a successful direct
    /// `set_*`, kept for exact dedup comparison. Computed writes and
    /// failures clear the slot.
    direct: HashMap<SetKey, Content>,

    partials_epoch: Vec<u64>,
    partials_sig: Vec<Option<PartialsSig>>,

    matrix_epoch: Vec<u64>,
    matrix_sig: Vec<Option<MatrixSig>>,

    eigen_epoch: Vec<u64>,
    freq_epoch: Vec<u64>,
    catw_epoch: Vec<u64>,
    rates_epoch: u64,
    pattern_weights_epoch: u64,

    scale_epoch: Vec<u64>,
    scale_sig: Vec<Option<ScaleSig>>,
    pending_resets: BTreeSet<usize>,

    last_integration: Option<(IntegrationSig, f64)>,

    stats: MemoStats,
    recorder: Recorder,
}

impl MemoInstance {
    /// Wrap a raw back-end instance.
    pub fn new(inner: Box<dyn BeagleInstance>) -> Self {
        let recorder = Recorder::new(inner.statistics().is_some());
        let cfg = *inner.config();
        Self {
            inner,
            enabled: true,
            clock: 0,
            direct: HashMap::new(),
            partials_epoch: vec![0; cfg.partials_buffer_count],
            partials_sig: Vec::new(),
            matrix_epoch: vec![0; cfg.matrix_buffer_count],
            matrix_sig: Vec::new(),
            eigen_epoch: vec![0; cfg.eigen_buffer_count],
            freq_epoch: Vec::new(),
            catw_epoch: Vec::new(),
            rates_epoch: 0,
            pattern_weights_epoch: 0,
            scale_epoch: vec![0; cfg.scale_buffer_count],
            scale_sig: Vec::new(),
            pending_resets: BTreeSet::new(),
            last_integration: None,
            stats: MemoStats {
                enabled: true,
                ..MemoStats::default()
            },
            recorder,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The epoch of a direct-write slot.
    fn epoch_mut(&mut self, key: SetKey) -> &mut u64 {
        let (epochs, i) = match key {
            SetKey::Partials(i) => (&mut self.partials_epoch, i),
            SetKey::Matrix(i) => (&mut self.matrix_epoch, i),
            SetKey::Eigen(i) => (&mut self.eigen_epoch, i),
            SetKey::Frequencies(i) => (&mut self.freq_epoch, i),
            SetKey::CategoryWeights(i) => (&mut self.catw_epoch, i),
            SetKey::CategoryRates => return &mut self.rates_epoch,
            SetKey::PatternWeights => return &mut self.pattern_weights_epoch,
        };
        if i >= epochs.len() {
            epochs.resize(i + 1, 0);
        }
        &mut epochs[i]
    }

    /// Keyed-slot dedup for a direct write: a call whose content is
    /// bit-identical to what its slot holds is elided (when skipping is
    /// enabled). Otherwise the call is forwarded and the slot's epoch
    /// ticks; the slot keeps the content (and a partials or matrix buffer
    /// its `Direct` signature) only if the back-end accepted the write.
    fn set_direct(&mut self, key: SetKey, content: Content, call: &Call<'_>) -> Result<()> {
        if self.direct.get(&key) == Some(&content) {
            self.stats.sets_deduped += 1;
            if self.enabled {
                return Ok(());
            }
            return call.apply(self.inner.as_mut());
        }
        let result = call.apply(self.inner.as_mut());
        let e = self.tick();
        *self.epoch_mut(key) = e;
        let ok = result.is_ok();
        match key {
            SetKey::Partials(i) => {
                *slot(&mut self.partials_sig, i) = ok.then_some(PartialsSig::Direct)
            }
            SetKey::Matrix(i) => *slot(&mut self.matrix_sig, i) = ok.then_some(MatrixSig::Direct),
            _ => {}
        }
        if ok {
            self.direct.insert(key, content);
        } else {
            self.direct.remove(&key);
        }
        self.last_integration = None;
        result
    }

    /// Invalidate a partials destination after a failed or unknown write.
    fn poison_partials(&mut self, dest: usize) {
        let e = self.tick();
        bump_at(&mut self.partials_epoch, dest, e);
        *slot(&mut self.partials_sig, dest) = None;
        self.direct.remove(&SetKey::Partials(dest));
        self.last_integration = None;
    }

    fn poison_matrix(&mut self, index: usize) {
        let e = self.tick();
        bump_at(&mut self.matrix_epoch, index, e);
        *slot(&mut self.matrix_sig, index) = None;
        self.direct.remove(&SetKey::Matrix(index));
        self.last_integration = None;
    }

    fn poison_scale(&mut self, index: usize) {
        let e = self.tick();
        bump_at(&mut self.scale_epoch, index, e);
        *slot(&mut self.scale_sig, index) = None;
        self.pending_resets.remove(&index);
        self.last_integration = None;
    }

    /// Execute any deferred `reset_scale_factors` whose buffer appears in
    /// `touched`, preserving the client's original call order.
    fn flush_resets_among(&mut self, touched: &[usize]) -> Result<()> {
        for &c in touched {
            if !self.pending_resets.remove(&c) {
                continue;
            }
            match self.inner.reset_scale_factors(c) {
                Ok(()) => {
                    let e = self.tick();
                    bump_at(&mut self.scale_epoch, c, e);
                    *slot(&mut self.scale_sig, c) = Some(ScaleSig::Reset);
                }
                Err(e) => {
                    self.poison_scale(c);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Plan one operation list: split into skipped ops and a forwarded
    /// remainder, with the epoch/signature commits to apply on success.
    /// `tent` carries tentative epochs of destinations already planned for
    /// execution earlier in the same submission (sequential semantics).
    #[allow(clippy::type_complexity)]
    fn plan_ops(
        &self,
        operations: &[Operation],
        tent: &mut HashMap<usize, u64>,
        next_epoch: &mut u64,
    ) -> (
        Vec<Operation>,
        Vec<(Operation, PartialsSig, u64, Option<u64>)>,
        u64,
    ) {
        let mut forward = Vec::new();
        let mut commits = Vec::new();
        let mut skipped = 0u64;
        for &op in operations {
            let part_epoch = |b: usize| {
                tent.get(&b)
                    .copied()
                    .unwrap_or_else(|| epoch_at(&self.partials_epoch, b))
            };
            let sig = PartialsSig::Op {
                op,
                c1: part_epoch(op.child1),
                m1: epoch_at(&self.matrix_epoch, op.child1_matrix),
                c2: part_epoch(op.child2),
                m2: epoch_at(&self.matrix_epoch, op.child2_matrix),
            };
            let scale_clean = match op.dest_scale_write {
                None => true,
                Some(s) => {
                    // Skipping the op also skips its scale-factor write, so
                    // the scale buffer must already hold this op's factors
                    // for the destination's current content.
                    get_slot(&self.scale_sig, s)
                        == Some(&ScaleSig::OpScale {
                            dest: op.destination,
                            dest_epoch: part_epoch(op.destination),
                        })
                }
            };
            if self.enabled
                && scale_clean
                && get_slot(&self.partials_sig, op.destination) == Some(&sig)
            {
                skipped += 1;
                continue;
            }
            *next_epoch += 1;
            let dest_epoch = *next_epoch;
            tent.insert(op.destination, dest_epoch);
            let scale_epoch = op.dest_scale_write.map(|_| {
                *next_epoch += 1;
                *next_epoch
            });
            forward.push(op);
            commits.push((op, sig, dest_epoch, scale_epoch));
        }
        (forward, commits, skipped)
    }

    /// Apply the planned commits after the back-end accepted the forwarded
    /// operations.
    fn commit_ops(&mut self, commits: Vec<(Operation, PartialsSig, u64, Option<u64>)>) {
        for (op, sig, dest_epoch, scale_epoch) in commits {
            bump_at(&mut self.partials_epoch, op.destination, dest_epoch);
            *slot(&mut self.partials_sig, op.destination) = Some(sig);
            self.direct.remove(&SetKey::Partials(op.destination));
            if let (Some(s), Some(se)) = (op.dest_scale_write, scale_epoch) {
                bump_at(&mut self.scale_epoch, s, se);
                *slot(&mut self.scale_sig, s) = Some(ScaleSig::OpScale {
                    dest: op.destination,
                    dest_epoch,
                });
            }
            self.clock = self.clock.max(dest_epoch).max(scale_epoch.unwrap_or(0));
        }
        self.last_integration = None;
    }

    /// Invalidate every destination of a failed forwarded submission.
    fn poison_ops(&mut self, commits: &[(Operation, PartialsSig, u64, Option<u64>)]) {
        for (op, _, _, _) in commits {
            self.poison_partials(op.destination);
            if let Some(s) = op.dest_scale_write {
                self.poison_scale(s);
            }
        }
    }

    fn skip_event(&mut self, what: &str, skipped: u64, total: usize) {
        self.stats.ops_skipped += skipped;
        let enabled = self.recorder.is_enabled();
        if enabled && skipped > 0 {
            self.recorder.event(EventKind::IncrementalSkip, || {
                format!("{what}: skipped {skipped}/{total} ops")
            });
        }
    }

    /// Memoized partials submission: `levels` is the single operation list
    /// of an `update_partials` call, or the dependency levels of an
    /// `update_partials_by_levels` call (`by_levels`), forwarded in the same
    /// shape minus the skipped operations.
    fn run_partials<L: AsRef<[Operation]>>(&mut self, levels: &[L], by_levels: bool) -> Result<()> {
        let scale_targets: Vec<usize> = levels
            .iter()
            .flat_map(|level| level.as_ref())
            .filter_map(|op| op.dest_scale_write)
            .collect();
        self.flush_resets_among(&scale_targets)?;
        let mut tent = HashMap::new();
        let mut next_epoch = self.clock;
        let mut fwd_levels: Vec<Vec<Operation>> = Vec::new();
        let mut all_commits = Vec::new();
        let mut skipped = 0u64;
        let mut total = 0usize;
        for level in levels {
            let level = level.as_ref();
            total += level.len();
            let (forward, commits, s) = self.plan_ops(level, &mut tent, &mut next_epoch);
            skipped += s;
            all_commits.extend(commits);
            if !forward.is_empty() {
                fwd_levels.push(forward);
            }
        }
        let what = if by_levels {
            "update_partials_by_levels"
        } else {
            "update_partials"
        };
        self.skip_event(what, skipped, total);
        if fwd_levels.is_empty() {
            return Ok(());
        }
        self.stats.ops_executed += all_commits.len() as u64;
        let result = if by_levels {
            self.inner.update_partials_by_levels(&fwd_levels)
        } else {
            self.inner.update_partials(&fwd_levels[0])
        };
        match result {
            Ok(()) => {
                self.commit_ops(all_commits);
                Ok(())
            }
            Err(e) => {
                self.poison_ops(&all_commits);
                Err(e)
            }
        }
    }

    /// Memoized `update_transition_matrices`: derivations whose signature
    /// (eigen epoch, rates epoch, branch-length bits) the destination
    /// already holds are skipped.
    fn update_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        if matrix_indices.len() != branch_lengths.len() {
            // Malformed call; let the back-end produce its usual error.
            return self.inner.update_transition_matrices(
                eigen_index,
                matrix_indices,
                branch_lengths,
            );
        }
        let eigen_epoch = epoch_at(&self.eigen_epoch, eigen_index);
        let mut fwd_idx = Vec::new();
        let mut fwd_len = Vec::new();
        let mut sigs = Vec::new();
        let mut skipped = 0u64;
        for (&idx, &t) in matrix_indices.iter().zip(branch_lengths) {
            let sig = MatrixSig::Derived {
                eigen_index,
                eigen_epoch,
                rates_epoch: self.rates_epoch,
                t_bits: t.to_bits(),
            };
            if self.enabled && get_slot(&self.matrix_sig, idx) == Some(&sig) {
                skipped += 1;
                continue;
            }
            fwd_idx.push(idx);
            fwd_len.push(t);
            sigs.push((idx, sig));
        }
        self.stats.matrices_skipped += skipped;
        if skipped > 0 && self.recorder.is_enabled() {
            let total = matrix_indices.len();
            self.recorder.event(EventKind::IncrementalSkip, || {
                format!("transition matrices: skipped {skipped}/{total}")
            });
        }
        if fwd_idx.is_empty() {
            return Ok(());
        }
        self.stats.matrices_computed += fwd_idx.len() as u64;
        match self
            .inner
            .update_transition_matrices(eigen_index, &fwd_idx, &fwd_len)
        {
            Ok(()) => {
                for (idx, sig) in sigs {
                    let e = self.tick();
                    bump_at(&mut self.matrix_epoch, idx, e);
                    *slot(&mut self.matrix_sig, idx) = Some(sig);
                    self.direct.remove(&SetKey::Matrix(idx));
                }
                self.last_integration = None;
                Ok(())
            }
            Err(e) => {
                for (idx, _) in sigs {
                    self.poison_matrix(idx);
                }
                Err(e)
            }
        }
    }

    /// `reset_scale_factors`, deferred while skipping is enabled: a
    /// matching accumulate may prove the whole pair clean.
    fn reset_scale(&mut self, cumulative: usize) -> Result<()> {
        if self.enabled {
            if get_slot(&self.scale_sig, cumulative) == Some(&ScaleSig::Reset)
                && !self.pending_resets.contains(&cumulative)
            {
                // Already zeroed; re-zeroing is a no-op.
                self.stats.sets_deduped += 1;
                return Ok(());
            }
            self.pending_resets.insert(cumulative);
            return Ok(());
        }
        match self.inner.reset_scale_factors(cumulative) {
            Ok(()) => {
                if get_slot(&self.scale_sig, cumulative) != Some(&ScaleSig::Reset) {
                    let e = self.tick();
                    bump_at(&mut self.scale_epoch, cumulative, e);
                    *slot(&mut self.scale_sig, cumulative) = Some(ScaleSig::Reset);
                    self.last_integration = None;
                }
                Ok(())
            }
            Err(e) => {
                self.poison_scale(cumulative);
                Err(e)
            }
        }
    }

    /// `accumulate_scale_factors`; skipped together with a deferred reset
    /// when the pair would recreate the cumulative buffer's content.
    fn accumulate_scale(&mut self, scale_indices: &[usize], cumulative: usize) -> Result<()> {
        // A pending reset of one of the *source* buffers must land first.
        let sources: Vec<usize> = scale_indices
            .iter()
            .copied()
            .filter(|i| *i != cumulative)
            .collect();
        self.flush_resets_among(&sources)?;
        let candidate = ScaleSig::Accumulated(
            scale_indices
                .iter()
                .map(|&i| (i, epoch_at(&self.scale_epoch, i)))
                .collect(),
        );
        if self.enabled
            && self.pending_resets.contains(&cumulative)
            && get_slot(&self.scale_sig, cumulative) == Some(&candidate)
        {
            // The deferred reset + this accumulate would recreate exactly
            // the content the cumulative buffer already holds.
            self.pending_resets.remove(&cumulative);
            self.stats.scale_pairs_skipped += 1;
            if self.recorder.is_enabled() {
                let n = scale_indices.len();
                self.recorder.event(EventKind::IncrementalSkip, || {
                    format!("scale reset+accumulate({n}) pair at buffer {cumulative}")
                });
            }
            return Ok(());
        }
        self.flush_resets_among(&[cumulative])?;
        let fresh = get_slot(&self.scale_sig, cumulative) == Some(&ScaleSig::Reset);
        match self
            .inner
            .accumulate_scale_factors(scale_indices, cumulative)
        {
            Ok(()) => {
                let e = self.tick();
                bump_at(&mut self.scale_epoch, cumulative, e);
                // Only a reset-then-accumulate sequence yields reproducible
                // content; accumulating onto prior factors is not modeled.
                *slot(&mut self.scale_sig, cumulative) = fresh.then_some(candidate);
                self.last_integration = None;
                Ok(())
            }
            Err(e) => {
                self.poison_scale(cumulative);
                Err(e)
            }
        }
    }

    /// Signature of a root integration at `parent` (`edge = None`) or an
    /// edge integration from `parent` to `edge = (child, matrix)`. Lands a
    /// deferred reset of the cumulative scale buffer first.
    fn integration_sig(
        &mut self,
        parent: BufferId,
        edge: Option<(BufferId, BufferId)>,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<IntegrationSig> {
        let scale_epoch = match scaling {
            ScalingMode::None => 0,
            ScalingMode::Cumulative(c) => {
                self.flush_resets_among(&[c.0])?;
                epoch_at(&self.scale_epoch, c.0)
            }
        };
        // A root integration has no child or matrix: the sentinel index
        // reads epoch 0.
        let (child, matrix) = edge.map_or((usize::MAX, usize::MAX), |(c, m)| (c.0, m.0));
        Ok(IntegrationSig {
            edge: edge.is_some(),
            buffers: [parent.0, child, matrix],
            part_epochs: [
                epoch_at(&self.partials_epoch, parent.0),
                epoch_at(&self.partials_epoch, child),
            ],
            matrix_epoch: epoch_at(&self.matrix_epoch, matrix),
            catw: (
                category_weights.0,
                epoch_at(&self.catw_epoch, category_weights.0),
            ),
            freq: (frequencies.0, epoch_at(&self.freq_epoch, frequencies.0)),
            pattern_weights_epoch: self.pattern_weights_epoch,
            scaling,
            scale_epoch,
        })
    }

    /// Answer an integration with signature `sig` from the cached value, or
    /// run it and cache a finite result.
    fn integrate_memo(
        &mut self,
        sig: IntegrationSig,
        what: impl FnOnce() -> String,
        integrate: impl FnOnce(&mut dyn BeagleInstance) -> Result<f64>,
    ) -> Result<f64> {
        if let Some((cached, value)) = &self.last_integration {
            if self.enabled && cached == &sig {
                let v = *value;
                self.stats.integrations_skipped += 1;
                self.recorder
                    .event(EventKind::IncrementalSkip, || format!("{} -> {v}", what()));
                return Ok(v);
            }
        }
        self.stats.integrations_computed += 1;
        let r = integrate(self.inner.as_mut());
        self.last_integration = match &r {
            Ok(v) if v.is_finite() => Some((sig, *v)),
            _ => None,
        };
        r
    }
}

impl BeagleInstance for MemoInstance {
    fn details(&self) -> &InstanceDetails {
        self.inner.details()
    }

    fn config(&self) -> &InstanceConfig {
        self.inner.config()
    }

    fn inner(&self) -> Option<&dyn BeagleInstance> {
        Some(self.inner.as_ref())
    }

    fn inner_mut(&mut self) -> Option<&mut dyn BeagleInstance> {
        Some(self.inner.as_mut())
    }

    fn recorder(&self) -> Option<&Recorder> {
        Some(&self.recorder)
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        Some(&mut self.recorder)
    }

    fn call(&mut self, call: Call<'_>) -> Result<()> {
        if let Some((key, content)) = SetKey::of(&call) {
            return self.set_direct(key, content, &call);
        }
        match call {
            Call::UpdatePartials(ops) => self.run_partials(std::slice::from_ref(&ops), false),
            Call::UpdatePartialsByLevels(levels) => self.run_partials(&levels, true),
            Call::UpdateTransitionMatrices(eigen, matrices, lengths) => {
                self.update_matrices(eigen, &matrices, &lengths)
            }
            Call::UpdateTransitionDerivatives(_, ref matrices, ref d1, ref d2, _) => {
                // Derivative buffers are not modeled by signatures;
                // invalidate every written matrix so nothing downstream is
                // ever falsely skipped.
                let r = call.apply(self.inner.as_mut());
                for &idx in matrices.iter().chain(d1.iter()).chain(d2.iter()) {
                    self.poison_matrix(idx);
                }
                r
            }
            Call::ResetScaleFactors(cumulative) => self.reset_scale(cumulative),
            Call::AccumulateScaleFactors(indices, cumulative) => {
                self.accumulate_scale(&indices, cumulative)
            }
            _ => unreachable!("direct writes are deduplicated above"),
        }
    }

    #[allow(clippy::too_many_arguments)]
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
        if let ScalingMode::Cumulative(c) = scaling {
            self.flush_resets_among(&[c.0])?;
        }
        // Overwrites the back-end's site-likelihood state; drop the cached
        // integration so a later identical root/edge call re-executes.
        self.last_integration = None;
        self.inner.integrate_edge_derivatives(
            parent,
            child,
            matrix,
            d1_matrix,
            d2_matrix,
            category_weights,
            frequencies,
            scaling,
        )
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        let sig = self.integration_sig(root, None, category_weights, frequencies, scaling)?;
        self.integrate_memo(
            sig,
            || format!("root integration at buffer {root}"),
            |inner| inner.integrate_root(root, category_weights, frequencies, scaling),
        )
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
        let sig = self.integration_sig(
            parent,
            Some((child, matrix)),
            category_weights,
            frequencies,
            scaling,
        )?;
        self.integrate_memo(
            sig,
            || format!("edge integration {parent}->{child}"),
            |inner| {
                inner.integrate_edge(
                    parent,
                    child,
                    matrix,
                    category_weights,
                    frequencies,
                    scaling,
                )
            },
        )
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        let mut stats = self.inner.statistics()?;
        if let Some(own) = self.recorder.stats() {
            stats.merge(&own);
        }
        stats.ops_skipped += self.stats.ops_skipped;
        stats.matrices_skipped += self.stats.matrices_skipped;
        stats.integrations_skipped += self.stats.integrations_skipped;
        stats.sets_deduped += self.stats.sets_deduped + self.stats.scale_pairs_skipped;
        Some(stats)
    }

    fn set_incremental(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.stats.enabled = enabled;
        self.inner.set_incremental(enabled);
    }

    fn memo_stats(&self) -> Option<MemoStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BeagleError;
    use crate::flags::Flags;

    use std::sync::{Arc, Mutex};

    type CallLog = Arc<Mutex<Vec<String>>>;

    /// A back-end that logs every call so skips are observable, with an
    /// injectable `update_partials` failure for the poisoning tests.
    struct MockInstance {
        details: InstanceDetails,
        config: InstanceConfig,
        calls: CallLog,
        fail_updates: Arc<Mutex<u32>>,
    }

    impl MockInstance {
        fn log(&self, entry: impl Into<String>) {
            self.calls.lock().unwrap().push(entry.into());
        }
    }

    impl BeagleInstance for MockInstance {
        fn details(&self) -> &InstanceDetails {
            &self.details
        }
        fn config(&self) -> &InstanceConfig {
            &self.config
        }
        fn set_tip_states(&mut self, tip: usize, _: &[u32]) -> Result<()> {
            self.log(format!("tips:{tip}"));
            Ok(())
        }
        fn set_tip_partials(&mut self, tip: usize, _: &[f64]) -> Result<()> {
            self.log(format!("tpart:{tip}"));
            Ok(())
        }
        fn set_partials(&mut self, buffer: usize, _: &[f64]) -> Result<()> {
            self.log(format!("part:{buffer}"));
            Ok(())
        }
        fn get_partials(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn set_pattern_weights(&mut self, _: &[f64]) -> Result<()> {
            self.log("weights");
            Ok(())
        }
        fn set_state_frequencies(&mut self, index: usize, _: &[f64]) -> Result<()> {
            self.log(format!("freq:{index}"));
            Ok(())
        }
        fn set_category_rates(&mut self, _: &[f64]) -> Result<()> {
            self.log("rates");
            Ok(())
        }
        fn set_category_weights(&mut self, index: usize, _: &[f64]) -> Result<()> {
            self.log(format!("catw:{index}"));
            Ok(())
        }
        fn set_eigen_decomposition(
            &mut self,
            index: usize,
            _: &[f64],
            _: &[f64],
            _: &[f64],
        ) -> Result<()> {
            self.log(format!("eigen:{index}"));
            Ok(())
        }
        fn update_transition_matrices(
            &mut self,
            _: usize,
            matrix_indices: &[usize],
            _: &[f64],
        ) -> Result<()> {
            self.log(format!("utm:{}", matrix_indices.len()));
            Ok(())
        }
        fn set_transition_matrix(&mut self, index: usize, _: &[f64]) -> Result<()> {
            self.log(format!("stm:{index}"));
            Ok(())
        }
        fn get_transition_matrix(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
            let mut fails = self.fail_updates.lock().unwrap();
            if *fails > 0 {
                *fails -= 1;
                return Err(BeagleError::InvalidConfiguration("injected".into()));
            }
            self.log(format!("up:{}", operations.len()));
            Ok(())
        }
        fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
            self.log(format!("reset:{cumulative}"));
            Ok(())
        }
        fn accumulate_scale_factors(&mut self, _: &[usize], cumulative: usize) -> Result<()> {
            self.log(format!("accum:{cumulative}"));
            Ok(())
        }
        fn integrate_root(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: ScalingMode,
        ) -> Result<f64> {
            self.log("root");
            Ok(-42.0)
        }
        fn integrate_edge(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: ScalingMode,
        ) -> Result<f64> {
            self.log("edge");
            Ok(-42.0)
        }
        fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
            Ok(vec![])
        }
    }

    fn wrapped() -> (MemoInstance, CallLog, Arc<Mutex<u32>>) {
        let calls: CallLog = Arc::new(Mutex::new(Vec::new()));
        let fail_updates = Arc::new(Mutex::new(0u32));
        let mock = MockInstance {
            details: InstanceDetails {
                implementation_name: "mock".into(),
                resource_name: "mock".into(),
                flags: Flags::NONE,
                thread_count: 1,
            },
            config: InstanceConfig::for_tree(4, 10, 4, 1),
            calls: calls.clone(),
            fail_updates: fail_updates.clone(),
        };
        (MemoInstance::new(Box::new(mock)), calls, fail_updates)
    }

    fn log(calls: &CallLog) -> Vec<String> {
        calls.lock().unwrap().clone()
    }

    fn op(dest: usize, c1: usize, c2: usize) -> Operation {
        Operation::new(dest, c1, c1, c2, c2)
    }

    /// The four-tip scaled traversal used by the round-trip tests.
    fn scaled_ops() -> Vec<Operation> {
        vec![
            op(4, 0, 1).with_scaling(4),
            op(5, 2, 3).with_scaling(5),
            op(6, 4, 5).with_scaling(6),
        ]
    }

    /// One full MCMC-style evaluation: data + model upload, matrices,
    /// scaled traversal, scale accumulation, scaled root integration.
    fn round(m: &mut MemoInstance) -> f64 {
        for tip in 0..4 {
            m.set_tip_states(tip, &[tip as u32; 10]).unwrap();
        }
        m.set_category_rates(&[1.0]).unwrap();
        m.set_category_weights(0, &[1.0]).unwrap();
        m.set_state_frequencies(0, &[0.25; 4]).unwrap();
        m.set_pattern_weights(&[1.0; 10]).unwrap();
        m.set_eigen_decomposition(0, &[1.0; 16], &[1.0; 16], &[0.5; 4])
            .unwrap();
        m.update_transition_matrices(0, &[0, 1, 2, 3], &[0.1, 0.2, 0.3, 0.4])
            .unwrap();
        m.update_partials(&scaled_ops()).unwrap();
        m.reset_scale_factors(7).unwrap();
        m.accumulate_scale_factors(&[4, 5, 6], 7).unwrap();
        m.integrate_root(
            BufferId(6),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(7),
        )
        .unwrap()
    }

    #[test]
    fn identical_sets_are_deduplicated() {
        let (mut m, calls, _) = wrapped();
        m.set_tip_states(0, &[1, 2]).unwrap();
        m.set_tip_states(0, &[1, 2]).unwrap();
        assert_eq!(log(&calls), vec!["tips:0"]);
        assert_eq!(m.memo_stats().unwrap().sets_deduped, 1);
        // A changed payload must reach the back-end again.
        m.set_tip_states(0, &[2, 2]).unwrap();
        assert_eq!(log(&calls), vec!["tips:0", "tips:0"]);
    }

    #[test]
    fn steady_state_round_is_fully_skipped() {
        let (mut m, calls, _) = wrapped();
        let first = round(&mut m);
        let after_first = log(&calls);
        assert!(after_first.contains(&"up:3".to_string()));
        assert!(after_first.contains(&"root".to_string()));

        let second = round(&mut m);
        assert_eq!(second.to_bits(), first.to_bits());
        assert_eq!(
            log(&calls),
            after_first,
            "a bit-identical round must not reach the back-end at all"
        );
        let stats = m.memo_stats().unwrap();
        assert_eq!(stats.ops_skipped, 3);
        assert_eq!(stats.matrices_skipped, 4);
        assert_eq!(stats.integrations_skipped, 1);
        assert_eq!(stats.scale_pairs_skipped, 1);
        assert_eq!(stats.sets_deduped, 9);
    }

    #[test]
    fn changed_branch_recomputes_only_the_dirty_path() {
        let (mut m, calls, _) = wrapped();
        round(&mut m);
        let baseline = log(&calls).len();
        // Perturb one branch: matrix 1 feeds op(4,..), whose new output
        // feeds op(6,..); op(5,..) is untouched and must stay skipped.
        m.update_transition_matrices(0, &[1], &[9.0]).unwrap();
        m.update_partials(&scaled_ops()).unwrap();
        m.reset_scale_factors(7).unwrap();
        m.accumulate_scale_factors(&[4, 5, 6], 7).unwrap();
        m.integrate_root(
            BufferId(6),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(7),
        )
        .unwrap();
        assert_eq!(
            log(&calls)[baseline..],
            ["utm:1", "up:2", "reset:7", "accum:7", "root"],
            "only the proposal-to-root path re-executes"
        );
    }

    #[test]
    fn toggling_skips_on_midrun_uses_the_maintained_bookkeeping() {
        let (mut m, calls, _) = wrapped();
        m.set_incremental(false);
        round(&mut m);
        let once = log(&calls).len();
        round(&mut m);
        assert_eq!(
            log(&calls).len(),
            2 * once,
            "disabled mode forwards every call"
        );
        // Bookkeeping ran the whole time, so enabling now skips immediately.
        m.set_incremental(true);
        round(&mut m);
        assert_eq!(log(&calls).len(), 2 * once);
        assert!(m.memo_stats().unwrap().total_skips() > 0);
    }

    #[test]
    fn failed_submission_poisons_its_destinations() {
        let (mut m, calls, fail) = wrapped();
        round(&mut m);
        // Dirty the left subtree, then fail its re-execution.
        m.set_tip_states(0, &[9; 10]).unwrap();
        *fail.lock().unwrap() = 1;
        assert!(m.update_partials(&scaled_ops()).is_err());
        let baseline = log(&calls).len();
        // The retry must re-forward the two failed destinations (4 and 6)
        // rather than falsely skipping them; op(5,..) stays clean.
        m.update_partials(&scaled_ops()).unwrap();
        assert_eq!(log(&calls)[baseline..], ["up:2"]);
        // The cached integration died with the poisoning: root re-executes.
        let before_root = log(&calls).len();
        m.reset_scale_factors(7).unwrap();
        m.accumulate_scale_factors(&[4, 5, 6], 7).unwrap();
        m.integrate_root(
            BufferId(6),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(7),
        )
        .unwrap();
        assert!(log(&calls)[before_root..].contains(&"root".to_string()));
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = MemoStats {
            enabled: true,
            ops_skipped: 1,
            ops_executed: 2,
            ..MemoStats::default()
        };
        let b = MemoStats {
            enabled: false,
            ops_skipped: 10,
            sets_deduped: 3,
            ..MemoStats::default()
        };
        a.merge(&b);
        assert!(!a.enabled);
        assert_eq!(a.ops_skipped, 11);
        assert_eq!(a.ops_executed, 2);
        assert_eq!(a.sets_deduped, 3);
    }
}
