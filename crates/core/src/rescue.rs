//! Automatic numerical rescue: transparent per-pattern rescaling.
//!
//! Deep trees and many rate categories underflow single- (and eventually
//! double-) precision partials: the root integration then produces NaN or
//! −∞ and the back-end surfaces [`crate::BeagleError::NumericalFailure`].
//! The classical fix is manual scaling — the client passes
//! `dest_scale_write` on every operation and accumulates log scale factors
//! — but most clients only discover they needed it when the run dies.
//!
//! [`RescueInstance`] wraps any [`BeagleInstance`] and automates the fix:
//! it journals the partials traversal, and when a root/edge integration
//! *without* a cumulative scale buffer fails numerically, it re-runs the
//! recorded operations with per-destination rescaling, accumulates the
//! factors into a reserved cumulative buffer (the last scale index), and
//! integrates again with scaling before surfacing any error. Successful
//! rescues are counted so clients can notice and switch to explicit
//! scaling. Rescue needs one scale buffer per internal destination plus the
//! reserved cumulative slot; configurations built by
//! [`crate::InstanceConfig::for_tree`] satisfy this.

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::call::Call;
use crate::error::{BeagleError, Result};
use crate::journal::StateJournal;
use crate::obs::{EventKind, Recorder};
use crate::ops::Operation;

/// A [`BeagleInstance`] wrapper that retries failed integrations with
/// scaling enabled. Created by
/// [`crate::ImplementationManager::create_instance`].
pub struct RescueInstance {
    inner: Box<dyn BeagleInstance>,
    journal: StateJournal,
    rescues: u64,
    recorder: Recorder,
}

impl RescueInstance {
    /// Wrap an instance.
    pub fn new(inner: Box<dyn BeagleInstance>) -> Self {
        // Journal rescue events iff the wrapped instance is recording.
        let recorder = Recorder::new(inner.statistics().is_some());
        Self {
            inner,
            journal: StateJournal::new(),
            rescues: 0,
            recorder,
        }
    }

    /// How many integrations were transparently rescued so far.
    pub fn rescue_count(&self) -> u64 {
        self.rescues
    }

    /// The reserved cumulative scale buffer, if the configuration leaves
    /// room for rescue: every recorded destination needs its own scale
    /// buffer below the reserved one.
    fn rescue_cumulative(&self) -> Option<usize> {
        let scale_count = self.inner.config().scale_buffer_count;
        let reserved = scale_count.checked_sub(1)?;
        if reserved == 0 {
            return None;
        }
        let fits = self
            .journal
            .operations()
            .iter()
            .all(|op| op.destination < reserved);
        (fits && !self.journal.operations().is_empty()).then_some(reserved)
    }

    /// Re-run the recorded traversal with per-destination rescaling and
    /// return the cumulative scale buffer to integrate with.
    fn rescale_traversal(&mut self, cumulative: usize) -> Result<usize> {
        let scaled: Vec<Operation> = self
            .journal
            .operations()
            .iter()
            .map(|op| op.with_scaling(op.destination))
            .collect();
        self.inner.update_partials(&scaled)?;
        let indices: Vec<usize> = scaled.iter().map(|op| op.destination).collect();
        self.inner.reset_scale_factors(cumulative)?;
        self.inner.accumulate_scale_factors(&indices, cumulative)?;
        Ok(cumulative)
    }

    fn numerically_bad(result: &Result<f64>) -> bool {
        match result {
            Ok(v) => !v.is_finite(),
            Err(BeagleError::NumericalFailure(_)) => true,
            Err(_) => false,
        }
    }

    /// Run a root or edge integration (`kind`, at `site`) with `scaling`;
    /// when an unscaled attempt fails numerically, rescale the recorded
    /// traversal and integrate again with the reserved cumulative buffer.
    fn integrate_rescued(
        &mut self,
        kind: &str,
        site: impl Fn() -> String,
        scaling: ScalingMode,
        mut integrate: impl FnMut(&mut dyn BeagleInstance, ScalingMode) -> Result<f64>,
    ) -> Result<f64> {
        let first = integrate(self.inner.as_mut(), scaling);
        if scaling != ScalingMode::None || !Self::numerically_bad(&first) {
            return first;
        }
        let Some(reserved) = self.rescue_cumulative() else {
            return first;
        };
        self.recorder.event(EventKind::RescueTriggered, || {
            format!(
                "{} failed numerically; rescaling {} ops",
                site(),
                self.journal.operations().len()
            )
        });
        let cumulative = self.rescale_traversal(reserved)?;
        let rescued = integrate(self.inner.as_mut(), ScalingMode::cumulative(cumulative))?;
        if !rescued.is_finite() {
            return Err(BeagleError::NumericalFailure(format!(
                "{kind} log-likelihood {rescued} even after automatic rescaling"
            )));
        }
        self.rescues += 1;
        self.recorder.event(EventKind::RescueSucceeded, || {
            format!("{kind} log-likelihood {rescued} after rescaling")
        });
        Ok(rescued)
    }
}

impl BeagleInstance for RescueInstance {
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
        // Journal the traversal — plain or level-batched by an outer
        // operation queue — so rescue can replay it.
        if matches!(
            call,
            Call::UpdatePartials(_) | Call::UpdatePartialsByLevels(_)
        ) {
            self.journal.record(&call);
        }
        call.apply(self.inner.as_mut())
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        self.integrate_rescued(
            "root",
            || format!("root integration at buffer {root}"),
            scaling,
            |inner, scaling| inner.integrate_root(root, category_weights, frequencies, scaling),
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
        self.integrate_rescued(
            "edge",
            || format!("edge integration {parent}->{child}"),
            scaling,
            |inner, scaling| {
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
}
