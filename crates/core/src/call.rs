//! The instance call stream, reified.
//!
//! BEAGLE is a flat buffer machine: the client-visible state of an instance
//! is exactly the sequence of mutating calls that produced it. [`Call`] is
//! that sequence's element type — one variant per mutating `Result<()>`
//! method of [`BeagleInstance`] — and is the one currency every layer that
//! intercepts, defers, journals or slices calls deals in:
//!
//! * the trait's provided mutating methods build a borrowed `Call` and hand
//!   it to [`BeagleInstance::call`], so a wrapper overrides that one hook
//!   instead of fifteen methods;
//! * the operation queue ([`crate::queue::QueuedInstance`]) stores owned
//!   calls ([`Call::into_owned`]) and replays them at flush time;
//! * the state journal ([`crate::journal::StateJournal`]) records calls and
//!   replays its state as calls;
//! * the partitioned instance ([`crate::multi::PartitionedInstance`])
//!   slices each call to a child's pattern range with
//!   [`Call::slice_patterns`].

use std::borrow::Cow;

use crate::api::{BeagleInstance, InstanceConfig, InstanceDetails};
use crate::error::{BeagleError, Result};
use crate::ops::Operation;

/// One mutating instance call. Each variant holds its method's arguments in
/// parameter order. Slice payloads are `Cow`s: forwarding borrows the
/// caller's slices, while layers that keep a call past the caller's frame
/// (the operation queue) own them.
#[derive(Clone, Debug)]
pub enum Call<'a> {
    /// [`BeagleInstance::set_tip_states`]: `(tip, states)`.
    SetTipStates(usize, Cow<'a, [u32]>),
    /// [`BeagleInstance::set_tip_partials`]: `(tip, partials)`.
    SetTipPartials(usize, Cow<'a, [f64]>),
    /// [`BeagleInstance::set_partials`]: `(buffer, partials)`.
    SetPartials(usize, Cow<'a, [f64]>),
    /// [`BeagleInstance::set_pattern_weights`]: `(weights)`.
    SetPatternWeights(Cow<'a, [f64]>),
    /// [`BeagleInstance::set_state_frequencies`]: `(index, frequencies)`.
    SetStateFrequencies(usize, Cow<'a, [f64]>),
    /// [`BeagleInstance::set_category_rates`]: `(rates)`.
    SetCategoryRates(Cow<'a, [f64]>),
    /// [`BeagleInstance::set_category_weights`]: `(index, weights)`.
    SetCategoryWeights(usize, Cow<'a, [f64]>),
    /// [`BeagleInstance::set_eigen_decomposition`]:
    /// `(index, vectors, inverse_vectors, values)`.
    SetEigenDecomposition(usize, Cow<'a, [f64]>, Cow<'a, [f64]>, Cow<'a, [f64]>),
    /// [`BeagleInstance::update_transition_matrices`]:
    /// `(eigen_index, matrix_indices, branch_lengths)`.
    UpdateTransitionMatrices(usize, Cow<'a, [usize]>, Cow<'a, [f64]>),
    /// [`BeagleInstance::update_transition_derivatives`]:
    /// `(eigen_index, matrix_indices, d1_indices, d2_indices, branch_lengths)`.
    UpdateTransitionDerivatives(
        usize,
        Cow<'a, [usize]>,
        Cow<'a, [usize]>,
        Cow<'a, [usize]>,
        Cow<'a, [f64]>,
    ),
    /// [`BeagleInstance::set_transition_matrix`]: `(index, matrix)`.
    SetTransitionMatrix(usize, Cow<'a, [f64]>),
    /// [`BeagleInstance::update_partials`]: `(operations)`.
    UpdatePartials(Cow<'a, [Operation]>),
    /// [`BeagleInstance::update_partials_by_levels`]: `(levels)`.
    UpdatePartialsByLevels(Cow<'a, [Vec<Operation>]>),
    /// [`BeagleInstance::reset_scale_factors`]: `(cumulative)`.
    ResetScaleFactors(usize),
    /// [`BeagleInstance::accumulate_scale_factors`]:
    /// `(scale_indices, cumulative)`.
    AccumulateScaleFactors(Cow<'a, [usize]>, usize),
}

fn owned<T: Clone>(data: Cow<'_, [T]>) -> Cow<'static, [T]> {
    Cow::Owned(data.into_owned())
}

impl Call<'_> {
    /// Issue this call on `target` through the matching trait method.
    pub fn apply(&self, target: &mut dyn BeagleInstance) -> Result<()> {
        match self {
            Call::SetTipStates(tip, states) => target.set_tip_states(*tip, states),
            Call::SetTipPartials(tip, partials) => target.set_tip_partials(*tip, partials),
            Call::SetPartials(buffer, partials) => target.set_partials(*buffer, partials),
            Call::SetPatternWeights(weights) => target.set_pattern_weights(weights),
            Call::SetStateFrequencies(i, frequencies) => {
                target.set_state_frequencies(*i, frequencies)
            }
            Call::SetCategoryRates(rates) => target.set_category_rates(rates),
            Call::SetCategoryWeights(i, weights) => target.set_category_weights(*i, weights),
            Call::SetEigenDecomposition(i, vectors, inverse, values) => {
                target.set_eigen_decomposition(*i, vectors, inverse, values)
            }
            Call::UpdateTransitionMatrices(eigen, matrices, lengths) => {
                target.update_transition_matrices(*eigen, matrices, lengths)
            }
            Call::UpdateTransitionDerivatives(eigen, matrices, d1, d2, lengths) => {
                target.update_transition_derivatives(*eigen, matrices, d1, d2, lengths)
            }
            Call::SetTransitionMatrix(i, matrix) => target.set_transition_matrix(*i, matrix),
            Call::UpdatePartials(operations) => target.update_partials(operations),
            Call::UpdatePartialsByLevels(levels) => target.update_partials_by_levels(levels),
            Call::ResetScaleFactors(cumulative) => target.reset_scale_factors(*cumulative),
            Call::AccumulateScaleFactors(indices, cumulative) => {
                target.accumulate_scale_factors(indices, *cumulative)
            }
        }
    }

    /// The same call with every payload owned, so it can outlive the
    /// caller's slices.
    pub fn into_owned(self) -> Call<'static> {
        match self {
            Call::SetTipStates(tip, states) => Call::SetTipStates(tip, owned(states)),
            Call::SetTipPartials(tip, partials) => Call::SetTipPartials(tip, owned(partials)),
            Call::SetPartials(buffer, partials) => Call::SetPartials(buffer, owned(partials)),
            Call::SetPatternWeights(weights) => Call::SetPatternWeights(owned(weights)),
            Call::SetStateFrequencies(i, frequencies) => {
                Call::SetStateFrequencies(i, owned(frequencies))
            }
            Call::SetCategoryRates(rates) => Call::SetCategoryRates(owned(rates)),
            Call::SetCategoryWeights(i, weights) => Call::SetCategoryWeights(i, owned(weights)),
            Call::SetEigenDecomposition(i, vectors, inverse, values) => {
                Call::SetEigenDecomposition(i, owned(vectors), owned(inverse), owned(values))
            }
            Call::UpdateTransitionMatrices(eigen, matrices, lengths) => {
                Call::UpdateTransitionMatrices(eigen, owned(matrices), owned(lengths))
            }
            Call::UpdateTransitionDerivatives(eigen, matrices, d1, d2, lengths) => {
                Call::UpdateTransitionDerivatives(
                    eigen,
                    owned(matrices),
                    owned(d1),
                    owned(d2),
                    owned(lengths),
                )
            }
            Call::SetTransitionMatrix(i, matrix) => Call::SetTransitionMatrix(i, owned(matrix)),
            Call::UpdatePartials(operations) => Call::UpdatePartials(owned(operations)),
            Call::UpdatePartialsByLevels(levels) => Call::UpdatePartialsByLevels(owned(levels)),
            Call::ResetScaleFactors(cumulative) => Call::ResetScaleFactors(cumulative),
            Call::AccumulateScaleFactors(indices, cumulative) => {
                Call::AccumulateScaleFactors(owned(indices), cumulative)
            }
        }
    }

    /// This call restricted to the pattern range `[p0, p1)` of an instance
    /// sized `full` — the single rule for which calls are pattern-indexed.
    /// Tip states, tip partials, direct partials and pattern weights are
    /// sliced (direct partials per category block, so the slice is a fresh
    /// buffer); every other call is model-wide and passes through whole, as
    /// does any call over the full range.
    pub fn slice_patterns(&self, p0: usize, p1: usize, full: &InstanceConfig) -> Cow<'_, Call<'_>> {
        if (p0, p1) == (0, full.pattern_count) {
            return Cow::Borrowed(self);
        }
        let s = full.state_count;
        Cow::Owned(match self {
            Call::SetTipStates(tip, states) => Call::SetTipStates(*tip, states[p0..p1].into()),
            Call::SetTipPartials(tip, partials) => {
                Call::SetTipPartials(*tip, partials[p0 * s..p1 * s].into())
            }
            Call::SetPartials(buffer, partials) => {
                let sub = (0..full.category_count).flat_map(|c| {
                    let base = (c * full.pattern_count + p0) * s;
                    &partials[base..base + (p1 - p0) * s]
                });
                Call::SetPartials(*buffer, sub.copied().collect())
            }
            Call::SetPatternWeights(weights) => Call::SetPatternWeights(weights[p0..p1].into()),
            _ => return Cow::Borrowed(self),
        })
    }

    /// Check that a pattern-indexed payload covers every pattern of an
    /// instance sized `full` (the precondition of
    /// [`Self::slice_patterns`]); model-wide calls always pass.
    pub(crate) fn check_patterns(&self, full: &InstanceConfig) -> Result<()> {
        let (what, expected, got) = match self {
            Call::SetTipStates(_, states) => ("tip states", full.pattern_count, states.len()),
            Call::SetTipPartials(_, partials) => (
                "tip partials",
                full.pattern_count * full.state_count,
                partials.len(),
            ),
            Call::SetPartials(_, partials) => ("partials", full.partials_len(), partials.len()),
            Call::SetPatternWeights(weights) => {
                ("pattern weights", full.pattern_count, weights.len())
            }
            _ => return Ok(()),
        };
        if expected == got {
            Ok(())
        } else {
            Err(BeagleError::DimensionMismatch {
                what,
                expected,
                got,
            })
        }
    }

    /// The error an instance that cannot run this call reports.
    pub(crate) fn unsupported(&self, on: &InstanceDetails) -> BeagleError {
        let what = match self {
            Call::SetTipStates(..) => "set_tip_states",
            Call::SetTipPartials(..) => "set_tip_partials",
            Call::SetPartials(..) => "set_partials",
            Call::SetPatternWeights(_) => "set_pattern_weights",
            Call::SetStateFrequencies(..) => "set_state_frequencies",
            Call::SetCategoryRates(_) => "set_category_rates",
            Call::SetCategoryWeights(..) => "set_category_weights",
            Call::SetEigenDecomposition(..) => "set_eigen_decomposition",
            Call::UpdateTransitionMatrices(..) => "update_transition_matrices",
            Call::UpdateTransitionDerivatives(..) => "transition-matrix derivatives",
            Call::SetTransitionMatrix(..) => "set_transition_matrix",
            Call::UpdatePartials(_) => "update_partials",
            Call::UpdatePartialsByLevels(_) => "update_partials_by_levels",
            Call::ResetScaleFactors(_) => "reset_scale_factors",
            Call::AccumulateScaleFactors(..) => "accumulate_scale_factors",
        };
        crate::api::unsupported(what, on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> InstanceConfig {
        InstanceConfig::for_tree(4, 6, 2, 2)
    }

    #[test]
    fn slicing_touches_only_pattern_indexed_calls() {
        let full = config();
        let states: Vec<u32> = (0..6).collect();
        let call = Call::SetTipStates(1, states.as_slice().into());
        match &*call.slice_patterns(2, 5, &full) {
            Call::SetTipStates(1, states) => assert_eq!(&states[..], &[2, 3, 4]),
            other => panic!("{other:?}"),
        }
        // Direct partials: each category's block of the range, in order.
        let partials: Vec<f64> = (0..full.partials_len()).map(|v| v as f64).collect();
        let call = Call::SetPartials(4, partials.as_slice().into());
        match &*call.slice_patterns(1, 3, &full) {
            Call::SetPartials(4, partials) => {
                assert_eq!(&partials[..], &[2.0, 3.0, 4.0, 5.0, 14.0, 15.0, 16.0, 17.0])
            }
            other => panic!("{other:?}"),
        }
        // Model-wide calls pass through borrowed.
        let call = Call::SetCategoryRates(vec![0.5, 1.5].into());
        assert!(matches!(call.slice_patterns(1, 3, &full), Cow::Borrowed(_)));
    }

    #[test]
    fn pattern_checks_reject_short_payloads() {
        let full = config();
        let call = Call::SetPatternWeights(vec![1.0; 5].into());
        assert!(matches!(
            call.check_patterns(&full),
            Err(BeagleError::DimensionMismatch {
                what: "pattern weights",
                expected: 6,
                got: 5
            })
        ));
        assert!(Call::ResetScaleFactors(3).check_patterns(&full).is_ok());
    }

    #[test]
    fn owned_calls_keep_their_payloads() {
        let ops = vec![Operation::new(4, 0, 0, 1, 1)];
        let owned = Call::UpdatePartials(ops.as_slice().into()).into_owned();
        drop(ops);
        match owned {
            Call::UpdatePartials(Cow::Owned(ops)) => assert_eq!(ops[0].destination, 4),
            other => panic!("{other:?}"),
        }
    }
}
