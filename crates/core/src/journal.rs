//! A replayable journal of instance state, the substrate for failover.
//!
//! Fault-tolerant wrappers ([`crate::multi::PartitionedInstance`], the
//! numerical-rescue layer) need to rebuild an instance from scratch after a
//! device dies, or to re-run the partials traversal with scaling enabled.
//! The BEAGLE API is a flat buffer machine, so the client-visible state of
//! an instance is exactly the sequence of `set_*` / `update_*` calls that
//! produced it. [`StateJournal`] records the *latest* value of every such
//! input (last write wins per buffer index) and can replay them — whole, or
//! sliced to a pattern sub-range — into a fresh instance.
//!
//! Replay order is: tip data → pattern weights → frequencies → category
//! rates/weights → eigen systems → direct matrices → matrix updates →
//! partials operations → scale-factor accumulation. Operations are replayed
//! in the order of their last execution, with superseded writes to the same
//! destination dropped. This reconstructs the final buffer state for the
//! standard BEAGLE client pattern (descendants updated before ancestors);
//! clients that interleave reads with partial rewrites of the same
//! destination would need full-history replay, which no caller does.

use crate::api::{BeagleInstance, InstanceConfig};
use crate::call::Call;
use crate::error::Result;
use crate::ops::Operation;
use std::collections::BTreeMap;

/// One eigen system as recorded: `(vectors, inverse_vectors, values)`.
type EigenRecord = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Recorded state of one logical instance, sufficient to rebuild it.
#[derive(Clone, Debug, Default)]
pub struct StateJournal {
    tip_states: BTreeMap<usize, Vec<u32>>,
    /// `patterns × states` per tip (as passed by the client).
    tip_partials: BTreeMap<usize, Vec<f64>>,
    /// Full `categories × patterns × states` buffers set directly.
    partials: BTreeMap<usize, Vec<f64>>,
    pattern_weights: Option<Vec<f64>>,
    frequencies: BTreeMap<usize, Vec<f64>>,
    category_rates: Option<Vec<f64>>,
    category_weights: BTreeMap<usize, Vec<f64>>,
    /// `(vectors, inverse_vectors, values)` per eigen buffer.
    eigens: BTreeMap<usize, EigenRecord>,
    /// Matrices set directly via `set_transition_matrix`.
    matrices: BTreeMap<usize, Vec<f64>>,
    /// Matrices computed from an eigen system: index → (eigen, branch
    /// length). A direct `set_transition_matrix` to the same index clears
    /// the entry (and vice versa), so exactly one source is replayed.
    matrix_updates: BTreeMap<usize, (usize, f64)>,
    /// Partials operations in last-execution order, deduplicated by
    /// destination buffer.
    ops: Vec<Operation>,
    /// Cumulative scale buffer → scale indices accumulated into it since its
    /// last reset.
    scale_accumulations: BTreeMap<usize, Vec<usize>>,
}

impl StateJournal {
    /// Fresh, empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one mutating call: the latest value of each input wins.
    pub fn record(&mut self, call: &Call<'_>) {
        match call {
            Call::SetTipStates(tip, states) => {
                self.tip_states.insert(*tip, states.to_vec());
                self.tip_partials.remove(tip);
            }
            Call::SetTipPartials(tip, partials) => {
                self.tip_partials.insert(*tip, partials.to_vec());
                self.tip_states.remove(tip);
            }
            Call::SetPartials(buffer, partials) => {
                self.partials.insert(*buffer, partials.to_vec());
                // A direct write supersedes any computed value for this buffer.
                self.ops.retain(|op| op.destination != *buffer);
            }
            Call::SetPatternWeights(weights) => self.pattern_weights = Some(weights.to_vec()),
            Call::SetStateFrequencies(i, frequencies) => {
                self.frequencies.insert(*i, frequencies.to_vec());
            }
            Call::SetCategoryRates(rates) => self.category_rates = Some(rates.to_vec()),
            Call::SetCategoryWeights(i, weights) => {
                self.category_weights.insert(*i, weights.to_vec());
            }
            Call::SetEigenDecomposition(i, vectors, inverse, values) => {
                let eigen = (vectors.to_vec(), inverse.to_vec(), values.to_vec());
                self.eigens.insert(*i, eigen);
            }
            Call::SetTransitionMatrix(i, matrix) => {
                self.matrices.insert(*i, matrix.to_vec());
                self.matrix_updates.remove(i);
            }
            // Derivative matrices are scratch outputs for branch
            // optimization; the primary matrices are what replay needs.
            Call::UpdateTransitionMatrices(eigen, matrices, lengths)
            | Call::UpdateTransitionDerivatives(eigen, matrices, _, _, lengths) => {
                for (&m, &t) in matrices.iter().zip(lengths.iter()) {
                    self.matrix_updates.insert(m, (*eigen, t));
                    self.matrices.remove(&m);
                }
            }
            Call::UpdatePartials(operations) => self.push_operations(operations),
            Call::UpdatePartialsByLevels(levels) => {
                for level in levels.iter() {
                    self.push_operations(level);
                }
            }
            Call::ResetScaleFactors(cumulative) => {
                self.scale_accumulations.insert(*cumulative, Vec::new());
            }
            Call::AccumulateScaleFactors(indices, cumulative) => self
                .scale_accumulations
                .entry(*cumulative)
                .or_default()
                .extend_from_slice(indices),
        }
    }

    /// Each operation supersedes any earlier write to the same destination.
    fn push_operations(&mut self, operations: &[Operation]) {
        for op in operations {
            self.ops.retain(|o| o.destination != op.destination);
            self.partials.remove(&op.destination);
            self.ops.push(*op);
        }
    }

    /// The recorded operations, in replay order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// The last recorded full-problem pattern weights, if any were set.
    /// The partitioned parent reads these to recompute the global
    /// log-likelihood reduction in pattern order (see
    /// `PartitionedInstance::integrate_root`).
    pub fn pattern_weights(&self) -> Option<&[f64]> {
        self.pattern_weights.as_deref()
    }

    /// Serialize the journal as text lines into `out` (one record per
    /// line). `f64` values are written as 16-digit hex bit patterns, so a
    /// decoded journal replays **bit-exactly** — the property the durable
    /// checkpoint format ([`crate::checkpoint`]) is built on.
    pub fn encode_into(&self, out: &mut String) {
        use std::fmt::Write;
        fn f64s(out: &mut String, values: &[f64]) {
            for v in values {
                let _ = write!(out, " {:016x}", v.to_bits());
            }
        }
        for (tip, states) in &self.tip_states {
            let _ = write!(out, "tip_states {tip} {}", states.len());
            for s in states {
                let _ = write!(out, " {s}");
            }
            out.push('\n');
        }
        for (tip, partials) in &self.tip_partials {
            let _ = write!(out, "tip_partials {tip} {}", partials.len());
            f64s(out, partials);
            out.push('\n');
        }
        for (buffer, partials) in &self.partials {
            let _ = write!(out, "partials {buffer} {}", partials.len());
            f64s(out, partials);
            out.push('\n');
        }
        if let Some(w) = &self.pattern_weights {
            let _ = write!(out, "pattern_weights {}", w.len());
            f64s(out, w);
            out.push('\n');
        }
        for (i, f) in &self.frequencies {
            let _ = write!(out, "frequencies {i} {}", f.len());
            f64s(out, f);
            out.push('\n');
        }
        if let Some(r) = &self.category_rates {
            let _ = write!(out, "category_rates {}", r.len());
            f64s(out, r);
            out.push('\n');
        }
        for (i, w) in &self.category_weights {
            let _ = write!(out, "category_weights {i} {}", w.len());
            f64s(out, w);
            out.push('\n');
        }
        for (i, (v, iv, ev)) in &self.eigens {
            let _ = write!(out, "eigen {i} {} {} {}", v.len(), iv.len(), ev.len());
            f64s(out, v);
            f64s(out, iv);
            f64s(out, ev);
            out.push('\n');
        }
        for (i, m) in &self.matrices {
            let _ = write!(out, "matrix {i} {}", m.len());
            f64s(out, m);
            out.push('\n');
        }
        for (m, (eigen, t)) in &self.matrix_updates {
            let _ = writeln!(out, "matrix_update {m} {eigen} {:016x}", t.to_bits());
        }
        for op in &self.ops {
            let scale = match op.dest_scale_write {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "op {} {scale} {} {} {} {}",
                op.destination, op.child1, op.child1_matrix, op.child2, op.child2_matrix
            );
        }
        for (cumulative, indices) in &self.scale_accumulations {
            let _ = write!(out, "scale_acc {cumulative} {}", indices.len());
            for i in indices {
                let _ = write!(out, " {i}");
            }
            out.push('\n');
        }
    }

    /// Rebuild a journal from lines produced by [`Self::encode_into`].
    /// Errors are strings (the checkpoint layer wraps them into
    /// [`crate::BeagleError::CheckpointCorrupt`]).
    pub fn decode_lines(lines: &[&str]) -> std::result::Result<Self, String> {
        fn parse<T: std::str::FromStr>(
            tok: Option<&str>,
            what: &str,
        ) -> std::result::Result<T, String> {
            tok.ok_or_else(|| format!("journal line truncated at {what}"))?
                .parse::<T>()
                .map_err(|_| format!("bad {what} field"))
        }
        fn take_f64s<'t>(
            toks: &mut impl Iterator<Item = &'t str>,
            n: usize,
            what: &str,
        ) -> std::result::Result<Vec<f64>, String> {
            (0..n)
                .map(|_| {
                    let tok = toks
                        .next()
                        .ok_or_else(|| format!("journal line truncated at {what}"))?;
                    u64::from_str_radix(tok, 16)
                        .map(f64::from_bits)
                        .map_err(|_| format!("bad {what} bit pattern"))
                })
                .collect()
        }
        let mut j = StateJournal::new();
        for line in lines {
            let mut t = line.split_ascii_whitespace();
            let Some(tag) = t.next() else { continue };
            match tag {
                "tip_states" => {
                    let tip: usize = parse(t.next(), "tip")?;
                    let n: usize = parse(t.next(), "tip_states length")?;
                    let states: Vec<u32> = (0..n)
                        .map(|_| parse(t.next(), "tip state"))
                        .collect::<std::result::Result<_, _>>()?;
                    j.tip_states.insert(tip, states);
                }
                "tip_partials" => {
                    let tip: usize = parse(t.next(), "tip")?;
                    let n: usize = parse(t.next(), "tip_partials length")?;
                    j.tip_partials
                        .insert(tip, take_f64s(&mut t, n, "tip partials")?);
                }
                "partials" => {
                    let buffer: usize = parse(t.next(), "buffer")?;
                    let n: usize = parse(t.next(), "partials length")?;
                    j.partials.insert(buffer, take_f64s(&mut t, n, "partials")?);
                }
                "pattern_weights" => {
                    let n: usize = parse(t.next(), "pattern_weights length")?;
                    j.pattern_weights = Some(take_f64s(&mut t, n, "pattern weights")?);
                }
                "frequencies" => {
                    let i: usize = parse(t.next(), "frequency index")?;
                    let n: usize = parse(t.next(), "frequencies length")?;
                    j.frequencies
                        .insert(i, take_f64s(&mut t, n, "frequencies")?);
                }
                "category_rates" => {
                    let n: usize = parse(t.next(), "category_rates length")?;
                    j.category_rates = Some(take_f64s(&mut t, n, "category rates")?);
                }
                "category_weights" => {
                    let i: usize = parse(t.next(), "category-weight index")?;
                    let n: usize = parse(t.next(), "category_weights length")?;
                    j.category_weights
                        .insert(i, take_f64s(&mut t, n, "category weights")?);
                }
                "eigen" => {
                    let i: usize = parse(t.next(), "eigen index")?;
                    let nv: usize = parse(t.next(), "eigen vectors length")?;
                    let niv: usize = parse(t.next(), "eigen inverse length")?;
                    let nev: usize = parse(t.next(), "eigen values length")?;
                    let v = take_f64s(&mut t, nv, "eigen vectors")?;
                    let iv = take_f64s(&mut t, niv, "eigen inverse vectors")?;
                    let ev = take_f64s(&mut t, nev, "eigen values")?;
                    j.eigens.insert(i, (v, iv, ev));
                }
                "matrix" => {
                    let i: usize = parse(t.next(), "matrix index")?;
                    let n: usize = parse(t.next(), "matrix length")?;
                    j.matrices.insert(i, take_f64s(&mut t, n, "matrix")?);
                }
                "matrix_update" => {
                    let m: usize = parse(t.next(), "matrix index")?;
                    let eigen: usize = parse(t.next(), "eigen index")?;
                    let bits = t.next().ok_or("journal line truncated at branch length")?;
                    let t_val = u64::from_str_radix(bits, 16)
                        .map(f64::from_bits)
                        .map_err(|_| "bad branch-length bit pattern".to_string())?;
                    j.matrix_updates.insert(m, (eigen, t_val));
                }
                "op" => {
                    let destination: usize = parse(t.next(), "op destination")?;
                    let scale_tok = t.next().ok_or("journal line truncated at op scale")?;
                    let dest_scale_write = if scale_tok == "-" {
                        None
                    } else {
                        Some(scale_tok.parse().map_err(|_| "bad op scale field")?)
                    };
                    let child1: usize = parse(t.next(), "op child1")?;
                    let child1_matrix: usize = parse(t.next(), "op child1 matrix")?;
                    let child2: usize = parse(t.next(), "op child2")?;
                    let child2_matrix: usize = parse(t.next(), "op child2 matrix")?;
                    j.ops.push(Operation {
                        destination,
                        dest_scale_write,
                        child1,
                        child1_matrix,
                        child2,
                        child2_matrix,
                    });
                }
                "scale_acc" => {
                    let cumulative: usize = parse(t.next(), "cumulative scale buffer")?;
                    let n: usize = parse(t.next(), "scale_acc length")?;
                    let indices: Vec<usize> = (0..n)
                        .map(|_| parse(t.next(), "scale index"))
                        .collect::<std::result::Result<_, _>>()?;
                    j.scale_accumulations.insert(cumulative, indices);
                }
                other => return Err(format!("unknown journal record \"{other}\"")),
            }
            if t.next().is_some() {
                return Err(format!("trailing data on journal record \"{tag}\""));
            }
        }
        Ok(j)
    }

    /// The recorded state as the calls that rebuild it, in replay order
    /// (see the module docs).
    fn calls(&self) -> impl Iterator<Item = Call<'_>> {
        use std::slice::from_ref;
        let (tips, tip_partials) = (self.tip_states.iter(), self.tip_partials.iter());
        let (partials, weights) = (self.partials.iter(), self.pattern_weights.iter());
        let (freqs, rates) = (self.frequencies.iter(), self.category_rates.iter());
        let (cat_weights, eigens) = (self.category_weights.iter(), self.eigens.iter());
        let (matrices, updates) = (self.matrices.iter(), self.matrix_updates.iter());
        let ops = (!self.ops.is_empty()).then_some(&self.ops);
        let scale = self.scale_accumulations.iter().flat_map(|(&c, indices)| {
            let accumulate =
                (!indices.is_empty()).then(|| Call::AccumulateScaleFactors(indices.into(), c));
            std::iter::once(Call::ResetScaleFactors(c)).chain(accumulate)
        });
        (tips.map(|(&tip, states)| Call::SetTipStates(tip, states.into())))
            .chain(tip_partials.map(|(&tip, p)| Call::SetTipPartials(tip, p.into())))
            .chain(partials.map(|(&buffer, p)| Call::SetPartials(buffer, p.into())))
            .chain(weights.map(|w| Call::SetPatternWeights(w.into())))
            .chain(freqs.map(|(&i, f)| Call::SetStateFrequencies(i, f.into())))
            .chain(rates.map(|r| Call::SetCategoryRates(r.into())))
            .chain(cat_weights.map(|(&i, w)| Call::SetCategoryWeights(i, w.into())))
            .chain(eigens.map(|(&i, (v, iv, ev))| {
                Call::SetEigenDecomposition(i, v.into(), iv.into(), ev.into())
            }))
            .chain(matrices.map(|(&i, m)| Call::SetTransitionMatrix(i, m.into())))
            .chain(updates.map(|(m, (eigen, t))| {
                Call::UpdateTransitionMatrices(*eigen, from_ref(m).into(), from_ref(t).into())
            }))
            .chain(ops.map(|ops| Call::UpdatePartials(ops.into())))
            .chain(scale)
    }

    /// Replay the journal into `target`, restricted to the pattern range
    /// `[p0, p1)` of the original instance whose full configuration was
    /// `full` ([`Call::slice_patterns`] decides what is sliced). With
    /// `(0, full.pattern_count)` this rebuilds a same-sized instance.
    pub fn replay_slice(
        &self,
        target: &mut dyn BeagleInstance,
        full: &InstanceConfig,
        p0: usize,
        p1: usize,
    ) -> Result<()> {
        self.calls()
            .try_for_each(|call| call.slice_patterns(p0, p1, full).apply(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(dest: usize, c1: usize, c2: usize) -> Operation {
        Operation::new(dest, c1, c1, c2, c2)
    }

    fn matrix_update(index: usize, t: f64) -> Call<'static> {
        Call::UpdateTransitionMatrices(0, vec![index].into(), vec![t].into())
    }

    fn accumulate(scale_indices: &[usize], cumulative: usize) -> Call<'_> {
        Call::AccumulateScaleFactors(scale_indices.into(), cumulative)
    }

    #[test]
    fn operations_dedupe_by_destination() {
        let mut j = StateJournal::new();
        j.record(&Call::UpdatePartials(vec![op(4, 0, 1), op(5, 2, 3)].into()));
        j.record(&Call::UpdatePartials(vec![op(4, 1, 2)].into()));
        let dests: Vec<usize> = j.operations().iter().map(|o| o.destination).collect();
        assert_eq!(
            dests,
            vec![5, 4],
            "superseded write dropped, order = last execution"
        );
        assert_eq!(j.operations()[1].child1, 1, "latest operands kept");
    }

    #[test]
    fn direct_partials_supersede_operations_and_vice_versa() {
        let mut j = StateJournal::new();
        j.record(&Call::UpdatePartials(vec![op(4, 0, 1)].into()));
        j.record(&Call::SetPartials(4, vec![1.0; 16].into()));
        assert!(j.operations().is_empty());
        j.record(&Call::UpdatePartials(vec![op(4, 0, 1)].into()));
        assert_eq!(j.operations().len(), 1);
        assert!(j.partials.is_empty());
    }

    #[test]
    fn matrix_sources_are_exclusive() {
        let mut j = StateJournal::new();
        j.record(&matrix_update(3, 0.1));
        j.record(&Call::SetTransitionMatrix(3, vec![0.25; 16].into()));
        assert!(j.matrix_updates.is_empty());
        j.record(&matrix_update(3, 0.2));
        assert!(j.matrices.is_empty());
        assert_eq!(j.matrix_updates[&3], (0, 0.2));
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let mut j = StateJournal::new();
        j.record(&Call::SetTipStates(0, vec![0, 3, u32::MAX].into()));
        j.record(&Call::SetTipPartials(1, vec![0.25, 1e-300, -0.0].into()));
        j.record(&Call::SetPartials(
            4,
            vec![std::f64::consts::PI, 2.0_f64.sqrt()].into(),
        ));
        j.record(&Call::SetPatternWeights(vec![1.0, 2.0, 3.0].into()));
        j.record(&Call::SetStateFrequencies(
            0,
            vec![0.1, 0.2, 0.3, 0.4].into(),
        ));
        j.record(&Call::SetCategoryRates(vec![0.5, 1.5].into()));
        j.record(&Call::SetCategoryWeights(0, vec![0.5, 0.5].into()));
        j.record(&Call::SetEigenDecomposition(
            0,
            vec![1.0; 4].into(),
            vec![2.0; 4].into(),
            vec![-0.5, 0.5].into(),
        ));
        j.record(&Call::SetTransitionMatrix(3, vec![0.25; 4].into()));
        j.record(&matrix_update(5, 0.123456789));
        j.record(&Call::UpdatePartials(
            vec![op(6, 0, 1), op(7, 6, 2).with_scaling(7)].into(),
        ));
        j.record(&accumulate(&[6, 7], 9));

        let mut text = String::new();
        j.encode_into(&mut text);
        let lines: Vec<&str> = text.lines().collect();
        let back = StateJournal::decode_lines(&lines).unwrap();

        let mut text2 = String::new();
        back.encode_into(&mut text2);
        assert_eq!(text, text2, "round trip must be bit-exact");
        assert_eq!(back.operations(), j.operations());
        assert_eq!(back.tip_partials[&1], j.tip_partials[&1]);
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert!(StateJournal::decode_lines(&["bogus 1 2"]).is_err());
        assert!(StateJournal::decode_lines(&["tip_states 0 3 1 2"]).is_err());
        assert!(StateJournal::decode_lines(&["pattern_weights 1 zz"]).is_err());
        assert!(
            StateJournal::decode_lines(&["tip_states 0 1 7 extra"]).is_err(),
            "trailing tokens are corruption, not noise"
        );
        assert!(StateJournal::decode_lines(&[])
            .unwrap()
            .operations()
            .is_empty());
    }

    #[test]
    fn scale_reset_clears_accumulation() {
        let mut j = StateJournal::new();
        j.record(&accumulate(&[1, 2], 9));
        j.record(&Call::ResetScaleFactors(9));
        j.record(&accumulate(&[3], 9));
        assert_eq!(j.scale_accumulations[&9], vec![3]);
    }
}
