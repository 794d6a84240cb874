//! Workspace integration: API-contract behaviour through trait objects —
//! validation errors, instance details, buffer roundtrips, clock semantics.

use beagle::harness::{full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;

fn small_problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 5,
        patterns: 40,
        categories: 2,
        seed: 11,
    })
}

#[test]
fn out_of_range_indices_error_on_every_backend() {
    let problem = small_problem();
    let manager = full_manager();
    for name in manager.implementation_names() {
        let Ok(mut inst) = manager.create_instance_by_name(&name, &problem.config(), Flags::NONE)
        else {
            continue;
        };
        assert!(
            inst.set_tip_states(99, &[0; 40]).is_err(),
            "{name}: bad tip"
        );
        assert!(
            inst.set_pattern_weights(&[1.0; 3]).is_err(),
            "{name}: bad weights len"
        );
        assert!(
            inst.set_category_rates(&[1.0; 7]).is_err(),
            "{name}: bad rates len"
        );
        assert!(
            inst.get_transition_matrix(usize::MAX).is_err(),
            "{name}: bad matrix index"
        );
        // Reading a never-computed buffer fails.
        assert!(inst.get_partials(8).is_err(), "{name}: uncomputed partials");
        // Operations touching unwritten children fail.
        let bad_op = Operation::new(5, 3, 3, 4, 4);
        assert!(
            inst.update_partials(&[bad_op]).is_err(),
            "{name}: unwritten child"
        );
        // In-place operations are rejected.
        inst.set_tip_states(0, &[0u32; 40]).unwrap();
        let inplace = Operation::new(0, 0, 0, 1, 1);
        assert!(
            inst.update_partials(&[inplace]).is_err(),
            "{name}: in-place op"
        );
    }
}

#[test]
fn details_report_meaningful_metadata() {
    let problem = small_problem();
    let manager = full_manager();
    for name in manager.implementation_names() {
        let Ok(inst) = manager.create_instance_by_name(&name, &problem.config(), Flags::NONE)
        else {
            continue;
        };
        let d = inst.details();
        assert_eq!(d.implementation_name, name);
        assert!(!d.resource_name.is_empty());
        assert!(d.thread_count >= 1);
        assert!(
            d.flags
                .intersects(Flags::PRECISION_SINGLE | Flags::PRECISION_DOUBLE),
            "{name} must report a precision"
        );
    }
}

#[test]
fn transition_matrix_roundtrip() {
    let problem = small_problem();
    let manager = full_manager();
    let mut inst = manager
        .create_instance_by_name("CPU-serial", &problem.config(), Flags::PRECISION_DOUBLE)
        .unwrap();
    let len = problem.config().matrix_len();
    let m: Vec<f64> = (0..len).map(|i| (i % 10) as f64 * 0.1).collect();
    inst.set_transition_matrix(2, &m).unwrap();
    let got = inst.get_transition_matrix(2).unwrap();
    assert_eq!(m, got);
}

#[test]
fn set_partials_roundtrip_through_dyn_instance() {
    let problem = small_problem();
    let manager = full_manager();
    for name in ["CPU-threadpool", "OpenCL-x86"] {
        let mut inst = manager
            .create_instance_by_name(name, &problem.config(), Flags::PRECISION_DOUBLE)
            .unwrap();
        let len = problem.config().partials_len();
        let p: Vec<f64> = (0..len).map(|i| 1.0 / (1.0 + i as f64)).collect();
        inst.set_partials(6, &p).unwrap();
        let got = inst.get_partials(6).unwrap();
        for (a, b) in p.iter().zip(&got) {
            assert!((a - b).abs() < 1e-12, "{name}");
        }
    }
}

#[test]
fn simulated_clock_monotone_and_resettable() {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 6,
        patterns: 400,
        categories: 2,
        seed: 12,
    });
    let manager = full_manager();
    let mut inst = manager
        .create_instance_by_name(
            "OpenCL-GPU (AMD FirePro S9170 (simulated))",
            &problem.config(),
            Flags::PRECISION_SINGLE,
        )
        .unwrap();
    // This test times two identical traversals; the incremental memo layer
    // would skip the repeat and stall the device clock.
    inst.set_incremental(false);
    problem.load(inst.as_mut());
    let t0 = inst.simulated_time().unwrap();
    problem.evaluate(inst.as_mut(), false);
    let t1 = inst.simulated_time().unwrap();
    assert!(t1 > t0, "evaluation must advance the device clock");
    problem.evaluate(inst.as_mut(), false);
    let t2 = inst.simulated_time().unwrap();
    assert!(t2 > t1);
    // A second traversal costs about the same as the first (same kernels).
    let first = (t1 - t0).as_secs_f64();
    let second = (t2 - t1).as_secs_f64();
    assert!((second / first - 1.0).abs() < 0.5, "{first} vs {second}");
    inst.reset_simulated_time();
    assert_eq!(inst.simulated_time().unwrap().as_nanos(), 0);
}

#[test]
fn invalid_configurations_rejected_everywhere() {
    let manager = full_manager();
    let mut cfg = InstanceConfig::for_tree(5, 40, 4, 2);
    cfg.pattern_count = 0;
    assert!(InstanceSpec::with_config(cfg)
        .instantiate(&manager)
        .is_err());
    let mut cfg = InstanceConfig::for_tree(5, 40, 4, 2);
    cfg.tip_count = 1;
    assert!(InstanceSpec::with_config(cfg)
        .instantiate(&manager)
        .is_err());
}

#[test]
fn wait_for_computation_is_safe_everywhere() {
    let problem = small_problem();
    let manager = full_manager();
    for name in manager.implementation_names() {
        if let Ok(mut inst) = manager.create_instance_by_name(&name, &problem.config(), Flags::NONE)
        {
            inst.wait_for_computation().unwrap();
        }
    }
}

/// The trait provides every mutating method (building a `Call` for the
/// `call` hook) and every read (forwarding to an inner instance), so a
/// back-end that forgot an override would still compile and then report
/// `Unsupported`. This stands in for the compile-time check: every raw
/// back-end (no memo, queue or rescue layer) answers every `Call` variant
/// and every `Result` read with something other than `Unsupported`. Every
/// in-tree back-end has derivative kernels, so the derivative calls are
/// held to the same standard.
#[test]
fn every_backend_answers_every_call_and_read() {
    use beagle::core::ops::dependency_levels;
    use beagle::core::{BeagleError, Call};

    let p = small_problem();
    let mut config = p.config();
    let (d1, d2) = (config.matrix_buffer_count, config.matrix_buffer_count + 1);
    config.matrix_buffer_count += 2;
    let (s, n) = (config.state_count, config.pattern_count);
    let cumulative = config.scale_buffer_count - 1;
    let ops = p.operations(true);
    let levels = dependency_levels(&ops);
    let dests: Vec<usize> = ops.iter().map(|op| op.destination).collect();
    let root = BufferId(p.tree.root());
    let edge = ops[0];
    let (parent, child, matrix) = (edge.destination, edge.child1, edge.child1_matrix);
    let (matrices, lengths): (Vec<usize>, Vec<f64>) =
        p.tree.branch_assignments().into_iter().unzip();
    let t = lengths[matrices.iter().position(|&m| m == matrix).unwrap()];
    let eig = p.model.eigen();
    let tip_partials: Vec<f64> = p
        .patterns
        .tip_states(1)
        .iter()
        .flat_map(|&st| (0..s).map(move |j| if j as u32 == st { 1.0 } else { 0.0 }))
        .collect();
    assert_eq!(tip_partials.len(), n * s);

    let manager = full_manager();
    for name in manager.implementation_names() {
        let mut inst = InstanceSpec::with_config(config)
            .named(name.clone())
            .without_rescue()
            .incremental(false)
            .instantiate(&manager)
            .unwrap();
        let supported = |what: &str, r: &Result<(), BeagleError>| {
            assert!(
                !matches!(r, Err(BeagleError::Unsupported(_))),
                "{name}: {what} reported {r:?}"
            );
        };
        let calls = [
            Call::SetTipStates(0, p.patterns.tip_states(0).into()),
            Call::SetTipPartials(1, tip_partials.as_slice().into()),
            Call::SetPartials(parent, vec![0.25; config.partials_len()].into()),
            Call::SetPatternWeights(p.patterns.weights().into()),
            Call::SetStateFrequencies(0, p.model.frequencies().into()),
            Call::SetCategoryRates(p.rates.rates.as_slice().into()),
            Call::SetCategoryWeights(0, p.rates.weights.as_slice().into()),
            Call::SetEigenDecomposition(
                0,
                eig.vectors.as_slice().into(),
                eig.inverse_vectors.as_slice().into(),
                eig.values.as_slice().into(),
            ),
            Call::UpdateTransitionMatrices(
                0,
                matrices.as_slice().into(),
                lengths.as_slice().into(),
            ),
            Call::UpdateTransitionDerivatives(
                0,
                vec![matrix].into(),
                vec![d1].into(),
                vec![d2].into(),
                vec![t].into(),
            ),
        ];
        for call in &calls {
            supported(&format!("{call:?}"), &call.apply(inst.as_mut()));
        }
        for tip in 2..p.tree.taxon_count() {
            inst.set_tip_states(tip, &p.patterns.tip_states(tip))
                .unwrap();
        }
        let m = inst.get_transition_matrix(matrix);
        supported("get_transition_matrix", &m.clone().map(drop));
        let calls = [
            Call::SetTransitionMatrix(matrix, m.unwrap().into()),
            Call::UpdatePartials(ops.as_slice().into()),
            Call::UpdatePartialsByLevels(levels.as_slice().into()),
            Call::ResetScaleFactors(cumulative),
            Call::AccumulateScaleFactors(dests.as_slice().into(), cumulative),
        ];
        for call in &calls {
            supported(&format!("{call:?}"), &call.apply(inst.as_mut()));
        }
        let scaling = ScalingMode::cumulative(cumulative);
        let (w, f) = (BufferId(0), BufferId(0));
        let reads = [
            ("get_partials", inst.get_partials(root.0).map(drop)),
            (
                "integrate_root",
                inst.integrate_root(root, w, f, scaling).map(drop),
            ),
            (
                "integrate_edge",
                inst.integrate_edge(
                    BufferId(parent),
                    BufferId(child),
                    BufferId(matrix),
                    w,
                    f,
                    scaling,
                )
                .map(drop),
            ),
            (
                "integrate_edge_derivatives",
                inst.integrate_edge_derivatives(
                    BufferId(parent),
                    BufferId(child),
                    BufferId(matrix),
                    BufferId(d1),
                    BufferId(d2),
                    w,
                    f,
                    scaling,
                )
                .map(drop),
            ),
            (
                "get_site_log_likelihoods",
                inst.get_site_log_likelihoods().map(drop),
            ),
            ("wait_for_computation", inst.wait_for_computation()),
        ];
        for (what, r) in &reads {
            supported(what, r);
        }
    }
}
