//! The metric catalogue and the per-layer numbers every workload shares.

use std::collections::BTreeMap;

use beagle_core::{KernelClass, KernelCounter};

use crate::report::Report;
use crate::stats::ratio;
use crate::trace::{Call, Layer, LayerCounters, Span};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("evals_per_s", "evals/s"),
    ("eval_p50_ms", "ms"),
    ("eval_p99_ms", "ms"),
    ("success_rate", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Kernel classes reported under `cpu.<class>.*`.
pub const CPU_CLASSES: [KernelClass; 6] = [
    KernelClass::PartialsPP,
    KernelClass::PartialsSP,
    KernelClass::PartialsSS,
    KernelClass::Rescale,
    KernelClass::TransitionMatrices,
    KernelClass::RootIntegrate,
];

/// Per-layer metrics other than the `cpu.<class>.*` family, printed with
/// `--trace 1`. A layer a workload bypasses, or cannot see from outside,
/// reports 0 (README.md lists which).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("mcmc.self_ms_per_eval", "ms"),
    ("mcmc.ops_per_eval", "count"),
    ("mcmc.matrices_per_eval", "count"),
    ("mcmc.accept_frac", "fraction"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("server.overhead_ms_per_eval", "ms"),
    ("server.wrappers_ms_per_eval", "ms"),
    ("server.busy_refusals", "count"),
    ("server.wire_errors", "count"),
    ("server.lost", "count"),
    ("pool.wait_ms_p50", "ms"),
    ("pool.wait_ms_p99", "ms"),
    ("pool.service_ms_p50", "ms"),
    ("pool.steal_frac", "fraction"),
    ("pool.affinity_frac", "fraction"),
    ("pool.worker_busy_frac", "fraction"),
    ("pool.requeued", "count"),
    ("pool.rejected", "count"),
    ("checkpoint.self_us_per_eval", "us"),
    ("rescue.self_us_per_eval", "us"),
    ("rescue.reruns", "count"),
    ("queue.self_us_per_eval", "us"),
    ("queue.flushes_per_eval", "count"),
    ("queue.levels_per_flush", "count"),
    ("queue.eigen_cache_hit_frac", "fraction"),
    ("memo.self_us_per_eval", "us"),
    ("memo.op_skip_frac", "fraction"),
    ("memo.matrix_skip_frac", "fraction"),
    ("cpu.backend_ms_per_eval", "ms"),
    // cpu.<class>.{ms_per_eval,gflops,gbytes_per_s} are appended by
    // `layer_catalogue`.
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.uncorrelated_frac", "fraction"),
    ("trace.evals", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_evals_per_s", "evals/s"),
    ("trace.traced_evals_per_s", "evals/s"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (name, unit) in PER_LAYER {
        if name == "trace.overhead_frac" {
            for class in CPU_CLASSES {
                out.push((format!("cpu.{}.ms_per_eval", class.name()), "ms"));
                out.push((format!("cpu.{}.gflops", class.name()), "GFLOP/s"));
                out.push((format!("cpu.{}.gbytes_per_s", class.name()), "GB/s"));
            }
        }
        out.push((name.to_string(), unit));
    }
    out
}

/// Per-layer values of one traced run; anything not set reports 0.
#[derive(Default)]
pub struct LayerValues(BTreeMap<String, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            layer_catalogue().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Append every catalogue metric to `report`, in catalogue order.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in layer_catalogue() {
            let v = self.get(&name);
            report.metric(name, v, unit);
        }
    }
}

/// Sizes the computed flop and byte counts depend on.
#[derive(Clone, Copy, Debug)]
pub struct KernelShape {
    pub patterns: f64,
    pub states: f64,
    pub categories: f64,
    /// Bytes per stored real (4 for f32, 8 for f64).
    pub real_bytes: f64,
}

/// Computed flops per counted item of `class` (see README.md).
fn flops_per_item(class: KernelClass, k: KernelShape) -> f64 {
    let (p, s, c) = (k.patterns, k.states, k.categories);
    match class {
        KernelClass::PartialsPP => c * p * s * (4.0 * s + 2.0),
        KernelClass::PartialsSP => c * p * s * (2.0 * s + 2.0),
        KernelClass::PartialsSS => c * p * s * 2.0,
        KernelClass::TransitionMatrices => c * (2.0 * s * s * s + s),
        KernelClass::Rescale => p,
        KernelClass::RootIntegrate => c * (2.0 * s + 1.0) + 2.0,
        _ => 0.0,
    }
}

/// Computed bytes for `class`: the back-end's own traffic model where it
/// keeps one (partials, matrices), else reads + writes of the touched
/// buffers.
fn bytes_of(class: KernelClass, counter: &KernelCounter, k: KernelShape) -> f64 {
    match class {
        KernelClass::Rescale => counter.items as f64 * k.patterns * k.real_bytes * 2.0,
        KernelClass::RootIntegrate => counter.items as f64 * k.categories * k.states * k.real_bytes,
        _ => counter.bytes as f64,
    }
}

/// Sum of back-end kernel counters over every stack.
pub fn backend_kernels(counters: &[LayerCounters]) -> [KernelCounter; KernelClass::COUNT] {
    let mut total = [KernelCounter::default(); KernelClass::COUNT];
    for lc in counters.iter().filter(|c| c.layer == Layer::Backend) {
        for (t, k) in total.iter_mut().zip(&lc.counters.kernels) {
            t.calls += k.calls;
            t.items += k.items;
            t.bytes += k.bytes;
            t.wall_nanos += k.wall_nanos;
            t.modeled_nanos += k.modeled_nanos;
        }
    }
    total
}

/// `cpu.<class>.*` from the back-end's own kernel counters.
pub fn cpu_classes(
    v: &mut LayerValues,
    kernels: &[KernelCounter; KernelClass::COUNT],
    shape: KernelShape,
    evals: f64,
) {
    for class in CPU_CLASSES {
        let k = kernels[KernelClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("every class is in ALL")];
        let secs = k.wall_nanos as f64 * 1e-9;
        let flops = k.items as f64 * flops_per_item(class, shape);
        let name = class.name();
        v.set(
            &format!("cpu.{name}.ms_per_eval"),
            ratio(k.wall_nanos as f64 * 1e-6, evals),
        );
        v.set(&format!("cpu.{name}.gflops"), ratio(flops * 1e-9, secs));
        v.set(
            &format!("cpu.{name}.gbytes_per_s"),
            ratio(bytes_of(class, &k, shape) * 1e-9, secs),
        );
    }
}

/// Count of `call` spans at `layer`.
pub fn count_calls(spans: &[Span], layer: Layer, call: Call) -> u64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.call == call)
        .count() as u64
}

/// Work items of partials updates and matrix updates at `layer`.
pub fn items_at(spans: &[Span], layer: Layer) -> (u64, u64) {
    let mut ops = 0;
    let mut matrices = 0;
    for s in spans.iter().filter(|s| s.layer == layer) {
        match s.call {
            Call::UpdatePartials | Call::UpdatePartialsByLevels => ops += s.items as u64,
            Call::UpdateMatrices => matrices += s.items as u64,
            _ => {}
        }
    }
    (ops, matrices)
}

/// Memo, queue and rescue metrics from the counters of the shims around
/// those layers, plus rescue re-runs (root integrations below the rescue
/// layer that no caller asked for).
pub fn wrapper_counters(
    v: &mut LayerValues,
    spans: &[Span],
    counters: &[LayerCounters],
    below_rescue: Layer,
    evals: f64,
) {
    let mut memo = beagle_core::MemoStats::default();
    let mut queue = beagle_core::QueueStats::default();
    for lc in counters {
        match lc.layer {
            Layer::Memo => {
                let m = &lc.counters.memo;
                memo.ops_skipped += m.ops_skipped;
                memo.ops_executed += m.ops_executed;
                memo.matrices_skipped += m.matrices_skipped;
                memo.matrices_computed += m.matrices_computed;
            }
            Layer::Queue => {
                let q = &lc.counters.queue;
                queue.flushes += q.flushes;
                queue.levels_submitted += q.levels_submitted;
                queue.eigen_cache_hits += q.eigen_cache_hits;
                queue.eigen_cache_misses += q.eigen_cache_misses;
            }
            _ => {}
        }
    }
    v.set(
        "memo.op_skip_frac",
        ratio(
            memo.ops_skipped as f64,
            (memo.ops_skipped + memo.ops_executed) as f64,
        ),
    );
    v.set(
        "memo.matrix_skip_frac",
        ratio(
            memo.matrices_skipped as f64,
            (memo.matrices_skipped + memo.matrices_computed) as f64,
        ),
    );
    v.set("queue.flushes_per_eval", ratio(queue.flushes as f64, evals));
    v.set(
        "queue.levels_per_flush",
        ratio(queue.levels_submitted as f64, queue.flushes as f64),
    );
    v.set(
        "queue.eigen_cache_hit_frac",
        ratio(
            queue.eigen_cache_hits as f64,
            (queue.eigen_cache_hits + queue.eigen_cache_misses) as f64,
        ),
    );
    let asked = count_calls(spans, Layer::Rescue, Call::IntegrateRoot);
    let done = count_calls(spans, below_rescue, Call::IntegrateRoot);
    v.set("rescue.reruns", done.saturating_sub(asked) as f64);
}

/// Self times of the in-process wrapper layers, per evaluation.
pub fn self_times(v: &mut LayerValues, self_ns: &BTreeMap<Layer, u64>, evals: f64) {
    let per_eval = |layer: Layer| ratio(self_ns.get(&layer).copied().unwrap_or(0) as f64, evals);
    v.set("mcmc.self_ms_per_eval", per_eval(Layer::Mcmc) * 1e-6);
    v.set(
        "checkpoint.self_us_per_eval",
        per_eval(Layer::Checkpoint) * 1e-3,
    );
    v.set("rescue.self_us_per_eval", per_eval(Layer::Rescue) * 1e-3);
    v.set("queue.self_us_per_eval", per_eval(Layer::Queue) * 1e-3);
    v.set("memo.self_us_per_eval", per_eval(Layer::Memo) * 1e-3);
    v.set("cpu.backend_ms_per_eval", per_eval(Layer::Backend) * 1e-6);
}

/// Share of each caller's consecutive requests served by the same worker
/// as the one before. `served` holds (caller, worker) in request order.
pub fn affinity(served: &[(u32, u32)]) -> f64 {
    let mut last: BTreeMap<u32, u32> = BTreeMap::new();
    let (mut same, mut pairs) = (0u64, 0u64);
    for &(caller, worker) in served {
        if let Some(prev) = last.insert(caller, worker) {
            pairs += 1;
            same += u64::from(prev == worker);
        }
    }
    ratio(same as f64, pairs as f64)
}

/// Extract the integer after `"key":` in the first occurrence following
/// `"scope":` in a flat stats JSON document.
pub fn json_u64(json: &str, scope: &str, key: &str) -> u64 {
    let start = json.find(&format!("\"{scope}\":")).unwrap_or(0);
    let rest = &json[start..];
    let Some(at) = rest.find(&format!("\"{key}\":")) else {
        return 0;
    };
    rest[at + key.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let catalogue = layer_catalogue();
        assert!(catalogue.len() <= 128);
        for (name, unit) in catalogue
            .iter()
            .map(|(n, u)| (n.as_str(), *u))
            .chain(END_TO_END)
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            catalogue.len() + END_TO_END.len() + 2,
            "2 workloads"
        );
    }

    #[test]
    fn affinity_counts_repeat_placements_per_caller() {
        // Caller 0: 1,1,2 -> one of two pairs repeats; caller 1: 2,2 -> one of one.
        let served = [(0, 1), (1, 2), (0, 1), (1, 2), (0, 2)];
        assert!((affinity(&served) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(affinity(&[(0, 1)]), 0.0);
    }

    #[test]
    fn json_u64_reads_scoped_keys() {
        let json =
            "{\"server\":{\"completed\":7,\"lost\":1},\"pool\":{\"completed\":9,\"stolen\":3}}";
        assert_eq!(json_u64(json, "server", "completed"), 7);
        assert_eq!(json_u64(json, "pool", "completed"), 9);
        assert_eq!(json_u64(json, "pool", "stolen"), 3);
        assert_eq!(json_u64(json, "pool", "missing"), 0);
    }
}
