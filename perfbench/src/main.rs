//! End-to-end and per-layer benchmark for BEAGLE-RS.
//!
//! ```text
//! perfbench --workload <nuc-mc3-local|nuc-mc3-remote|codon-batch-pool>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--tamper]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics on the stacks
//! the library's own constructors build. With `--trace 1` it measures the
//! same workload untraced and then traced, and reports per-layer metrics.
//! Either way it checks the outputs; the last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`, and a failed
//! check makes the process exit with status 1. `--tiny` shrinks the inputs
//! (for tests); `--tamper` corrupts one reference value so the correctness
//! check must fail. See README.md.

mod codon;
mod fixture;
mod layers;
mod mc3;
mod report;
mod stats;
mod trace;

use report::Report;

/// The CPU back-end every workload is pinned to.
pub const IMPLEMENTATION: &str = "CPU-SSE";
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Evaluations a timed phase must complete, so that ten samples lie beyond
/// the reported p99.
pub const MIN_EVALS: usize = 1000;

const WORKLOADS: [&str; 3] = ["nuc-mc3-local", "nuc-mc3-remote", "codon-batch-pool"];

pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub tamper: bool,
}

impl Settings {
    fn parse(args: &[String]) -> Result<Settings, String> {
        let mut s = Settings {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
            tamper: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => s.workload = value()?.clone(),
                "--seed" => s.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    s.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    s.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    }
                }
                "--tiny" => s.tiny = true,
                "--tamper" => s.tamper = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&s.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(s.seconds > 0.0 && s.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(s)
    }

    /// The phase whose numbers are reported: `seconds` long and at least
    /// [`MIN_EVALS`] evaluations, with a hard cap so a run ends well within
    /// three minutes.
    pub fn measured(&self) -> Budget {
        Budget {
            seconds: self.seconds,
            min_evals: MIN_EVALS,
            cap: self.seconds * 2.0 + 20.0,
        }
    }

    /// The untraced reference phase of a traced run, which only supplies the
    /// throughput the tracing overhead is measured against.
    pub fn reference(&self) -> Budget {
        Budget {
            seconds: self.seconds / 4.0,
            min_evals: 0,
            cap: self.seconds / 2.0,
        }
    }

    /// The budget of the untraced phase of this run.
    pub fn untraced(&self) -> Budget {
        if self.trace {
            self.reference()
        } else {
            self.measured()
        }
    }
}

/// How long a closed-loop phase runs.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_evals: usize,
    pub cap: f64,
}

impl Budget {
    pub fn done(&self, elapsed_s: f64, evals: usize) -> bool {
        (elapsed_s >= self.seconds && evals >= self.min_evals) || elapsed_s >= self.cap
    }
}

/// One timed phase of a closed loop.
pub struct Phase {
    pub wall_s: f64,
    /// Caller-side latency of every completed evaluation.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident memory of the process when the phase ended.
    pub peak_rss_mib: f64,
}

pub fn account(report: &mut Report, phase: &Phase) {
    report.attempted += phase.attempted;
    report.failed += phase.failed;
}

pub fn record_shape(report: &mut Report, shape: &fixture::Shape) {
    report.fact("taxa", shape.taxa);
    report.fact("patterns", shape.patterns);
    report.fact("states", shape.states);
    report.fact("categories", shape.categories);
    report.fact("precision", shape.precision);
}

/// Pin the calling thread, and every thread it spawns from now on, to one
/// CPU. Each workload keeps one evaluation in flight, so its threads only
/// ever hand work to each other; on one CPU those hand-offs do not wait
/// for the host to wake an idle virtual CPU.
pub fn pin(report: &mut Report) {
    let cpu = fixture::pin_to_current_cpu();
    report.fact("pinned_cpu", cpu.map_or("none".to_string(), |c| c.to_string()));
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(report: &mut Report, phase: &Phase, setup_s: &[f64]) {
    account(report, phase);
    let lat = &phase.latencies_ms;
    report.fact("run_s", format!("{:.3}", phase.wall_s));
    report.fact("eval_samples", lat.len());
    report.fact("setup_repeats", setup_s.len());
    let p99 = stats::percentile(lat, 0.99);
    let values = [
        ("evals_per_s", Some(lat.len() as f64 / phase.wall_s)),
        ("eval_p50_ms", Some(stats::median(lat))),
        ("eval_p99_ms", p99.as_ref().ok().copied()),
        (
            "success_rate",
            Some(1.0 - stats::ratio(report.failed as f64, report.attempted as f64)),
        ),
        ("setup_s", Some(stats::median(setup_s))),
        ("peak_rss_mb", Some(phase.peak_rss_mib)),
    ];
    for ((name, value), (_, unit)) in values.into_iter().zip(layers::END_TO_END) {
        if let Some(v) = value {
            report.metric(name, v, unit);
        }
    }
    if let Err(e) = p99 {
        report.problems.push(format!("eval_p99_ms: {e}"));
    }
}

/// Tracing overhead: traced against untraced throughput of the same run.
pub fn trace_overhead(v: &mut layers::LayerValues, untraced: &Phase, traced: &Phase, spans: usize) {
    let eps = |p: &Phase| p.latencies_ms.len() as f64 / p.wall_s;
    v.set("trace.overhead_frac", 1.0 - eps(traced) / eps(untraced));
    v.set("trace.evals", traced.latencies_ms.len() as f64);
    v.set("trace.spans", spans as f64);
    v.set("trace.untraced_evals_per_s", eps(untraced));
    v.set("trace.traced_evals_per_s", eps(traced));
}

/// Write the spans of a traced run under `perfbench/traces/`.
pub fn write_spans(settings: &Settings, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.csv", settings.workload, settings.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, trace::spans_to_csv(spans)));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn run(settings: &Settings) -> Result<Report, String> {
    let mut report = Report::default();
    report.fact("workload", &settings.workload);
    report.fact("seed", settings.seed);
    report.fact("seconds", settings.seconds);
    report.fact("trace", u8::from(settings.trace));
    report.fact("implementation", IMPLEMENTATION);
    report.fact(
        "simd_dispatch",
        format!("{:?}", beagle_cpu::simd::select_kind_with(true, false)),
    );
    report.fact("nproc", fixture::nproc());
    for level in [2, 3] {
        let size = fixture::cache_bytes(level)
            .map(|b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "unknown".into());
        report.fact(&format!("l{level}"), size);
    }
    // No end-to-end number may come from a simulated clock: the pinned
    // implementation must be one measured by the wall clock. (The local
    // and pooled stacks are checked again themselves.)
    let mut manager = beagle_core::ImplementationManager::new();
    beagle_cpu::register_cpu_factories(&mut manager);
    let probe = beagle_core::InstanceSpec::for_tree(4, 8, 4, 1)
        .named(IMPLEMENTATION)
        .instantiate(&manager)
        .map_err(|e| format!("create {IMPLEMENTATION}: {e}"))?;
    if probe.simulated_time().is_some() {
        report.fail_check(1, format!("{IMPLEMENTATION} reports a simulated clock"));
    }
    report.fact("time_source", "wall clock; simulated_time() unused");
    match settings.workload.as_str() {
        "nuc-mc3-local" => mc3::run(settings, false, &mut report)?,
        "nuc-mc3-remote" => mc3::run(settings, true, &mut report)?,
        _ => codon::run(settings, &mut report)?,
    }
    Ok(report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match Settings::parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&settings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("fixture {}", report.fixture_json());
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("check failed: {p}");
    }
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let s = Settings::parse(&args(
            "--workload codon-batch-pool --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!((s.seed, s.seconds, s.trace), (7, 20.0, true));
        assert!(Settings::parse(&args("--workload nope --seed 1")).is_err());
        assert!(Settings::parse(&args("--workload nuc-mc3-local --trace 2")).is_err());
        assert!(Settings::parse(&args("--workload nuc-mc3-local --bogus")).is_err());
    }
}
