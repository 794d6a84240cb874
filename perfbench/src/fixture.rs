//! Seeded inputs and the host facts recorded next to every number.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use beagle_mcmc::ModelParams;
use beagle_phylo::simulate::simulate_patterns;
use beagle_phylo::{SitePatterns, SiteRates, Tree};

/// Problem shape of a workload, as printed in the fixture record.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub taxa: usize,
    pub patterns: usize,
    pub states: usize,
    pub categories: usize,
    pub precision: &'static str,
}

/// The nucleotide MC3 input: the paper's 16-taxon RNA-Seq shape, HKY+Γ4.
pub struct NucData {
    pub shape: Shape,
    pub patterns: SitePatterns,
    pub rates: SiteRates,
    /// MC3 starting tree (random, not the tree the data was simulated on).
    pub start: Tree,
    pub params: ModelParams,
}

pub fn nucleotide(seed: u64, patterns: usize) -> NucData {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6e75_635f_6d63_3321);
    let taxa = 16;
    let truth = Tree::random(taxa, 0.1, &mut rng);
    let model = ModelParams::Nucleotide { kappa: 3.0 }.build();
    let rates = SiteRates::discrete_gamma(0.5, 4);
    let patterns = simulate_patterns(&truth, &model, &rates, patterns, &mut rng);
    let start = Tree::random(taxa, 0.1, &mut rng);
    NucData {
        shape: Shape {
            taxa,
            patterns: patterns.pattern_count(),
            states: 4,
            categories: rates.category_count(),
            precision: "f32",
        },
        patterns,
        rates,
        start,
        params: ModelParams::Nucleotide { kappa: 2.0 },
    }
}

/// The codon scan input: the paper's 15-taxon arthropod shape, GY94, one
/// rate category, and a seeded grid of (kappa, omega) points.
pub struct CodonData {
    pub shape: Shape,
    pub tree: Tree,
    pub patterns: SitePatterns,
    pub rates: SiteRates,
    pub grid: Vec<(f64, f64)>,
}

pub fn codon(seed: u64, patterns: usize, grid_points: usize) -> CodonData {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x636f_646f_6e5f_7363);
    let taxa = 15;
    let tree = Tree::random(taxa, 0.1, &mut rng);
    let model = ModelParams::Codon {
        kappa: 2.0,
        omega: 0.4,
    }
    .build();
    let rates = SiteRates::constant();
    let patterns = simulate_patterns(&tree, &model, &rates, patterns, &mut rng);
    let grid = (0..grid_points)
        .map(|_| {
            (
                rng.random_range(1.0..5.0f64),
                rng.random_range(0.05..1.5f64),
            )
        })
        .collect();
    CodonData {
        shape: Shape {
            taxa,
            patterns: patterns.pattern_count(),
            states: 61,
            categories: 1,
            precision: "f64",
        },
        tree,
        patterns,
        rates,
        grid,
    }
}

/// Size in bytes of the data cache at `level` (2 or 3), from CPUID.
#[cfg(target_arch = "x86_64")]
pub fn cache_bytes(level: u32) -> Option<u64> {
    use std::arch::x86_64::__cpuid_count;
    let vendor = __cpuid_count(0, 0);
    // Intel reports deterministic cache parameters in leaf 4, AMD in
    // 0x8000_001D; both use the same register layout.
    let leaf = if vendor.ebx == 0x6874_7541 {
        0x8000_001D
    } else {
        4
    };
    for sub in 0..16 {
        // An out-of-range subleaf reports cache type 0.
        let r = __cpuid_count(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if (r.eax >> 5) & 0x7 == level && kind != 2 {
            let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
            let partitions = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
            let line = (r.ebx & 0xfff) as u64 + 1;
            let sets = r.ecx as u64 + 1;
            return Some(ways * partitions * line * sets);
        }
    }
    None
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cache_bytes(_level: u32) -> Option<u64> {
    None
}

/// Peak resident set size of this process in MiB (`getrusage`).
pub fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports ru_maxrss in KiB.
    usage.maxrss as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the calling thread to the CPU it is running on; threads it spawns
/// afterwards inherit the pin. Returns that CPU, or `None` if the kernel
/// refused. With every thread of a workload on one CPU, each hand-off
/// between threads is a local context switch instead of a wake-up of an
/// idle virtual CPU, whose latency depends on the rest of the host.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: plain glibc calls; the mask is a valid 1,024-bit cpu_set_t.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).ok().filter(|&c| c < 1024)?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: as above; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
