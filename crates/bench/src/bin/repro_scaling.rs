//! Kernel and thread-scaling measurements: scalar vs blocked popcount
//! kernels, the batched `and_weight_cols` sweep, and the refined search
//! at 1/2/4/8 worker threads. Emits `BENCH_kernels.json` in the current
//! directory so the numbers (and the hardware they came from) are
//! versioned alongside the code.
//!
//! Honours `DCS_SCALE=quick` for a fast smoke pass.

use dcs_aligned::refined_detect;
use dcs_bench::{banner, repro_search_config, write_report, BenchError, RunScale};
use dcs_bitmap::words::{and_weight, and_weight_cols, and_weight_scalar, weight, weight_scalar};
use dcs_parallel::ComputeBudget;
use dcs_sim::aligned::screened_planted_matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

/// One timed kernel variant at one operand size.
#[derive(serde::Serialize)]
struct KernelSample {
    kernel: String,
    words: usize,
    ns_per_call: f64,
    gib_per_s: f64,
}

/// One refined-search run at a fixed thread count.
#[derive(serde::Serialize)]
struct ScalingSample {
    threads: usize,
    ms_per_search: f64,
    speedup_vs_1: f64,
}

#[derive(serde::Serialize)]
struct Report {
    generator: String,
    cpus_available: usize,
    cpu_model: String,
    scale: String,
    note: String,
    kernels: Vec<KernelSample>,
    search_scaling: Vec<ScalingSample>,
}

/// Minimum of `samples` timings of `reps` calls each, in ns per call.
fn time_ns(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
        best = best.min(ns);
    }
    best
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn bench_kernels(rng: &mut StdRng, quick: bool) -> Vec<KernelSample> {
    let sizes: &[usize] = if quick {
        &[16, 4096]
    } else {
        &[16, 256, 4096, 65_536]
    };
    let mut out = Vec::new();
    for &nw in sizes {
        let a: Vec<u64> = (0..nw).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..nw).map(|_| rng.gen()).collect();
        let reps = (4_000_000 / nw).max(8);
        let bytes = (nw * 8) as f64;
        let mut push = |kernel: &str, ns: f64, streams: f64| {
            out.push(KernelSample {
                kernel: kernel.to_string(),
                words: nw,
                ns_per_call: ns,
                gib_per_s: streams * bytes / ns, // bytes/ns == GiB-ish/s (10^9)
            });
        };
        let ns = time_ns(5, reps, || {
            std::hint::black_box(weight_scalar(std::hint::black_box(&a)));
        });
        push("weight_scalar", ns, 1.0);
        let ns = time_ns(5, reps, || {
            std::hint::black_box(weight(std::hint::black_box(&a)));
        });
        push("weight_blocked", ns, 1.0);
        let ns = time_ns(5, reps, || {
            std::hint::black_box(and_weight_scalar(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
            ));
        });
        push("and_weight_scalar", ns, 2.0);
        let ns = time_ns(5, reps, || {
            std::hint::black_box(and_weight(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
            ));
        });
        push("and_weight_blocked", ns, 2.0);
    }

    // Batched sweep: one base against many columns, the expansion sweep's
    // shape. Compare a scalar loop against the batched column kernel.
    let nw = if quick { 1024 } else { 16_384 };
    let ncols = 32;
    let base: Vec<u64> = (0..nw).map(|_| rng.gen()).collect();
    let cols: Vec<Vec<u64>> = (0..ncols)
        .map(|_| (0..nw).map(|_| rng.gen()).collect())
        .collect();
    let refs: Vec<&[u64]> = cols.iter().map(Vec::as_slice).collect();
    let bytes = (nw * 8 * (ncols + 1)) as f64;
    let reps = if quick { 64 } else { 16 };
    let ns = time_ns(5, reps, || {
        let acc: u32 = refs
            .iter()
            .map(|c| and_weight_scalar(std::hint::black_box(&base), c))
            .sum();
        std::hint::black_box(acc);
    });
    out.push(KernelSample {
        kernel: format!("and_weight_sweep_scalar_x{ncols}"),
        words: nw,
        ns_per_call: ns,
        gib_per_s: bytes / ns,
    });
    let flat = cols.concat();
    let mut buf = vec![0u32; ncols];
    let ns = time_ns(5, reps, || {
        and_weight_cols(std::hint::black_box(&base), &flat, &mut buf);
        std::hint::black_box(&buf);
    });
    out.push(KernelSample {
        kernel: format!("and_weight_cols_x{ncols}"),
        words: nw,
        ns_per_call: ns,
        gib_per_s: bytes / ns,
    });
    out
}

fn bench_search_scaling(rng: &mut StdRng, quick: bool) -> Vec<ScalingSample> {
    let (m, n, a, b, n_prime) = if quick {
        (200, 100_000, 40, 20, 400)
    } else {
        (500, 1_000_000, 60, 30, 1_000)
    };
    let sm = screened_planted_matrix(rng, m, n, a, b, n_prime);
    let mut cfg = repro_search_config();
    cfg.n_prime = sm.matrix.ncols();
    let reps = if quick { 2 } else { 3 };
    let mut out: Vec<ScalingSample> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        cfg.compute = ComputeBudget::with_threads(threads);
        let ns = time_ns(reps, 1, || {
            std::hint::black_box(refined_detect(&sm.matrix, &cfg).found);
        });
        let ms = ns / 1e6;
        let base = out.first().map_or(ms, |s: &ScalingSample| s.ms_per_search);
        out.push(ScalingSample {
            threads,
            ms_per_search: ms,
            speedup_vs_1: base / ms,
        });
    }
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), BenchError> {
    let scale = RunScale::from_env(1);
    banner(
        "kernel & thread-scaling measurements",
        "implementation study (no paper figure): blocked popcount kernels, parallel refined search",
    );
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rng = StdRng::seed_from_u64(0x5CA1E);

    let kernels = bench_kernels(&mut rng, scale.quick);
    println!(
        "{:<28} {:>8} {:>12} {:>10}",
        "kernel", "words", "ns/call", "GB/s"
    );
    for k in &kernels {
        println!(
            "{:<28} {:>8} {:>12.1} {:>10.2}",
            k.kernel, k.words, k.ns_per_call, k.gib_per_s
        );
    }
    println!();

    let search_scaling = bench_search_scaling(&mut rng, scale.quick);
    println!("{:<8} {:>14} {:>12}", "threads", "ms/search", "speedup");
    for s in &search_scaling {
        println!(
            "{:<8} {:>14.1} {:>12.2}",
            s.threads, s.ms_per_search, s.speedup_vs_1
        );
    }

    let report = Report {
        generator: "repro_scaling".to_string(),
        cpus_available: cpus,
        cpu_model: cpu_model(),
        scale: if scale.quick { "quick" } else { "paper" }.to_string(),
        note: "speedup_vs_1 is bounded by cpus_available; on a 1-CPU host \
               thread counts above 1 only measure scheduling overhead"
            .to_string(),
        kernels,
        search_scaling,
    };
    write_report("BENCH_kernels.json", &report)?;
    println!("\nwrote BENCH_kernels.json ({cpus} CPU(s) available)");
    Ok(())
}
