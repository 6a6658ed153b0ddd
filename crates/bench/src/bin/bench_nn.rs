//! Measures the blocked/fused NN kernels and the arena-backed tape, and
//! writes the numbers to `BENCH_nn.json` (override the path with
//! `TYPILUS_BENCH_OUT`).
//!
//! Three comparisons, each Fast (blocked kernels + arena + fused ops)
//! vs Naive (the pre-arena reference kernels, selected at runtime with
//! `set_kernel_mode`):
//!   * one full training step (forward + backward + Adam) of the GGNN
//!     model at hidden dims 64 and 128 — losses are asserted bitwise
//!     identical between the two modes before timing, and each mode's
//!     step time is the median of 9 rounds that alternate the modes;
//!   * steady-state arena allocations per training step (fresh heap
//!     allocations after the pool is warm vs one allocation per tensor);
//!   * raw matmul / matmul_t / fused aᵀ·b / transpose kernels on
//!     square matrices.
//!
//! The JSON also records which SIMD tile width the dispatcher selected
//! (`sse2` baseline or the widened `avx2` tile).
//!
//! Built with `--features nn-profile` it also prints the per-op time
//! table for the Fast training steps to stderr.

use std::time::Instant;
use typilus::{EncoderKind, GraphConfig, LossKind};
use typilus_bench::{config_for, prepare, Scale};
use typilus_models::{PreparedFile, TypeModel};
use typilus_nn::{arena_stats, set_kernel_mode, Adam, KernelMode, Tensor};

/// Runs `f` `reps` times and returns the median wall-clock seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Times `a` and `b` over `rounds` alternating rounds (`a` first in even
/// rounds, `b` first in odd ones) and returns each one's median
/// wall-clock seconds. Both see the same host load, so their ratio does
/// not drift with it the way two back-to-back timing blocks do.
fn interleaved_median_secs(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    fn timed(f: &mut dyn FnMut()) -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    }
    let (mut ta, mut tb) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for r in 0..rounds {
        if r % 2 == 0 {
            ta.push(timed(&mut a));
            tb.push(timed(&mut b));
        } else {
            tb.push(timed(&mut b));
            ta.push(timed(&mut a));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|x, y| x.total_cmp(y));
        v[v.len() / 2]
    };
    (median(ta), median(tb))
}

/// One training step: forward + backward over `batch`, then Adam.
fn step(model: &mut TypeModel, adam: &mut Adam, batch: &[&PreparedFile]) -> f32 {
    let (loss, grads) = model
        .train_step(batch)
        .expect("batch has annotated targets");
    adam.step(&mut model.params, grads);
    loss
}

struct DimReport {
    dim: usize,
    step_secs_fast: f64,
    step_secs_naive: f64,
    fresh_per_step_fast: u64,
    fresh_per_step_naive: u64,
    reused_per_step_fast: u64,
}

fn bench_dim(dim: usize) -> DimReport {
    let scale = Scale {
        files: 16,
        epochs: 1,
        dim,
        gnn_steps: 3,
        seed: 0,
        common_threshold: 8,
    };
    let graph = GraphConfig::default();
    let (_, data) = prepare(&scale, &graph);
    let config = config_for(&scale, EncoderKind::Graph, LossKind::Typilus, graph);
    let train_graphs = data.graphs_of(&data.split.train);
    let model = TypeModel::new(config.model, &train_graphs);
    let prepared: Vec<PreparedFile> = data.files.iter().map(|f| model.prepare(&f.graph)).collect();
    let batch: Vec<&PreparedFile> = data
        .split
        .train
        .iter()
        .take(config.batch_size)
        .map(|&i| &prepared[i])
        .collect();

    // Determinism gate: the blocked/fused/arena path must produce the
    // same loss, to the bit, as the reference kernels.
    set_kernel_mode(KernelMode::Fast);
    let (loss_fast, _) = model.train_step(&batch).expect("annotated batch");
    set_kernel_mode(KernelMode::Naive);
    let (loss_naive, _) = model.train_step(&batch).expect("annotated batch");
    assert_eq!(
        loss_fast.to_bits(),
        loss_naive.to_bits(),
        "dim {dim}: fast loss {loss_fast} != naive loss {loss_naive}"
    );

    // Timed steps include the optimizer update, matching the pipeline's
    // per-batch work. Each mode gets its own model/optimizer clone so
    // both time the same parameter trajectory.
    set_kernel_mode(KernelMode::Naive);
    let mut naive_model = model.clone();
    let mut naive_adam = Adam::new(config.lr);
    for _ in 0..3 {
        step(&mut naive_model, &mut naive_adam, &batch);
    }
    let before = arena_stats();
    step(&mut naive_model, &mut naive_adam, &batch);
    let naive_allocs = arena_stats().since(&before);

    set_kernel_mode(KernelMode::Fast);
    let mut fast_model = model.clone();
    let mut fast_adam = Adam::new(config.lr);
    for _ in 0..3 {
        step(&mut fast_model, &mut fast_adam, &batch); // warm the arena pool
    }
    let before = arena_stats();
    step(&mut fast_model, &mut fast_adam, &batch);
    let fast_allocs = arena_stats().since(&before);

    // Naive mode bypasses the arena, so alternating modes leaves the
    // Fast path's pool warm.
    let (step_secs_naive, step_secs_fast) = interleaved_median_secs(
        9,
        || {
            set_kernel_mode(KernelMode::Naive);
            std::hint::black_box(step(&mut naive_model, &mut naive_adam, &batch));
        },
        || {
            set_kernel_mode(KernelMode::Fast);
            std::hint::black_box(step(&mut fast_model, &mut fast_adam, &batch));
        },
    );
    // The per-op profile table printed at the end covers Fast steps only.
    set_kernel_mode(KernelMode::Fast);
    typilus_nn::reset_profile();
    for _ in 0..5 {
        step(&mut fast_model, &mut fast_adam, &batch);
    }
    DimReport {
        dim,
        step_secs_fast,
        step_secs_naive,
        fresh_per_step_fast: fast_allocs.fresh,
        fresh_per_step_naive: naive_allocs.fresh,
        reused_per_step_fast: fast_allocs.reused,
    }
}

/// Deterministic pseudo-random matrix (xorshift; no rand dependency
/// needed for a timing fixture).
fn fixture(rows: usize, cols: usize, mut state: u64) -> Tensor {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.push((state >> 40) as f32 / (1 << 24) as f32 - 0.5);
    }
    Tensor::from_vec(rows, cols, data)
}

struct KernelReport {
    n: usize,
    matmul_fast: f64,
    matmul_naive: f64,
    matmul_t_fast: f64,
    matmul_t_naive: f64,
    matmul_at_b_fast: f64,
    matmul_at_b_naive: f64,
    transpose_fast: f64,
    transpose_naive: f64,
}

fn bench_kernels(n: usize) -> KernelReport {
    let a = fixture(n, n, 1);
    let b = fixture(n, n, 2);
    set_kernel_mode(KernelMode::Fast);
    let fast = a.matmul(&b);
    let fast_at_b = a.matmul_at_b(&b);
    set_kernel_mode(KernelMode::Naive);
    let naive = a.matmul(&b);
    let naive_at_b = a.matmul_at_b(&b);
    assert_eq!(
        fast.as_slice(),
        naive.as_slice(),
        "blocked matmul differs from reference"
    );
    assert_eq!(
        fast_at_b.as_slice(),
        naive_at_b.as_slice(),
        "fused a^T*b differs from reference"
    );

    let time = |mode: KernelMode, f: &dyn Fn() -> Tensor| {
        set_kernel_mode(mode);
        median_secs(7, || {
            std::hint::black_box(f());
        })
    };
    let report = KernelReport {
        n,
        matmul_fast: time(KernelMode::Fast, &|| a.matmul(&b)),
        matmul_naive: time(KernelMode::Naive, &|| a.matmul(&b)),
        matmul_t_fast: time(KernelMode::Fast, &|| a.matmul_t(&b)),
        matmul_t_naive: time(KernelMode::Naive, &|| a.matmul_t(&b)),
        matmul_at_b_fast: time(KernelMode::Fast, &|| a.matmul_at_b(&b)),
        matmul_at_b_naive: time(KernelMode::Naive, &|| a.matmul_at_b(&b)),
        transpose_fast: time(KernelMode::Fast, &|| a.transposed()),
        transpose_naive: time(KernelMode::Naive, &|| a.transposed()),
    };
    set_kernel_mode(KernelMode::Fast);
    report
}

fn main() {
    let mut dim_json = Vec::new();
    for dim in [64usize, 128] {
        eprintln!("timing one training step at dim {dim} (fast vs naive kernels)...");
        let r = bench_dim(dim);
        let speedup = r.step_secs_naive / r.step_secs_fast.max(1e-12);
        let alloc_reduction = r.fresh_per_step_naive as f64 / (r.fresh_per_step_fast.max(1)) as f64;
        eprintln!(
            "  dim {dim}: {:.4}s -> {:.4}s ({speedup:.2}x), allocs/step {} -> {} ({alloc_reduction:.0}x)",
            r.step_secs_naive, r.step_secs_fast, r.fresh_per_step_naive, r.fresh_per_step_fast
        );
        dim_json.push(format!(
            "    {{\n      \"dim\": {},\n      \"step_secs_fast\": {:.6},\n      \
             \"step_secs_naive\": {:.6},\n      \"step_speedup\": {:.3},\n      \
             \"fresh_allocs_per_step_fast\": {},\n      \"fresh_allocs_per_step_naive\": {},\n      \
             \"arena_reuses_per_step\": {},\n      \"alloc_reduction\": {:.1}\n    }}",
            r.dim,
            r.step_secs_fast,
            r.step_secs_naive,
            speedup,
            r.fresh_per_step_fast,
            r.fresh_per_step_naive,
            r.reused_per_step_fast,
            alloc_reduction,
        ));
    }

    let n = 256;
    eprintln!("timing {n}x{n} matmul / matmul_t / transpose kernels...");
    let k = bench_kernels(n);

    if let Some(table) = typilus_nn::profile_report() {
        eprintln!("per-op profile (fast-mode training steps, dim 128):\n{table}");
    }

    let json = format!(
        "{{\n  \"simd_width\": \"{}\",\n  \"train_step\": [\n{}\n  ],\n  \"kernels\": {{\n    \"n\": {},\n    \
         \"matmul_secs_fast\": {:.9},\n    \"matmul_secs_naive\": {:.9},\n    \
         \"matmul_speedup\": {:.3},\n    \"matmul_t_secs_fast\": {:.9},\n    \
         \"matmul_t_secs_naive\": {:.9},\n    \"matmul_t_speedup\": {:.3},\n    \
         \"matmul_at_b_secs_fast\": {:.9},\n    \"matmul_at_b_secs_naive\": {:.9},\n    \
         \"matmul_at_b_speedup\": {:.3},\n    \
         \"transpose_secs_fast\": {:.9},\n    \"transpose_secs_naive\": {:.9},\n    \
         \"transpose_speedup\": {:.3}\n  }}\n}}\n",
        typilus_nn::simd_width().name(),
        dim_json.join(",\n"),
        k.n,
        k.matmul_fast,
        k.matmul_naive,
        k.matmul_naive / k.matmul_fast.max(1e-12),
        k.matmul_t_fast,
        k.matmul_t_naive,
        k.matmul_t_naive / k.matmul_t_fast.max(1e-12),
        k.matmul_at_b_fast,
        k.matmul_at_b_naive,
        k.matmul_at_b_naive / k.matmul_at_b_fast.max(1e-12),
        k.transpose_fast,
        k.transpose_naive,
        k.transpose_naive / k.transpose_fast.max(1e-12),
    );
    let out = typilus_bench::bench_out("BENCH_nn.json");
    // lint: allow(D7) — advisory benchmark report, regenerated by rerunning; never read back by the pipeline
    std::fs::write(&out, &json).expect("write benchmark json");
    print!("{json}");
    eprintln!("wrote {out}");
}
