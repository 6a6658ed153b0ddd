//! `annotate`: batch "predict + optional checker" over held-out files
//! in process, as `predict --check` and `audit` do: two workers, each
//! taking one file after another.
//! Parse, symbol table, graph, `prepare`, embedding and the checker do
//! the work; `serve` is bypassed and the map is small.

use crate::inputs::{self, THREADS};
use crate::replay::{self, suggest_options, Call};
use crate::report::Report;
use crate::setup;
use crate::stats::{beyond, percentile, sorted, tail_quantile};
use crate::trace::{wall_ms_by_name, Tracer};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use typilus::Suggestion;
use typilus_check::TypeChecker;

/// What one worker saw.
struct Worker {
    /// Latency of each call, in ms.
    latency: Vec<f64>,
    /// Calls that failed or disagreed with an earlier pass.
    failed: u64,
    /// The first suggestions for each pool file.
    first: Vec<Option<Vec<Suggestion>>>,
}

/// Runs the workload.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
pub fn run(seed: u64, seconds: f64, tr: &Tracer, work: &Path) -> Result<Report, String> {
    let pool = inputs::annotate_pool(seed);
    let model = work.join("annotate.typilus");
    let mut report = Report::default();
    let (system, setup_s) = setup::repeat(
        tr,
        |tr| setup::save_load(&setup::train_serving(), &model, tr),
        |_| Ok(()),
    )?;
    report.set("setup_s", setup_s);
    let setup_spans = wall_ms_by_name(&tr.drain());

    let options = suggest_options();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    // Each worker takes files one after another, as a `predict --check`
    // user would. Two of them sample both CPUs: on a shared host each
    // CPU's speed drifts on its own, and one thread would time only
    // whichever CPU it sat on.
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut w = Worker {
                        latency: Vec::new(),
                        failed: 0,
                        first: vec![None; pool.len()],
                    };
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed) % pool.len();
                        let t = Instant::now();
                        let out = system.suggest_source(&pool[i], &options);
                        w.latency.push(t.elapsed().as_secs_f64() * 1e3);
                        match (out, &w.first[i]) {
                            (Ok(s), None) => w.first[i] = Some(s),
                            // Every pass over a file must give the same
                            // suggestions.
                            (Ok(s), Some(f)) => {
                                w.failed += u64::from(!replay::same_suggestions(&s, f))
                            }
                            (Err(_), _) => w.failed += 1,
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an annotate worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut latency = Vec::new();
    let mut failed = 0u64;
    let mut first: Vec<Option<Vec<Suggestion>>> = vec![None; pool.len()];
    for w in workers {
        latency.extend(w.latency);
        failed += w.failed;
        for (slot, out) in first.iter_mut().zip(w.first) {
            match (slot.as_ref(), out) {
                (None, out) => *slot = out,
                // The workers must agree with each other too.
                (Some(f), Some(s)) => failed += u64::from(!replay::same_suggestions(&s, f)),
                (Some(_), None) => {}
            }
        }
    }
    let files = latency.len();

    // Output checks on each distinct file: every suggestion type-checks
    // (a file with one that does not counts as failed), and annotated
    // symbols score against the generator's annotations.
    let checker = TypeChecker::new(options.profile);
    let (mut hit, mut annotated, mut suggested, mut symbols) = (0, 0, 0, 0);
    for (src, out) in pool.iter().zip(&first) {
        let Some(out) = out else { continue };
        let parsed = typilus_pyast::parse(src).map_err(|e| e.to_string())?;
        let table = typilus_pyast::SymbolTable::build(&parsed.module);
        let rejected = out.iter().any(|s| {
            !checker
                .check_with_override(&parsed, &table, s.symbol, s.ty.clone())
                .is_empty()
        });
        failed += u64::from(rejected);
        hit += out
            .iter()
            .filter(|s| s.existing.as_ref() == Some(&s.ty))
            .count();
        let predictions = system.predict_source(src).map_err(|e| e.to_string())?;
        annotated += predictions
            .iter()
            .filter(|p| p.ground_truth.is_some())
            .count();
        symbols += predictions.len();
        suggested += out.len();
    }
    report.phase("annotate", files as u64, failed);
    report.correct = failed == 0;

    let latency = sorted(latency);
    let tail = tail_quantile(latency.len()).unwrap_or(1.0);
    println!(
        "latency: p50 {:.3} ms, tail p{} {:.3} ms ({} files, {} beyond)",
        percentile(&latency, 0.5),
        tail * 100.0,
        percentile(&latency, tail),
        latency.len(),
        beyond(latency.len(), tail)
    );
    report.set("latency_p50_ms", percentile(&latency, 0.5));
    report.set("latency_tail_ms", percentile(&latency, tail));
    report.set("ops_per_s", files as f64 / elapsed);
    report.set("exact_match", hit as f64 / annotated.max(1) as f64);
    report.set("suggest_coverage", suggested as f64 / symbols.max(1) as f64);

    if tr.enabled() {
        report.set(
            "core.load_s",
            setup_spans.get("core.load").map_or(0.0, |v| v[0] / 1e3),
        );
        report.set("space.markers", system.type_map.len() as f64);
        report.set("space.overlay", system.type_map.overlay_len() as f64);
        if !replay::measure(&system, &pool, Call::Suggest, tr, &mut report) {
            println!("replay: does not match the real suggest_source");
            report.correct = false;
        }
        // Layers this workload bypasses.
        for name in [
            "models.train_step_ms",
            "nn.optim_step_ms",
            "space.add_ms",
            "space.build_s",
            "serve.roundtrip_ms",
            "serve.overhead_ms",
            "serve.write_ms",
            "serve.mean_batch",
            "serve.largest_batch",
            "loadgen.late_ms",
            "loadgen.wait_ms",
        ] {
            report.set(name, 0.0);
        }
    }
    Ok(report)
}
