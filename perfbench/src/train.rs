//! `train`: `typilus::train` on a generated corpus, repeated until the
//! run's time is up. The `nn` tape and kernels, `Adam::step_pooled` and
//! the worker pool dominate; `serve` and kNN search are untouched.
//!
//! The traced run times the training steps through a replay of the
//! epoch loop of `train_with_options` (same calls, same order, same
//! RNG), whose final weights must equal the real run's bit for bit.

use crate::inputs::{self, THREADS};
use crate::report::Report;
use crate::setup;
use crate::stats::{median, percentile, sorted, TAIL_LADDER};
use crate::trace::{self_ms_by_name, wall_ms_by_name, Tracer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;
use typilus::{train, PreparedCorpus, TrainedSystem, TypilusConfig};
use typilus_models::{PreparedFile, TypeModel};
use typilus_nn::{Adam, WorkerPool};

/// Runs the workload.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
pub fn run(seed: u64, seconds: f64, tr: &Tracer, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let ((data, config), setup_s) = setup::repeat(
        tr,
        |_| {
            let (named, config) = inputs::train_training(seed);
            Ok((
                setup::prepare(&named, &config, inputs::TRAIN_CORPUS_SEED),
                config,
            ))
        },
        |_| Ok(()),
    )?;
    report.set("setup_s", setup_s);
    let train_files = data.split.train.len();

    // Every call trains the same model from the same corpus: its
    // losses must stay finite and its artifact must not change.
    let (mut epoch_ms, mut calls, mut failed, mut wall) = (Vec::new(), 0u64, 0u64, 0.0);
    let mut artifact: Option<Vec<u8>> = None;
    let mut last = None;
    let start = Instant::now();
    while calls == 0 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let system = train(&data, &config);
        wall += t.elapsed().as_secs_f64();
        calls += 1;
        epoch_ms.extend(system.epochs.iter().map(|e| e.seconds * 1e3));
        let finite = system.epochs.iter().all(|e| e.mean_loss.is_finite());
        let bytes = system.to_bytes().map_err(|e| e.to_string())?;
        let same = artifact.get_or_insert_with(|| bytes.clone()) == &bytes;
        failed += u64::from(!finite || !same);
        last = Some(system);
        if tr.enabled() {
            break;
        }
    }
    let system = last.expect("at least one training call");
    let artifact = artifact.expect("at least one training call");
    let model = work.join("train.typilus");
    system
        .save(&model)
        .map_err(|e| format!("save {}: {e}", model.display()))?;
    let loaded = setup::load(&model, tr)?;
    let round_trip = loaded.to_bytes().map_err(|e| e.to_string())? == artifact;
    report.phase("train", calls, failed);
    report.phase("artifact", 1, u64::from(!round_trip));
    report.correct = report.failed == 0;

    // A run holds ~20 epochs, too few for the ten-beyond tail rule; the
    // tail is the top of the ladder, p90, which a single slow epoch
    // cannot move on its own the way the maximum would.
    let epoch_sorted = sorted(epoch_ms.clone());
    let tail = TAIL_LADDER[TAIL_LADDER.len() - 1];
    println!(
        "epochs: p50 {:.1} ms, p{} {:.1} ms, max {:.1} ms over {} epochs of {} calls",
        percentile(&epoch_sorted, 0.5),
        tail * 100.0,
        percentile(&epoch_sorted, tail),
        percentile(&epoch_sorted, 1.0),
        epoch_sorted.len(),
        calls
    );
    report.set("latency_p50_ms", percentile(&epoch_sorted, 0.5));
    report.set("latency_tail_ms", percentile(&epoch_sorted, tail));
    report.set(
        "ops_per_s",
        (train_files * config.epochs) as f64 * calls as f64 / wall,
    );
    let (mut hit, mut annotated, mut symbols) = (0, 0, 0);
    for &idx in &data.split.test {
        let predictions = loaded.predict_file(&data, idx);
        let (h, a) = crate::replay::exact_counts(&predictions);
        hit += h;
        annotated += a;
        symbols += predictions.len();
    }
    report.set("exact_match", hit as f64 / annotated.max(1) as f64);
    let test: Vec<&str> = data
        .split
        .test
        .iter()
        .map(|&i| data.files[i].source.as_str())
        .collect();
    let suggested = setup::suggestions(&loaded, test.into_iter())?;
    report.set("suggest_coverage", suggested as f64 / symbols.max(1) as f64);

    if tr.enabled() {
        let load_s = wall_ms_by_name(&tr.drain())
            .get("core.load")
            .map_or(0.0, |v| v[0] / 1e3);
        report.set("core.load_s", load_s);
        if !replay_epochs(&data, &config, &system, tr, &mut report) {
            println!("replay: weights differ from the real training run");
            report.correct = false;
        }
        report.set("space.markers", loaded.type_map.len() as f64);
        report.set("space.overlay", 0.0);
        // Layers this workload bypasses.
        for name in [
            "pyast.parse_ms",
            "pyast.symtable_ms",
            "graph.build_ms",
            "graph.nodes",
            "models.embed_ms",
            "models.targets",
            "space.knn_us",
            "space.recall_at_10",
            "space.add_ms",
            "space.build_s",
            "check.check_ms",
            "check.override_ms",
            "check.accept_ratio",
            "core.predict_source_ms",
            "serve.roundtrip_ms",
            "serve.overhead_ms",
            "serve.write_ms",
            "serve.encode_us",
            "serve.decode_us",
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

/// Replays the epoch loop of `train_with_options` with a span around
/// each `prepare`, `train_step_parallel` and `Adam::step_pooled`; odd
/// epochs are traced and even ones not, for `trace.overhead`. Returns
/// whether the replayed weights equal `real`'s.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
fn replay_epochs(
    data: &PreparedCorpus,
    config: &TypilusConfig,
    real: &TrainedSystem,
    tr: &Tracer,
    report: &mut Report,
) -> bool {
    let off = Tracer::new(false);
    let pool = WorkerPool::new(THREADS);
    let mut model = TypeModel::new(config.model, &data.graphs_of(&data.split.train));
    let mut optimizer = Adam::new(config.lr);
    let prepared: Vec<PreparedFile> = pool.map_ordered(&data.files, |i, f| {
        tr.span("models.prepare", None, i as u64, |_| {
            model.prepare(&f.graph)
        })
    });
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (mut traced_s, mut untraced_s, mut steps) = (Vec::new(), Vec::new(), 0u64);
    let (mut fresh, mut reused) = (0u64, 0u64);
    for epoch in 0..config.epochs {
        let t = if epoch % 2 == 1 { tr } else { &off };
        let before = typilus_nn::arena_stats();
        let start = Instant::now();
        t.span("train.epoch", None, epoch as u64, |parent| {
            let mut order = data.split.train.clone();
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                let batch: Vec<&PreparedFile> = chunk.iter().map(|&i| &prepared[i]).collect();
                let step = t.span("models.train_step", parent, epoch as u64, |_| {
                    model.train_step_parallel(&batch, &pool)
                });
                if let Some((loss, grads)) = step {
                    if loss.is_finite() {
                        t.span("nn.optim_step", parent, epoch as u64, |_| {
                            optimizer.step_pooled(&mut model.params, grads, &pool)
                        });
                    }
                }
                if t.enabled() {
                    steps += 1;
                }
            }
        });
        let secs = start.elapsed().as_secs_f64();
        if t.enabled() {
            traced_s.push(secs);
            let d = typilus_nn::arena_stats().since(&before);
            fresh += d.fresh;
            reused += d.reused;
        } else {
            untraced_s.push(secs);
        }
    }
    let spans = tr.drain();
    let own = self_ms_by_name(&spans);
    let wall = wall_ms_by_name(&spans);
    let med = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    let sum = |name: &str| own.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    report.set("models.prepare_ms", med("models.prepare"));
    report.set("models.train_step_ms", med("models.train_step"));
    report.set("nn.optim_step_ms", med("nn.optim_step"));
    report.set(
        "nn.fresh_allocs_per_step",
        fresh as f64 / steps.max(1) as f64,
    );
    report.set(
        "nn.arena_reuse_ratio",
        reused as f64 / (reused + fresh).max(1) as f64,
    );
    // The steps' share of the real run's epochs.
    let real_epoch_ms: Vec<f64> = real.epochs.iter().map(|e| e.seconds * 1e3).collect();
    let epochs_traced = wall.get("train.epoch").map_or(1, Vec::len) as f64;
    report.set(
        "core.stage_coverage",
        (sum("models.train_step") + sum("nn.optim_step")) / epochs_traced / median(&real_epoch_ms),
    );
    report.set(
        "trace.overhead",
        median(&traced_s) / median(&untraced_s).max(1e-9),
    );
    let ours = typilus_serbin::to_bytes(&model);
    let theirs = typilus_serbin::to_bytes(&real.model);
    matches!((ours, theirs), (Ok(a), Ok(b)) if a == b)
}
