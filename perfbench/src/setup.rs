//! Set-up steps shared by the workloads.

use crate::inputs::{self, SETUPS};
use crate::replay::suggest_options;
use crate::stats::median;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;
use typilus::{train, Parallelism, PreparedCorpus, TrainedSystem};

/// Prepares a named corpus the way `typilus train` does; its split is
/// seeded by the corpus seed.
pub fn prepare(
    named: &[(String, String)],
    config: &typilus::TypilusConfig,
    split: u64,
) -> PreparedCorpus {
    let refs: Vec<(&str, &str)> = named
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    PreparedCorpus::from_sources(&refs, &config.graph, split)
}

/// Generates the serving corpus and trains the served model on it.
pub fn train_serving() -> TrainedSystem {
    let (named, config) = inputs::serving_training();
    train(
        &prepare(&named, &config, inputs::SERVING_CORPUS_SEED),
        &config,
    )
}

/// Loads a saved model (with its index sidecar, if any) on the
/// benchmark's thread count, as `typilus serve --threads` does.
pub fn load(path: &Path, tr: &Tracer) -> Result<TrainedSystem, String> {
    let mut system = tr
        .span("core.load", None, 0, |_| TrainedSystem::load(path))
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    system.config.parallelism = Parallelism::fixed(inputs::THREADS);
    Ok(system)
}

/// Saves `system` and loads it back.
pub fn save_load(
    system: &TrainedSystem,
    path: &Path,
    tr: &Tracer,
) -> Result<TrainedSystem, String> {
    system
        .save(path)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    load(path, tr)
}

/// Runs `start` [`SETUPS`] times (once when tracing), stopping every
/// instance but the last with `stop`; returns the last instance and
/// the median set-up time in seconds.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
pub fn repeat<T, S>(
    tr: &Tracer,
    mut start: impl FnMut(&Tracer) -> Result<T, String>,
    stop: impl Fn(T) -> Result<S, String>,
) -> Result<(T, f64), String> {
    let times = if tr.enabled() { 1 } else { SETUPS };
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        if let Some(previous) = last.take() {
            stop(previous)?;
        }
        let t = Instant::now();
        last = Some(start(tr)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let last = last.expect("at least one set-up runs");
    Ok((last, median(&secs)))
}

/// How many checker-verified suggestions `system` makes for `sources`;
/// divided by their annotatable symbols, this is `suggest_coverage`.
pub fn suggestions<'a>(
    system: &TrainedSystem,
    sources: impl Iterator<Item = &'a str>,
) -> Result<usize, String> {
    let options = suggest_options();
    let mut suggested = 0;
    for src in sources {
        suggested += system
            .suggest_source(src, &options)
            .map_err(|e| e.to_string())?
            .len();
    }
    Ok(suggested)
}
