//! In-process replays of the request path with a span per stage.
//!
//! [`predict`] repeats what `TrainedSystem::predict_source` does and
//! [`suggest`] what `TrainedSystem::suggest_source` does, one public
//! call per layer, so each layer's time can be read off its span. The
//! callers compare a replay's result with the real call's, so a replay
//! that drifts from the program is an output-check failure rather than
//! a silently wrong trace.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use typilus::{LossKind, SuggestOptions, Suggestion, SymbolPrediction, TrainedSystem};
use typilus_check::TypeChecker;
use typilus_pyast::{ParseError, SymbolTable};
use typilus_space::{QueryScratch, TypeMap};

/// What replays collect besides their spans: counts, and up to `keep`
/// target embeddings for the recall probe.
#[derive(Debug, Default, Clone)]
pub struct Sink {
    pub nodes: Vec<f64>,
    pub targets: Vec<f64>,
    pub tried: usize,
    pub accepted: usize,
    pub queries: Vec<Vec<f32>>,
    pub keep: usize,
}

/// Replays `predict_source`: parse, symbol table, graph, `prepare`,
/// GNN embedding, one kNN query per target.
pub fn predict(
    system: &TrainedSystem,
    source: &str,
    tr: &Tracer,
    parent: Option<SpanId>,
    request: u64,
    sink: &mut Sink,
) -> Result<Vec<SymbolPrediction>, ParseError> {
    assert_ne!(
        system.model.config.loss,
        LossKind::Class,
        "the replay mirrors the TypeSpace path only"
    );
    let parsed = tr.span("pyast.parse", parent, request, |_| {
        typilus_pyast::parse(source)
    })?;
    let table = tr.span("pyast.symtable", parent, request, |_| {
        SymbolTable::build(&parsed.module)
    });
    let graph = tr.span("graph.build", parent, request, |_| {
        typilus_graph::build_graph(&parsed, &table, &system.config.graph, "<input>")
    });
    sink.nodes.push(graph.node_count() as f64);
    let prepared = tr.span("models.prepare", parent, request, |_| {
        system.model.prepare(&graph)
    });
    sink.targets.push(prepared.targets.len() as f64);
    if prepared.targets.is_empty() {
        return Ok(Vec::new());
    }
    let embeddings = tr.span("models.embed", parent, request, |_| {
        system.model.embed_inference(&prepared)
    });
    let mut out = Vec::with_capacity(prepared.targets.len());
    for (t, target) in prepared.targets.iter().enumerate() {
        let candidates = match &embeddings {
            Some(emb) => {
                if sink.queries.len() < sink.keep {
                    sink.queries.push(emb.row(t).to_vec());
                }
                tr.span("space.knn", parent, request, |_| {
                    system.type_map.predict(emb.row(t), system.config.knn)
                })
            }
            None => Vec::new(),
        };
        out.push(SymbolPrediction {
            file_idx: usize::MAX,
            symbol: target.symbol,
            name: target.name.clone(),
            kind: target.kind,
            ground_truth: target.ty.clone(),
            candidates,
        });
    }
    Ok(out)
}

/// Replays `suggest_source`: its own parse and symbol table, the
/// predict path, then the checker on the file and on each tried
/// candidate.
pub fn suggest(
    system: &TrainedSystem,
    source: &str,
    options: &SuggestOptions,
    tr: &Tracer,
    parent: Option<SpanId>,
    request: u64,
    sink: &mut Sink,
) -> Result<Vec<Suggestion>, ParseError> {
    let parsed = tr.span("pyast.parse", parent, request, |_| {
        typilus_pyast::parse(source)
    })?;
    let table = tr.span("pyast.symtable", parent, request, |_| {
        SymbolTable::build(&parsed.module)
    });
    let predictions = predict(system, source, tr, parent, request, sink)?;
    let checker = TypeChecker::new(options.profile);
    let issues = tr.span("check.check", parent, request, |_| {
        checker.check(&parsed, &table)
    });
    if !issues.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for p in predictions {
        if p.ground_truth.is_some() && !options.include_annotated {
            continue;
        }
        let mut rejected = 0usize;
        for candidate in p.candidates.iter().take(options.max_candidates) {
            if candidate.probability < options.min_confidence {
                break;
            }
            if candidate.ty.is_top() {
                continue;
            }
            sink.tried += 1;
            let issues = tr.span("check.override", parent, request, |_| {
                checker.check_with_override(&parsed, &table, p.symbol, candidate.ty.clone())
            });
            if issues.is_empty() {
                sink.accepted += 1;
                out.push(Suggestion {
                    symbol: p.symbol,
                    name: p.name.clone(),
                    kind: p.kind,
                    ty: candidate.ty.clone(),
                    confidence: candidate.probability,
                    existing: p.ground_truth.clone(),
                    rejected_above: rejected,
                });
                break;
            }
            rejected += 1;
        }
    }
    out.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    Ok(out)
}

/// Whether two prediction lists are the same reply.
pub fn same_predictions(a: &[SymbolPrediction], b: &[SymbolPrediction]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.kind == y.kind
                && x.ground_truth == y.ground_truth
                && x.candidates.len() == y.candidates.len()
                && x.candidates.iter().zip(&y.candidates).all(|(c, d)| {
                    c.ty == d.ty && c.probability.to_bits() == d.probability.to_bits()
                })
        })
}

/// Whether two suggestion lists are the same output.
pub fn same_suggestions(a: &[Suggestion], b: &[Suggestion]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Share of the exact 10 nearest markers that the map's own index
/// returns, over the probe queries (1 for an exact map).
pub fn recall_at_10(map: &TypeMap, queries: &[Vec<f32>]) -> f64 {
    let mut exact = TypeMap::new(map.dim());
    for (embedding, ty) in map.iter() {
        exact
            .add(embedding.to_vec(), ty.clone())
            .expect("markers of one map share its width");
    }
    let mut scratch = QueryScratch::default();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut found, mut total) = (0usize, 0usize);
    for q in queries {
        map.nearest_into(q, 10, &mut scratch, &mut got);
        exact.nearest_into(q, 10, &mut scratch, &mut want);
        total += want.len();
        found += want
            .iter()
            .filter(|w| got.iter().any(|g| g.index == w.index))
            .count();
    }
    if total == 0 {
        1.0
    } else {
        found as f64 / total as f64
    }
}

/// Top-1 exact match over annotated symbols: `(matches, annotated)`.
pub fn exact_counts(predictions: &[SymbolPrediction]) -> (usize, usize) {
    let mut hit = 0;
    let mut annotated = 0;
    for p in predictions {
        if let Some(truth) = &p.ground_truth {
            annotated += 1;
            if p.top().map(|t| &t.ty) == Some(truth) {
                hit += 1;
            }
        }
    }
    (hit, annotated)
}

/// Which real call a replay mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `predict_source`, the served request.
    Predict,
    /// `suggest_source`, the annotate request.
    Suggest,
}

/// The suggestion options of every workload: predict, then keep the
/// best candidate the checker accepts, annotated symbols included so
/// that suggestions can be scored against the annotations.
pub fn suggest_options() -> SuggestOptions {
    SuggestOptions {
        include_annotated: true,
        ..SuggestOptions::default()
    }
}

/// Replays `sources` against `system` twice, first with tracing off
/// and then traced, timing the real call beside each traced replay,
/// and sets the per-layer metrics of the stages on `report`. Returns
/// whether every replay matched the real call's output.
// lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
pub fn measure(
    system: &TrainedSystem,
    sources: &[String],
    call: Call,
    tr: &Tracer,
    report: &mut Report,
) -> bool {
    const KEEP: usize = 256;
    let options = suggest_options();
    let off = Tracer::new(false);
    let mut sink = Sink::default();
    let arena = typilus_nn::arena_stats();
    let mut untraced = 0.0;
    for (i, src) in sources.iter().enumerate() {
        let t = Instant::now();
        let _ = match call {
            Call::Predict => predict(system, src, &off, None, i as u64, &mut sink).map(|_| ()),
            Call::Suggest => {
                suggest(system, src, &options, &off, None, i as u64, &mut sink).map(|_| ())
            }
        };
        untraced += t.elapsed().as_secs_f64();
    }
    let arena = typilus_nn::arena_stats().since(&arena);
    let mut sink = Sink {
        keep: KEEP,
        ..Sink::default()
    };
    let mut faithful = true;
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    for (i, src) in sources.iter().enumerate() {
        let request = i as u64;
        let real_predict = || {
            tr.span("core.predict_source", None, request, |_| {
                system.predict_source(src)
            })
        };
        let real_suggest = || {
            tr.span("core.suggest_source", None, request, |_| {
                system.suggest_source(src, &options)
            })
        };
        let mut replayed_suggest = None;
        let mut replayed_predict = None;
        let mut mirror = |sink: &mut Sink| {
            tr.span("core.request", None, request, |parent| match call {
                Call::Predict => {
                    replayed_predict = Some(predict(system, src, tr, parent, request, sink))
                }
                Call::Suggest => {
                    replayed_suggest =
                        Some(suggest(system, src, &options, tr, parent, request, sink))
                }
            })
        };
        // Alternate which side runs first so cache warm-up favours
        // neither.
        let (real_p, real_s) = if i % 2 == 0 {
            mirror(&mut sink);
            (real_predict(), (call == Call::Suggest).then(real_suggest))
        } else {
            let r = (real_predict(), (call == Call::Suggest).then(real_suggest));
            mirror(&mut sink);
            r
        };
        faithful &= match (call, &real_p, replayed_predict, real_s, replayed_suggest) {
            (Call::Predict, Ok(real), Some(Ok(ours)), _, _) => same_predictions(real, &ours),
            (Call::Suggest, _, _, Some(Ok(real)), Some(Ok(ours))) => same_suggestions(&real, &ours),
            _ => false,
        };
        if let (Call::Predict, Ok(preds)) = (call, &real_p) {
            let reply = typilus_serve::Response::Predictions(
                preds.iter().map(typilus_serve::SymbolHints::of).collect(),
            );
            let t = Instant::now();
            let bytes = typilus_serve::protocol::encode(&reply);
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let back = bytes
                .as_ref()
                .ok()
                .map(|b| typilus_serve::protocol::decode::<typilus_serve::Response>(b));
            decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            faithful &= matches!(back, Some(Ok(r)) if r == reply);
        }
    }
    let spans = tr.drain();
    let own = crate::trace::self_ms_by_name(&spans);
    let wall = crate::trace::wall_ms_by_name(&spans);
    let med = |m: &BTreeMap<&str, Vec<f64>>, name: &str| m.get(name).map_or(0.0, |v| median(v));
    let sum =
        |m: &BTreeMap<&str, Vec<f64>>, name: &str| m.get(name).map_or(0.0, |v| v.iter().sum());
    for (metric, span) in [
        ("pyast.parse_ms", "pyast.parse"),
        ("pyast.symtable_ms", "pyast.symtable"),
        ("graph.build_ms", "graph.build"),
        ("models.prepare_ms", "models.prepare"),
        ("models.embed_ms", "models.embed"),
        ("check.check_ms", "check.check"),
        ("check.override_ms", "check.override"),
    ] {
        report.set(metric, med(&own, span));
    }
    report.set("space.knn_us", med(&own, "space.knn") * 1e3);
    report.set("core.predict_source_ms", med(&wall, "core.predict_source"));
    let stages: f64 = [
        "pyast.parse",
        "pyast.symtable",
        "graph.build",
        "models.prepare",
        "models.embed",
        "space.knn",
        "check.check",
        "check.override",
    ]
    .iter()
    .map(|s| sum(&own, s))
    .sum();
    let real = match call {
        Call::Predict => sum(&wall, "core.predict_source"),
        Call::Suggest => sum(&wall, "core.suggest_source"),
    };
    report.set("core.stage_coverage", stages / real.max(1e-9));
    let traced = sum(&wall, "core.request") / 1e3;
    report.set("trace.overhead", traced / untraced.max(1e-9));
    report.set("graph.nodes", median(&sink.nodes));
    report.set("models.targets", median(&sink.targets));
    report.set(
        "check.accept_ratio",
        sink.accepted as f64 / sink.tried.max(1) as f64,
    );
    report.set(
        "space.recall_at_10",
        recall_at_10(&system.type_map, &sink.queries),
    );
    report.set("serve.encode_us", median(&encode_us));
    report.set("serve.decode_us", median(&decode_us));
    report.set(
        "nn.fresh_allocs_per_step",
        arena.fresh as f64 / sources.len().max(1) as f64,
    );
    report.set(
        "nn.arena_reuse_ratio",
        arena.reused as f64 / (arena.reused + arena.fresh).max(1) as f64,
    );
    faithful
}

#[cfg(test)]
mod tests {
    use super::*;
    use typilus::{train, ModelConfig, PreparedCorpus, TypilusConfig};
    use typilus_corpus::{generate, CorpusConfig};

    fn fixture() -> (TrainedSystem, Vec<String>) {
        let corpus = generate(&CorpusConfig {
            files: 24,
            seed: 3,
            ..CorpusConfig::default()
        });
        let data = PreparedCorpus::from_corpus(&corpus, &typilus_graph::GraphConfig::default(), 3);
        let config = TypilusConfig {
            model: ModelConfig {
                dim: 8,
                gnn_steps: 2,
                min_subtoken_count: 1,
                ..ModelConfig::default()
            },
            epochs: 2,
            ..TypilusConfig::default()
        };
        let sources = corpus
            .files
            .iter()
            .take(16)
            .map(|f| f.source.clone())
            .collect();
        (train(&data, &config), sources)
    }

    #[test]
    fn stages_account_for_the_real_call() {
        let (system, sources) = fixture();
        for call in [Call::Predict, Call::Suggest] {
            let tr = Tracer::new(true);
            let mut report = Report::default();
            assert!(
                measure(&system, &sources, call, &tr, &mut report),
                "{call:?}"
            );
            let coverage = report.metrics["core.stage_coverage"];
            assert!(
                (0.8..1.2).contains(&coverage),
                "{call:?}: coverage {coverage}"
            );
            assert!(report.metrics["models.targets"] > 0.0);
        }
    }
}
