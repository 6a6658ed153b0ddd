//! Ablation shape tests (paper Table 4) and approximate-index fidelity,
//! at a scale small enough for CI.

use typilus::{
    evaluate_files, train, EdgeSet, EncoderKind, GraphConfig, KnnConfig, LossKind, MatchRates,
    ModelConfig, PreparedCorpus, TypilusConfig,
};
use typilus_corpus::{generate, CorpusConfig};
use typilus_space::{RpForestConfig, SpaceConfig};

fn run_with_edges(edges: EdgeSet, files: usize, epochs: usize) -> (f64, usize) {
    let corpus = generate(&CorpusConfig {
        files,
        seed: 17,
        ..CorpusConfig::default()
    });
    let graph = GraphConfig {
        edges,
        ..GraphConfig::default()
    };
    let data = PreparedCorpus::from_corpus(&corpus, &graph, 17);
    let config = TypilusConfig {
        model: ModelConfig {
            encoder: EncoderKind::Graph,
            loss: LossKind::Typilus,
            dim: 16,
            gnn_steps: 3,
            min_subtoken_count: 1,
            ..ModelConfig::default()
        },
        graph,
        epochs,
        batch_size: 8,
        lr: 0.02,
        common_threshold: 8,
        ..TypilusConfig::default()
    };
    let system = train(&data, &config);
    let examples = evaluate_files(&system, &data, &data.split.test);
    let rates = MatchRates::compute(&examples, &system.hierarchy, |_| true);
    (rates.exact, rates.count)
}

#[test]
fn edge_ablations_change_outcomes() {
    let (full, n_full) = run_with_edges(EdgeSet::all(), 40, 6);
    let (names_only, n_names) = run_with_edges(EdgeSet::only_names(), 40, 6);
    assert_eq!(n_full, n_names, "same evaluation set");
    // Table 4 shape with slack for the small scale: removing all
    // relational edges should not *beat* the full model by a margin,
    // and the full model should be usable.
    assert!(full > 20.0, "full model too weak: {full:.1}%");
    assert!(
        names_only <= full + 8.0,
        "only-names ({names_only:.1}%) should not outperform the full graph ({full:.1}%)"
    );
}

#[test]
fn approximate_index_preserves_predictions() {
    let corpus = generate(&CorpusConfig {
        files: 40,
        seed: 19,
        ..CorpusConfig::default()
    });
    let data = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 19);
    let config = TypilusConfig {
        model: ModelConfig {
            encoder: EncoderKind::Graph,
            loss: LossKind::Typilus,
            dim: 16,
            gnn_steps: 3,
            min_subtoken_count: 1,
            ..ModelConfig::default()
        },
        epochs: 5,
        batch_size: 8,
        lr: 0.02,
        knn: KnnConfig::default(),
        common_threshold: 8,
        ..TypilusConfig::default()
    };
    let exact_system = train(&data, &config);
    let mut approx_system = exact_system.clone();
    approx_system
        .type_map
        .build_sharded_index(
            &SpaceConfig {
                shards: 1,
                forest: RpForestConfig {
                    trees: 12,
                    leaf_size: 16,
                    search_k: 512,
                },
                ..SpaceConfig::default()
            },
            7,
            None,
        )
        .expect("index fits the on-disk id space");
    let mut total = 0usize;
    let mut agree = 0usize;
    for &idx in &data.split.test {
        let a = exact_system.predict_file(&data, idx);
        let b = approx_system.predict_file(&data, idx);
        for (x, y) in a.iter().zip(&b) {
            let (Some(tx), Some(ty)) = (x.top(), y.top()) else {
                continue;
            };
            total += 1;
            if tx.ty == ty.ty {
                agree += 1;
            }
        }
    }
    assert!(total > 30, "too few comparisons: {total}");
    let agreement = agree as f64 / total as f64;
    assert!(
        agreement >= 0.9,
        "approximate index agreement too low: {agreement:.2} ({agree}/{total})"
    );
}
