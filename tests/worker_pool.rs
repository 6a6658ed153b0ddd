//! The persistent worker pool must (a) keep results bit-identical at
//! any pool size and (b) surface worker panic payloads without dying.
//! (The warm-arena guarantee — zero fresh allocations in steady state —
//! is asserted in `worker_pool_arena.rs`, its own binary, because the
//! arena counters are process-global and tests here run concurrently.)

use typilus::{EncoderKind, LossKind, ModelConfig, PreparedCorpus};
use typilus_corpus::{generate, CorpusConfig};
use typilus_models::{PreparedFile, TypeModel};
use typilus_nn::WorkerPool;

fn fixture(seed: u64) -> (TypeModel, Vec<PreparedFile>) {
    let corpus = generate(&CorpusConfig {
        files: 16,
        seed,
        ..CorpusConfig::default()
    });
    let data = PreparedCorpus::from_corpus(&corpus, &typilus::GraphConfig::default(), seed);
    let config = ModelConfig {
        encoder: EncoderKind::Graph,
        loss: LossKind::Typilus,
        dim: 12,
        gnn_steps: 2,
        min_subtoken_count: 1,
        seed,
        ..ModelConfig::default()
    };
    let train_graphs = data.graphs_of(&data.split.train);
    let model = TypeModel::new(config, &train_graphs);
    let graphs: Vec<_> = data.files.iter().map(|f| f.graph.clone()).collect();
    let prepared = model.prepare_batch(&graphs, &WorkerPool::new(2));
    (model, prepared)
}

/// A full train step through pools of 1, 2 and 7 workers produces
/// bit-identical losses and gradients.
#[test]
fn full_train_step_is_bit_identical_across_pool_sizes() {
    let (model, prepared) = fixture(3);
    let batch: Vec<&PreparedFile> = prepared.iter().collect();
    let (base_loss, base_grads) = model
        .train_step_parallel(&batch, &WorkerPool::new(1))
        .expect("annotated targets");
    for workers in [2usize, 7] {
        let pool = WorkerPool::new(workers);
        let (loss, grads) = model.train_step_parallel(&batch, &pool).unwrap();
        assert_eq!(
            base_loss.to_bits(),
            loss.to_bits(),
            "loss differs at {workers} workers"
        );
        for ((id_a, ga), (id_b, gb)) in grads.iter().zip(base_grads.iter()) {
            assert_eq!(id_a, id_b);
            for (a, b) in ga.as_slice().iter().zip(gb.as_slice()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "gradient differs at {workers} workers"
                );
            }
        }
    }
}

/// A panic on a worker stripe reaches the caller with its original
/// payload, and the pool keeps serving full train steps afterwards.
#[test]
fn pool_survives_worker_panic_and_surfaces_payload() {
    let (model, prepared) = fixture(8);
    let batch: Vec<&PreparedFile> = prepared.iter().collect();
    let pool = WorkerPool::new(3);
    let items: Vec<usize> = (0..24).collect();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.map_ordered(&items, |i, _| {
            assert!(i != 13, "stripe worker died on item {i}");
            i
        })
    }))
    .expect_err("worker panic must propagate to the caller");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("stripe worker died on item 13"),
        "original panic payload was lost: {msg:?}"
    );
    // The same pool — with the same still-alive workers — must keep
    // serving real work.
    let (loss, _) = model
        .train_step_parallel(&batch, &pool)
        .expect("pool still serves");
    assert!(loss.is_finite());
    let single = model
        .train_step_parallel(&batch, &WorkerPool::new(1))
        .unwrap();
    assert_eq!(single.0.to_bits(), loss.to_bits());
}
