//! End-to-end round trip of the sharded TypeSpace index through the
//! model sidecar: a trained system whose type map serves from the
//! zero-copy on-disk index must predict identically after save +
//! mmap-backed load, a corrupted sidecar must surface as a typed
//! [`PersistError`], and a missing sidecar must degrade to exact
//! search — warn, not fail — because the markers themselves live in
//! the model artifact.

use std::path::PathBuf;
use std::sync::OnceLock;
use typilus::{
    space_sidecar_path, train, EncoderKind, GraphConfig, LossKind, ModelConfig, PersistError,
    PreparedCorpus, RpForestConfig, SpaceConfig, TrainedSystem, TypilusConfig,
};
use typilus_corpus::{generate, CorpusConfig};

/// One tiny trained system with a built sharded index, shared by every
/// test. `search_k` far above the marker count makes the approximate
/// index exhaustive, so predictions are comparable hit-for-hit with
/// exact search.
fn sharded_system() -> &'static (TrainedSystem, PreparedCorpus) {
    static SYS: OnceLock<(TrainedSystem, PreparedCorpus)> = OnceLock::new();
    SYS.get_or_init(|| {
        let corpus = generate(&CorpusConfig {
            files: 20,
            seed: 29,
            ..CorpusConfig::default()
        });
        let data = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 29);
        let config = TypilusConfig {
            model: ModelConfig {
                encoder: EncoderKind::Graph,
                loss: LossKind::Typilus,
                dim: 8,
                gnn_steps: 1,
                min_subtoken_count: 1,
                seed: 29,
                ..ModelConfig::default()
            },
            epochs: 1,
            batch_size: 4,
            seed: 29,
            ..TypilusConfig::default()
        };
        let mut system = train(&data, &config);
        let space = SpaceConfig {
            shards: 4,
            forest: RpForestConfig {
                trees: 8,
                leaf_size: 8,
                search_k: 1 << 20,
            },
            rebuild_threshold: 1024,
        };
        system
            .type_map
            .build_sharded_index(&space, 29, None)
            .expect("build sharded index");
        (system, data)
    })
}

fn work_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("typilus_space_ix_{}_{label}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn assert_identical_predictions(a: &TrainedSystem, b: &TrainedSystem, data: &PreparedCorpus) {
    let mut compared = 0usize;
    for &idx in &data.split.test {
        let pa = a.predict_file(data, idx);
        let pb = b.predict_file(data, idx);
        assert_eq!(pa.len(), pb.len(), "symbol count differs in file {idx}");
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.candidates.len(), y.candidates.len());
            for (cx, cy) in x.candidates.iter().zip(&y.candidates) {
                assert_eq!(cx.ty, cy.ty, "type differs for `{}` in file {idx}", x.name);
                assert_eq!(
                    cx.probability.to_bits(),
                    cy.probability.to_bits(),
                    "probability differs for `{}` in file {idx}",
                    x.name
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 10, "too few candidates compared: {compared}");
}

#[test]
fn predictions_survive_save_and_mmap_load() {
    let (system, data) = sharded_system();
    let dir = work_dir("roundtrip");
    let model = dir.join("model.typilus");
    system.save(&model).expect("save");

    let sidecar = space_sidecar_path(&model);
    assert!(sidecar.exists(), "save must write the index sidecar");

    let loaded = TrainedSystem::load(&model).expect("load");
    let before = system.type_map.space_index().expect("index built");
    let after = loaded
        .type_map
        .space_index()
        .expect("load must reattach the sidecar index, not fall back");
    assert_eq!(after.file_id(), before.file_id(), "index identity survives");
    assert_eq!(after.len(), before.len());

    assert_identical_predictions(system, &loaded, data);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_sidecar_is_a_typed_load_error() {
    let (system, _) = sharded_system();
    let dir = work_dir("corrupt");
    let model = dir.join("model.typilus");
    system.save(&model).expect("save");

    let sidecar = space_sidecar_path(&model);
    let mut bytes = std::fs::read(&sidecar).expect("read sidecar");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&sidecar, &bytes).expect("rewrite sidecar");

    match TrainedSystem::load(&model) {
        Err(PersistError::Space(e)) => {
            // The damage lands in the index body: caught by the
            // checksum sweep, reported as the corrupt section.
            let msg = e.to_string();
            assert!(
                msg.contains("corrupt") || msg.contains("truncated"),
                "unexpected space error: {msg}"
            );
        }
        Err(other) => {
            // A flip in the atomic_io footer region is caught one
            // layer down; still a typed corruption error.
            assert!(
                matches!(
                    other,
                    PersistError::ChecksumMismatch { .. }
                        | PersistError::Truncated { .. }
                        | PersistError::MissingFooter
                ),
                "unexpected error kind: {other}"
            );
        }
        Ok(_) => panic!("a model with a corrupt index sidecar must not load"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_sidecar_degrades_to_exact_search() {
    let (system, data) = sharded_system();
    let dir = work_dir("missing");
    let model = dir.join("model.typilus");
    system.save(&model).expect("save");
    std::fs::remove_file(space_sidecar_path(&model)).expect("delete sidecar");

    let loaded = TrainedSystem::load(&model).expect("markers live in the model; load must succeed");
    assert!(
        loaded.type_map.space_index().is_none(),
        "without the sidecar the map must fall back to exact search"
    );
    // With `search_k` above the marker count the sharded index is
    // exhaustive, so the exact-search fallback predicts identically.
    assert_identical_predictions(system, &loaded, data);
    std::fs::remove_dir_all(&dir).ok();
}

/// Index wire variant 1 held the retired in-memory forest. A model
/// whose type map carries it is a typed codec error on load, not a
/// panic and not a misparse of the bytes behind the tag.
#[test]
fn retired_forest_index_variant_is_a_typed_load_error() {
    let (system, _) = sharded_system();
    let file_id = system
        .type_map
        .space_index()
        .expect("index built")
        .file_id();
    let mut bytes = system.to_bytes().expect("encode");
    // A sharded map serializes as the `Detached` record: variant tag 2
    // (u32 LE) followed by the sidecar's `file_id` (u64 LE).
    let mut record = 2u32.to_le_bytes().to_vec();
    record.extend_from_slice(&file_id.to_le_bytes());
    let at: Vec<usize> = bytes
        .windows(record.len())
        .enumerate()
        .filter(|(_, w)| *w == record.as_slice())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "the index record must occur exactly once");
    bytes[at[0]..at[0] + 4].copy_from_slice(&1u32.to_le_bytes());

    let dir = work_dir("retired_variant");
    let model = dir.join("model.typilus");
    typilus::atomic_io::write_artifact(&model, &bytes).expect("write artifact");
    match TrainedSystem::load(&model) {
        Err(PersistError::Codec(e)) => {
            assert!(e.to_string().contains("in-memory forest"), "{e}");
        }
        Err(other) => panic!("expected a codec error, got {other}"),
        Ok(_) => panic!("a model with the retired index variant must not load"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What `train --index sharded --shards 1` asks for: the approximate
/// index is built sharded even with one shard, saved as a sidecar, and
/// the loaded model predicts bit-identically to the in-memory system.
#[test]
fn one_shard_training_builds_a_sidecar_index_that_round_trips() {
    let (base, data) = sharded_system();
    let config = TypilusConfig {
        approximate_index: true,
        space: SpaceConfig {
            shards: 1,
            ..SpaceConfig::default()
        },
        ..base.config
    };
    let system = train(data, &config);
    let index = system
        .type_map
        .space_index()
        .expect("one shard still builds the sharded index");
    assert_eq!(index.shard_count(), 1);

    let dir = work_dir("one_shard");
    let model = dir.join("model.typilus");
    system.save(&model).expect("save");
    assert!(
        space_sidecar_path(&model).exists(),
        "save must write the sidecar"
    );
    let loaded = TrainedSystem::load(&model).expect("load");
    assert_eq!(loaded.type_map.index_kind(), "sharded");
    assert_identical_predictions(&system, &loaded, data);
    std::fs::remove_dir_all(&dir).ok();
}
