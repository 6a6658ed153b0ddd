//! The sharded index and the exact scan against the in-memory forest
//! oracle.
//!
//! `RpForest` and `shard::reference_forest` are `#[cfg(test)]`: the
//! runtime serves approximate queries only from the zero-copy
//! [`SpaceIndex`]. The properties that compare against the oracle live
//! here, in the crate's unit-test binary, because an integration-test
//! binary cannot see test-only items. The vendored proptest draws its
//! cases from a fixed seed, so every run checks the same cases.

use crate::index::RpForest;
use crate::shard::reference_forest;
use crate::{build_payload, ExactIndex, Hit, PointStore, QueryScratch, RpForestConfig};
use crate::{SpaceConfig, SpaceIndex};
use proptest::prelude::*;

fn arb_points(n: std::ops::Range<usize>, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1.0f32..1.0, dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn forest_with_full_search_matches_exact(
        points in arb_points(2..60, 3),
        query in prop::collection::vec(-1.0f32..1.0, 3),
        seed in 0u64..100,
    ) {
        let n = points.len();
        let exact = ExactIndex::new(points.clone());
        let forest = RpForest::build(
            points,
            RpForestConfig { trees: 6, leaf_size: 4, search_k: n },
            seed,
        );
        let e: Vec<usize> = exact.query(&query, 5).iter().map(|h| h.index).collect();
        let f: Vec<usize> = forest.query(&query, 5).iter().map(|h| h.index).collect();
        prop_assert_eq!(e, f);
    }

    /// The zero-copy on-disk index returns exactly the hits of the
    /// in-memory forest the sharded build is defined against — same
    /// indexes, same distance bits — for any shard count and seed.
    #[test]
    fn disk_index_query_equals_reference_forest(
        points in arb_points(2..40, 4),
        query in prop::collection::vec(-1.0f32..1.0, 4),
        seed in 0u64..50,
        shards in 1usize..5,
        k in 1usize..8,
    ) {
        let mut store = PointStore::new(4);
        for p in &points {
            store.push(p);
        }
        let config = SpaceConfig {
            shards,
            forest: RpForestConfig { trees: 5, leaf_size: 4, search_k: 64 },
            rebuild_threshold: 8,
        };
        let names: Vec<String> =
            (0..points.len()).map(|i| format!("t{}", i % 3)).collect();
        let payload = build_payload(&store, &names, &config, seed, None).expect("build");
        let index = SpaceIndex::from_payload(&payload).expect("open");
        let forest = reference_forest(store, &config, seed);
        let mut scratch = QueryScratch::new();
        let mut disk_hits = Vec::new();
        index.query_into(&query, k, &mut scratch, &mut disk_hits);
        let mem_hits = forest.query(&query, k);
        prop_assert_eq!(disk_hits.len(), mem_hits.len());
        for (d, m) in disk_hits.iter().zip(&mem_hits) {
            prop_assert_eq!(d.index, m.index);
            prop_assert_eq!(d.distance.to_bits(), m.distance.to_bits());
        }
    }

    /// The forest's `query_into` with dirty, reused buffers returns
    /// exactly what its allocating `query` does.
    #[test]
    fn forest_query_into_with_reused_buffers_matches_query(
        points in arb_points(2..40, 3),
        queries in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 3), 1..5),
        k in 1usize..6,
        seed in 0u64..20,
    ) {
        let n = points.len();
        let forest = RpForest::build(
            points,
            RpForestConfig { trees: 4, leaf_size: 4, search_k: n },
            seed,
        );
        let mut scratch = QueryScratch::new();
        // Pre-soiled output: query_into must fully overwrite it.
        let mut out = vec![Hit { index: usize::MAX, distance: f32::NAN }];
        for q in &queries {
            forest.query_into(q, k, &mut scratch, &mut out);
            prop_assert_eq!(&out, &forest.query(q, k));
        }
    }
}
