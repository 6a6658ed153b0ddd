//! Property-based invariants of the kNN indexes and the type map.

use proptest::prelude::*;
use typilus_nn::{available_widths, set_simd_width};
use typilus_space::{
    l1, l1_pruned, l1_pruned_reference, l1_reference, ExactIndex, Hit, KnnConfig, PointStore,
    QueryScratch, RpForestConfig, SpaceConfig, SpaceIndex, TypeMap,
};
use typilus_types::PyType;

fn arb_points(n: std::ops::Range<usize>, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1.0f32..1.0, dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_query_is_sorted_and_within_bounds(
        points in arb_points(1..40, 4),
        query in prop::collection::vec(-1.0f32..1.0, 4),
        k in 1usize..10,
    ) {
        let idx = ExactIndex::new(points.clone());
        let hits = idx.query(&query, k);
        prop_assert!(hits.len() <= k.min(points.len()));
        for w in hits.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
        for h in &hits {
            prop_assert!(h.index < points.len());
        }
    }

    /// The chunked early-exit L1 kernel with bounded-heap top-k must
    /// reproduce the naive full-sort selection exactly — distances
    /// bit-for-bit, ties broken by index. Coordinates are drawn from a
    /// tiny discrete grid so equal distances actually occur.
    #[test]
    fn pruned_top_k_equals_naive_reference_including_ties(
        grid in prop::collection::vec(prop::collection::vec(0i8..4, 3), 1..50),
        query_grid in prop::collection::vec(0i8..4, 3),
        k in 1usize..12,
    ) {
        let points: Vec<Vec<f32>> =
            grid.iter().map(|p| p.iter().map(|&v| f32::from(v) * 0.5).collect()).collect();
        let query: Vec<f32> = query_grid.iter().map(|&v| f32::from(v) * 0.5).collect();
        let mut naive: Vec<Hit> = points
            .iter()
            .enumerate()
            .map(|(i, p)| Hit { index: i, distance: l1(&query, p) })
            .collect();
        naive.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.index.cmp(&b.index)));
        naive.truncate(k);
        let pruned = ExactIndex::new(points).query(&query, k);
        prop_assert_eq!(pruned.len(), naive.len());
        for (p, n) in pruned.iter().zip(&naive) {
            prop_assert_eq!(p.index, n.index);
            prop_assert_eq!(p.distance.to_bits(), n.distance.to_bits());
        }
    }

    /// Within the bound, the pruned kernel is bit-identical to plain L1;
    /// past the bound it must still report a value above the bound.
    #[test]
    fn pruned_l1_is_exact_or_provably_rejected(
        a in prop::collection::vec(-1.0f32..1.0, 1..40),
        b_seed in prop::collection::vec(-1.0f32..1.0, 40),
        bound in 0.0f32..30.0,
    ) {
        let b = &b_seed[..a.len()];
        let exact = l1(&a, b);
        let pruned = l1_pruned(&a, b, bound);
        if exact <= bound {
            prop_assert_eq!(pruned.to_bits(), exact.to_bits());
        } else {
            prop_assert!(pruned > bound, "pruned {pruned} must exceed bound {bound}");
        }
    }

    #[test]
    fn typemap_probabilities_form_distribution(
        points in arb_points(1..30, 3),
        query in prop::collection::vec(-1.0f32..1.0, 3),
        k in 1usize..8,
        p in 0.01f32..5.0,
    ) {
        let mut map = TypeMap::new(3);
        let tys = ["int", "str", "bool"];
        for (i, pt) in points.iter().enumerate() {
            map.add(pt.clone(), tys[i % 3].parse::<PyType>().expect("valid"))
                .expect("matching-dim add");
        }
        let preds = map.predict(&query, KnnConfig { k, p });
        prop_assert!(!preds.is_empty());
        let total: f32 = preds.iter().map(|x| x.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-3, "total probability {total}");
        for w in preds.windows(2) {
            prop_assert!(w[0].probability >= w[1].probability);
        }
    }

    #[test]
    fn nearest_marker_type_wins_with_high_p(
        mut points in arb_points(2..20, 2),
        seed_point in prop::collection::vec(-1.0f32..1.0, 2),
    ) {
        // Plant a marker exactly at the query: with p -> infinity it must
        // dominate regardless of the rest of the map.
        let mut map = TypeMap::new(2);
        for pt in points.drain(..) {
            map.add(pt, "str".parse::<PyType>().expect("valid"))
                .expect("matching-dim add");
        }
        map.add(seed_point.clone(), "int".parse::<PyType>().expect("valid"))
            .expect("matching-dim add");
        let top = map
            .predict_top(&seed_point, KnnConfig { k: 5, p: 30.0 })
            .expect("nonempty map");
        prop_assert_eq!(top.ty.to_string(), "int");
    }

    /// At every SIMD width the dispatcher can select on this CPU, the
    /// dispatched L1 kernels are bit-identical to their scalar
    /// references — the TypeSpace analogue of the matmul
    /// `kernel_bitident` contract.
    #[test]
    fn l1_kernels_bit_identical_at_every_simd_width(
        a in prop::collection::vec(-8.0f32..8.0, 0..70),
        b_seed in prop::collection::vec(-8.0f32..8.0, 70),
        bound in 0.0f32..50.0,
    ) {
        let b = &b_seed[..a.len()];
        let want = l1_reference(&a, b);
        let want_pruned = l1_pruned_reference(&a, b, bound);
        for width in available_widths() {
            set_simd_width(width);
            prop_assert_eq!(l1(&a, b).to_bits(), want.to_bits());
            prop_assert_eq!(l1_pruned(&a, b, bound).to_bits(), want_pruned.to_bits());
        }
    }

    /// `query_into` with dirty, reused buffers returns exactly what the
    /// allocating `query` does, for the exact and the sharded index.
    #[test]
    fn query_into_with_reused_buffers_matches_query(
        points in arb_points(2..40, 3),
        queries in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 3), 1..5),
        k in 1usize..6,
        seed in 0u64..20,
    ) {
        let n = points.len();
        let exact = ExactIndex::new(points.clone());
        let store = PointStore::from_rows(points);
        let config = SpaceConfig {
            shards: 1,
            forest: RpForestConfig { trees: 4, leaf_size: 4, search_k: n },
            rebuild_threshold: 8,
        };
        let names: Vec<String> = (0..n).map(|i| format!("t{}", i % 3)).collect();
        let sharded = SpaceIndex::build(&store, &names, &config, seed, None).expect("build");
        let mut scratch = QueryScratch::new();
        // Pre-soiled output: query_into must fully overwrite it.
        let mut out = vec![Hit { index: usize::MAX, distance: f32::NAN }];
        for q in &queries {
            exact.query_into(q, k, &mut scratch, &mut out);
            prop_assert_eq!(&out, &exact.query(q, k));
            sharded.query_into(q, k, &mut scratch, &mut out);
            prop_assert_eq!(&out, &sharded.query(q, k));
        }
    }

    /// A map serving part of its markers from the zero-copy sharded
    /// index and the rest from the incremental overlay predicts exactly
    /// what a plain exact-scan map over the same markers does.
    #[test]
    fn sharded_map_with_overlay_matches_exact_map(
        points in arb_points(4..30, 3),
        extra in arb_points(1..6, 3),
        query in prop::collection::vec(-1.0f32..1.0, 3),
        k in 1usize..6,
    ) {
        let tys = ["int", "str", "bool"];
        let mut sharded = TypeMap::new(3);
        let mut exact = TypeMap::new(3);
        for (i, p) in points.iter().enumerate() {
            let ty = tys[i % 3].parse::<PyType>().expect("valid");
            sharded.add(p.clone(), ty.clone()).expect("matching-dim add");
            exact.add(p.clone(), ty).expect("matching-dim add");
        }
        let config = SpaceConfig {
            shards: 3,
            // search_k far above the point count: the approximate index
            // degenerates to exhaustive search, so results must match
            // the exact scan hit-for-hit.
            forest: RpForestConfig { trees: 4, leaf_size: 4, search_k: 1 << 20 },
            // High threshold: the extra markers stay in the overlay.
            rebuild_threshold: 1_000_000,
        };
        sharded.build_sharded_index(&config, 9, None).expect("build");
        for (i, p) in extra.iter().enumerate() {
            let ty = tys[(i + 1) % 3].parse::<PyType>().expect("valid");
            sharded.add(p.clone(), ty.clone()).expect("matching-dim add");
            exact.add(p.clone(), ty).expect("matching-dim add");
        }
        prop_assert_eq!(sharded.overlay_len(), extra.len());
        let a = sharded.predict(&query, KnnConfig { k, p: 1.3 });
        let b = exact.predict(&query, KnnConfig { k, p: 1.3 });
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.ty.to_string(), y.ty.to_string());
            prop_assert_eq!(x.probability.to_bits(), y.probability.to_bits());
        }
    }
}
