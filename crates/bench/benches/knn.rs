//! TypeSpace query benchmarks: exact brute-force kNN vs the sharded
//! Annoy-style random-projection index (the paper uses Annoy to make
//! τmap queries sub-linear), plus the end-to-end Eq. 5 prediction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use typilus_space::{ExactIndex, KnnConfig, PointStore, SpaceConfig, SpaceIndex, TypeMap};
use typilus_types::PyType;

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn bench_index_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_query_k10");
    let dim = 32;
    for &n in &[1_000usize, 10_000, 50_000] {
        let points = random_points(n, dim, 1);
        let query: Vec<f32> = random_points(1, dim, 2).pop().expect("one point");
        let names: Vec<String> = (0..n).map(|i| format!("t{}", i % 5)).collect();
        let store = PointStore::from_rows(points);
        let sharded = SpaceIndex::build(&store, &names, &SpaceConfig::default(), 3, None)
            .expect("index fits the on-disk id space");
        let exact = ExactIndex::from_store(store);
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| criterion::black_box(exact.query(&query, 10)));
        });
        group.bench_with_input(BenchmarkId::new("sharded", n), &n, |b, _| {
            b.iter(|| criterion::black_box(sharded.query(&query, 10)));
        });
    }
    group.finish();
}

fn bench_typemap_predict(c: &mut Criterion) {
    let dim = 32;
    let types: Vec<PyType> = ["int", "str", "bool", "List[int]", "Dict[str, int]"]
        .iter()
        .map(|s| s.parse().expect("valid type"))
        .collect();
    let points = random_points(20_000, dim, 7);
    let mut map = TypeMap::new(dim);
    for (i, p) in points.into_iter().enumerate() {
        map.add(p, types[i % types.len()].clone())
            .expect("fresh map accepts matching-dim points");
    }
    let query: Vec<f32> = random_points(1, dim, 8).pop().expect("one point");

    let mut group = c.benchmark_group("typemap_predict_eq5");
    group.bench_function("exact_20k", |b| {
        b.iter(|| criterion::black_box(map.predict(&query, KnnConfig::default())));
    });
    map.build_sharded_index(&SpaceConfig::default(), 9, None)
        .expect("index fits the on-disk id space");
    group.bench_function("sharded_20k", |b| {
        b.iter(|| criterion::black_box(map.predict(&query, KnnConfig::default())));
    });
    group.finish();
}

criterion_group!(benches, bench_index_query, bench_typemap_predict);
criterion_main!(benches);
