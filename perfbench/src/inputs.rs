//! Seeded inputs and the fixed parameters of every workload.
//!
//! Everything a workload feeds the program is derived here from the
//! benchmark's `--seed`: the held-out request pools, the open-loop
//! arrival schedule, the request mix, the `add-marker` bindings, the
//! marker jitter and the `train` workload's training seed. The program
//! only ever sees the results. The training corpora are fixed.

use typilus::{EncoderKind, GraphConfig, LossKind, ModelConfig, Parallelism, TypilusConfig};
use typilus_corpus::{generate, CorpusConfig};
use typilus_space::{RpForestConfig, SpaceConfig};

/// Worker threads of the daemon's and the training run's pool, and
/// connections of the load generator (the 2-CPU host's `nproc`).
pub const THREADS: usize = 2;
/// Client connections, each driven by its own generator thread.
pub const CONNECTIONS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Seed of the corpus the served / annotating model is trained on. The
/// model is fixed, like a deployed one; the benchmark seed varies the
/// requests it serves.
pub const SERVING_CORPUS_SEED: u64 = 0;
/// Training corpus of the served / annotating model (~10^3 markers).
pub const SERVING_FILES: usize = 90;
/// Model width of the served / annotating model.
pub const SERVING_DIM: usize = 16;
/// GNN message-passing steps of the served / annotating model.
pub const SERVING_GNN_STEPS: usize = 4;
/// Training epochs of the served / annotating model.
pub const SERVING_EPOCHS: usize = 4;

/// Held-out single files a served request picks from.
pub const REQUEST_POOL: usize = 96;
/// Functions per served request file: one size, so that what a request
/// costs depends on the system more than on which file the seed drew.
pub const REQUEST_FUNCTIONS: (usize, usize) = (3, 3);
/// Open-loop arrival rate of `serve-edit`, requests/s.
pub const EDIT_RATE: f64 = 5.0;
/// Open-loop arrival rate of `serve-adapt`, requests/s.
pub const ADAPT_RATE: f64 = 10.0;
/// Share of `--seconds` spent in the open-loop phase; the closed loop
/// takes the rest.
pub const OPEN_SHARE: f64 = 0.75;
/// Mean of the seeded exponential pause a closed-loop client takes
/// after each reply, in seconds. Without it the two clients can lock
/// into step, every request pair batched together, and throughput
/// jumps between that state and alternation from run to run.
pub const THINK_MEAN_S: f64 = 0.005;
/// Requests the warm-up sends before timing starts.
pub const WARMUP_REQUESTS: usize = 4;
/// Probe sources re-queried after `serve-adapt`'s run.
pub const PROBES: usize = 16;

/// Marker count of `serve-adapt`'s map after replication.
pub const ADAPT_MARKERS: usize = 100_000;
/// Jitter of a replicated marker, as a share of the mean absolute
/// coordinate of the trained markers.
pub const ADAPT_JITTER: f32 = 0.05;
/// Share of `serve-adapt` requests that are `add-marker` writes.
pub const ADAPT_WRITE_SHARE: f64 = 0.1;

/// Held-out files `annotate` cycles through.
pub const ANNOTATE_FILES: usize = 96;
/// Functions per `annotate` file: larger than a served request.
pub const ANNOTATE_FUNCTIONS: (usize, usize) = (8, 10);

/// Seed of the `train` workload's corpus and split. The benchmark seed
/// varies the training run's own seed: initialisation and batch order.
pub const TRAIN_CORPUS_SEED: u64 = 0;
/// Training corpus of the `train` workload.
pub const TRAIN_FILES: usize = 150;
/// Model width of the `train` workload.
pub const TRAIN_DIM: usize = 32;
/// GNN message-passing steps of the `train` workload.
pub const TRAIN_GNN_STEPS: usize = 8;
/// Epochs of one `train` call; calls repeat until `--seconds` pass.
pub const TRAIN_EPOCHS: usize = 4;

/// The sharded index `serve-adapt` builds over its 10^5 markers (the
/// `BENCH_space` configuration at that scale).
pub fn adapt_space() -> SpaceConfig {
    SpaceConfig {
        shards: 8,
        forest: RpForestConfig {
            trees: 16,
            leaf_size: 32,
            search_k: 4096,
        },
        rebuild_threshold: 1024,
    }
}

/// Finalizer of splitmix64: derives independent streams from one seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of stream `stream` under the benchmark seed.
pub fn stream(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// A uniform draw in `[0, 1)` from stream `s`, item `i`.
pub fn unit(s: u64, i: u64) -> f64 {
    (mix(s ^ mix(i)) >> 11) as f64 / (1u64 << 53) as f64
}

const TRAIN_STREAM: u64 = 1;
const POOL_STREAM: u64 = 2;
const ARRIVAL_STREAM: u64 = 3;
const OPEN_MIX_STREAM: u64 = 4;
const CLOSED_MIX_STREAM: u64 = 5;
const JITTER_STREAM: u64 = 6;
const ANNOTATE_STREAM: u64 = 7;
const THINK_STREAM: u64 = 8;

fn model_config(dim: usize, gnn_steps: usize, epochs: usize, seed: u64) -> TypilusConfig {
    TypilusConfig {
        model: ModelConfig {
            encoder: EncoderKind::Graph,
            loss: LossKind::Typilus,
            dim,
            gnn_steps,
            min_subtoken_count: 2,
            seed,
            ..ModelConfig::default()
        },
        graph: GraphConfig::default(),
        epochs,
        batch_size: 8,
        lr: 0.015,
        seed,
        parallelism: Parallelism::fixed(THREADS),
        ..TypilusConfig::default()
    }
}

fn sources(files: usize, functions: (usize, usize), seed: u64) -> Vec<String> {
    generate(&CorpusConfig {
        files,
        functions_per_file: functions,
        duplicate_rate: 0.0,
        seed,
        ..CorpusConfig::default()
    })
    .files
    .into_iter()
    .map(|f| f.source)
    .collect()
}

/// A training corpus, as `(name, source)` pairs.
pub type Named = Vec<(String, String)>;

fn corpus(files: usize, seed: u64) -> Named {
    generate(&CorpusConfig {
        files,
        seed,
        ..CorpusConfig::default()
    })
    .files
    .into_iter()
    .map(|f| (f.name, f.source))
    .collect()
}

/// Training corpus and config of the served / annotating model; the
/// corpus seed also seeds its split.
pub fn serving_training() -> (Named, TypilusConfig) {
    (
        corpus(SERVING_FILES, SERVING_CORPUS_SEED),
        model_config(
            SERVING_DIM,
            SERVING_GNN_STEPS,
            SERVING_EPOCHS,
            SERVING_CORPUS_SEED,
        ),
    )
}

/// Training corpus and config of the `train` workload; the corpus and
/// its split are fixed, the training run's seed comes from `seed`.
pub fn train_training(seed: u64) -> (Named, TypilusConfig) {
    (
        corpus(TRAIN_FILES, TRAIN_CORPUS_SEED),
        model_config(
            TRAIN_DIM,
            TRAIN_GNN_STEPS,
            TRAIN_EPOCHS,
            stream(seed, TRAIN_STREAM),
        ),
    )
}

/// The held-out single files served requests pick from.
pub fn request_pool(seed: u64) -> Vec<String> {
    sources(REQUEST_POOL, REQUEST_FUNCTIONS, stream(seed, POOL_STREAM))
}

/// The held-out larger files `annotate` cycles through.
pub fn annotate_pool(seed: u64) -> Vec<String> {
    sources(
        ANNOTATE_FILES,
        ANNOTATE_FUNCTIONS,
        stream(seed, ANNOTATE_STREAM),
    )
}

/// Open-loop due times in seconds from the phase start: seeded
/// exponential inter-arrivals at `rate`, every arrival before
/// `horizon`.
pub fn arrivals(seed: u64, rate: f64, horizon: f64) -> Vec<f64> {
    let s = stream(seed, ARRIVAL_STREAM);
    let mut out = Vec::new();
    let mut t = 0.0;
    for i in 0.. {
        t += -(1.0 - unit(s, i)).ln() / rate;
        if t >= horizon {
            break;
        }
        out.push(t);
    }
    out
}

/// The pause after closed-loop request `i`, in seconds.
pub fn think(seed: u64, i: u64) -> f64 {
    -(1.0 - unit(stream(seed, THINK_STREAM), i)).ln() * THINK_MEAN_S
}

/// One request of a serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Predict the request-pool file at this index.
    Predict(usize),
    /// Bind the fresh type of binding number `k` (see [`binding`]).
    AddMarker(u64),
}

/// Which loop a request belongs to; each draws its own mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Open,
    Closed,
}

/// The `i`-th request of `phase`: a predict on a seeded pool file, or
/// with probability `write_share` an `add-marker` with a binding
/// unique to this request.
pub fn op(seed: u64, phase: Phase, i: u64, write_share: f64) -> Op {
    let s = stream(
        seed,
        match phase {
            Phase::Open => OPEN_MIX_STREAM,
            Phase::Closed => CLOSED_MIX_STREAM,
        },
    );
    if unit(s, 2 * i) < write_share {
        let k = match phase {
            Phase::Open => i,
            Phase::Closed => (1 << 32) + i,
        };
        Op::AddMarker(k)
    } else {
        Op::Predict((unit(s, 2 * i + 1) * REQUEST_POOL as f64) as usize % REQUEST_POOL)
    }
}

const STEMS: [&str; 12] = [
    "widget", "ledger", "sprocket", "gadget", "beacon", "conduit", "lattice", "quiver", "ratchet",
    "spindle", "tether", "vortex",
];

/// The `add-marker` binding number `k`: a snippet using a parameter,
/// that parameter's name, and a fresh user-defined type to bind it to.
pub fn binding(k: u64) -> (String, String, String) {
    let stem = STEMS[(mix(k) % STEMS.len() as u64) as usize];
    let symbol = format!("{stem}_{k}");
    let mut class = stem.to_string();
    class[..1].make_ascii_uppercase();
    let ty = format!("{class}Kind{k}");
    let source = format!(
        "def handle_{symbol}({symbol}):\n    {symbol}.refresh()\n    return {symbol}.size\n"
    );
    (source, symbol, ty)
}

/// Deterministic jitter in `[-1, 1)` for coordinate `d` of replica
/// `r` of marker `m`.
pub fn jitter(seed: u64, m: usize, r: usize, d: usize) -> f32 {
    let s = stream(seed, JITTER_STREAM);
    let i = ((m as u64) << 40) ^ ((r as u64) << 16) ^ d as u64;
    (2.0 * unit(s, i) - 1.0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(arrivals(9, EDIT_RATE, 15.0), arrivals(9, EDIT_RATE, 15.0));
        assert_ne!(arrivals(9, EDIT_RATE, 15.0), arrivals(10, EDIT_RATE, 15.0));
        assert_eq!(request_pool(9), request_pool(9));
        assert_ne!(request_pool(9), request_pool(10));
        assert_eq!(annotate_pool(3), annotate_pool(3));
        assert_eq!(train_training(4).0, train_training(5).0);
        assert_eq!(train_training(4).1.seed, train_training(4).1.seed);
        assert_ne!(train_training(4).1.seed, train_training(5).1.seed);
        let mix_of = |seed| {
            (0..200)
                .map(|i| op(seed, Phase::Open, i, ADAPT_WRITE_SHARE))
                .collect::<Vec<_>>()
        };
        assert_eq!(mix_of(5), mix_of(5));
        assert_ne!(mix_of(5), mix_of(6));
        assert_eq!(jitter(1, 2, 3, 4), jitter(1, 2, 3, 4));
        assert_eq!(think(1, 2), think(1, 2));
        assert_ne!(think(1, 2), think(2, 2));
    }

    #[test]
    fn arrivals_follow_the_rate() {
        let a = arrivals(1, EDIT_RATE, 1000.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let n = a.len() as f64;
        let want = EDIT_RATE * 1000.0;
        assert!(
            (n - want).abs() < 4.0 * want.sqrt(),
            "{n} arrivals in 1000 s"
        );
    }

    #[test]
    fn write_share_and_bindings() {
        let writes = (0..10_000)
            .filter(|&i| matches!(op(2, Phase::Closed, i, ADAPT_WRITE_SHARE), Op::AddMarker(_)))
            .count();
        assert!((900..1100).contains(&writes), "{writes} writes");
        assert!((0..1000).all(|i| op(2, Phase::Open, i, 0.0) != Op::AddMarker(i)));
        let (src, sym, ty) = binding(7);
        assert!(src.contains(&sym) && ty.ends_with("Kind7"));
        assert_ne!(binding(7).2, binding((1 << 32) + 7).2);
    }
}
