//! The receptive-field forward against its all-nodes oracle.
//!
//! [`GnnEncoder::encode`](crate::gnn::GnnEncoder::encode) updates only
//! the nodes the targets depend on; the test-only all-nodes forward it
//! replaced updates every node at every step. On random small graphs —
//! edges in all 16 relation slots, isolated nodes, targets without
//! in-edges, files without edges, duplicate edges and duplicate targets —
//! and on real program graphs, for `T ∈ 0..=4` (and `T = 8` on the real
//! graphs) and every `NodeInit` × `Aggregation`, both must give bit-identical target embeddings and
//! bit-identical `train_step` / `train_step_parallel` losses and
//! gradients, under both kernel modes.
//!
//! The oracle is `#[cfg(test)]`, so these tests live in the crate's
//! unit-test binary rather than a test binary of their own. The kernel
//! mode is process-global: the two tests here take [`MODE_LOCK`] while
//! they switch it, and since both modes are bit-identical
//! (`tests/kernel_modes.rs`), the switches cannot change the outcome of
//! any other test in this binary.

use crate::gnn::Aggregation;
use crate::input::{relations, NodeInit, PreparedFile, PreparedTarget, CHAR_VOCAB, NUM_RELATIONS};
use crate::model::{
    tests_support::graphs_for_tests, EncoderKind, LossKind, ModelConfig, TypeModel,
};
use crate::schedule::Schedule;
use proptest::prelude::*;
use std::sync::Mutex;
use typilus_graph::{build_graph, GraphConfig, ProgramGraph};
use typilus_nn::{kernel_mode, set_kernel_mode, Gradients, KernelMode, WorkerPool};
use typilus_pyast::{parse, SymbolId, SymbolKind, SymbolTable};
use typilus_types::PyType;

/// Serialises the kernel-mode switches of the tests in this module.
static MODE_LOCK: Mutex<()> = Mutex::new(());

const INITS: [NodeInit; 3] = [NodeInit::Subtoken, NodeInit::Token, NodeInit::Char];
const AGGREGATIONS: [Aggregation; 2] = [Aggregation::Max, Aggregation::Sum];
const LOSSES: [LossKind; 3] = [LossKind::Class, LossKind::Space, LossKind::Typilus];
const TYPES: [&str; 4] = ["int", "str", "List[int]", "Dict[str, int]"];

/// One random file: node count, `(slot, src, dst)` edges, targets as
/// `(node, type index or unannotated)`, and a seed for the node ids.
#[derive(Debug, Clone)]
struct RandomFile {
    nodes: usize,
    edges: Vec<(usize, u32, u32)>,
    targets: Vec<(u32, Option<usize>)>,
    id_seed: u64,
}

fn arb_file() -> impl Strategy<Value = RandomFile> {
    (
        1usize..14,
        prop::collection::vec((0..NUM_RELATIONS, any::<u32>(), any::<u32>()), 0..40),
        0usize..4,
        prop::collection::vec((any::<u32>(), prop::option::of(0..TYPES.len())), 1..6),
        any::<u64>(),
    )
        .prop_map(|(nodes, mut edges, shape, targets, id_seed)| {
            let n = nodes as u32;
            for e in &mut edges {
                e.1 %= n;
                e.2 %= n;
            }
            match shape {
                // A file without edges.
                0 => edges.clear(),
                // Duplicate every edge, right behind itself.
                1 => edges = edges.iter().flat_map(|&e| [e, e]).collect(),
                _ => {}
            }
            let targets = targets
                .into_iter()
                .map(|(node, ty)| (node % n, ty))
                .collect();
            RandomFile {
                nodes,
                edges,
                targets,
                id_seed,
            }
        })
}

/// A case: a batch of random files, `T`, and the loss head.
#[derive(Debug, Clone)]
struct Case {
    files: Vec<RandomFile>,
    steps: usize,
    loss: LossKind,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(arb_file(), 1..4),
        0usize..=4,
        0..LOSSES.len(),
    )
        .prop_map(|(files, steps, loss)| Case {
            files,
            steps,
            loss: LOSSES[loss],
        })
}

/// The pruned prepared file for `spec` (node ids of every kind, so any
/// `NodeInit` can read it) and its all-nodes oracle twin.
fn prepared_pair(
    spec: &RandomFile,
    steps: usize,
    model: &TypeModel,
) -> (PreparedFile, PreparedFile) {
    let mut relations = vec![Vec::new(); NUM_RELATIONS];
    for &(k, s, d) in &spec.edges {
        relations[k].push((s, d));
    }
    let mut state = spec.id_seed | 1;
    let mut next = |bound: usize| {
        // xorshift64: deterministic ids in `0..bound`.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let (sub, tok) = (model.subtoken_vocab().len(), model.token_vocab().len());
    let node_subtokens = (0..spec.nodes)
        .map(|_| (0..1 + next(3)).map(|_| next(sub)).collect())
        .collect();
    let node_token_id = (0..spec.nodes).map(|_| next(tok)).collect();
    let node_chars = (0..spec.nodes)
        .map(|_| (0..1 + next(4)).map(|_| next(CHAR_VOCAB)).collect())
        .collect();
    let targets: Vec<PreparedTarget> = spec
        .targets
        .iter()
        .enumerate()
        .map(|(i, &(node, ty))| PreparedTarget {
            node,
            symbol: SymbolId(i as u32),
            name: format!("v{i}"),
            kind: SymbolKind::Variable,
            ty: ty.map(|t| TYPES[t].parse::<PyType>().expect("fixture type parses")),
        })
        .collect();
    let target_nodes: Vec<u32> = targets.iter().map(|t| t.node).collect();
    let pruned = PreparedFile {
        num_nodes: spec.nodes,
        node_subtokens,
        node_token_id,
        node_chars,
        schedule: Schedule::build(spec.nodes, &relations, &target_nodes, steps),
        targets,
        ..PreparedFile::default()
    };
    let mut oracle = pruned.clone();
    oracle.all_nodes_oracle = Some(relations);
    (pruned, oracle)
}

fn graph_model(steps: usize, init: NodeInit, agg: Aggregation, loss: LossKind) -> TypeModel {
    let config = ModelConfig {
        encoder: EncoderKind::Graph,
        loss,
        dim: 6,
        gnn_steps: steps,
        node_init: init,
        aggregation: agg,
        min_subtoken_count: 1,
        ..ModelConfig::default()
    };
    TypeModel::new(config, &graphs_for_tests())
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_step(
    a: Option<(f32, Gradients)>,
    b: Option<(f32, Gradients)>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (None, None) => Ok(()),
        (Some((la, ga)), Some((lb, gb))) => {
            prop_assert_eq!(la.to_bits(), lb.to_bits());
            let ga: Vec<_> = ga.iter().collect();
            let gb: Vec<_> = gb.iter().collect();
            prop_assert_eq!(ga.len(), gb.len());
            for ((ia, ta), (ib, tb)) in ga.into_iter().zip(gb) {
                prop_assert_eq!(ia, ib);
                prop_assert!(
                    ta.shape() == tb.shape() && same_bits(ta.as_slice(), tb.as_slice()),
                    "gradient of {:?} differs",
                    ia
                );
            }
            Ok(())
        }
        _ => Err(TestCaseError::fail("one side produced no step")),
    }
}

/// Embeddings and both training steps of `pruned` vs `oracle` files.
fn check_model(
    model: &TypeModel,
    pruned: &[PreparedFile],
    oracle: &[PreparedFile],
    pool: &WorkerPool,
) -> Result<(), TestCaseError> {
    for (p, o) in pruned.iter().zip(oracle) {
        let (ep, eo) = (model.embed_inference(p), model.embed_inference(o));
        prop_assert_eq!(ep.is_some(), eo.is_some());
        if let (Some(ep), Some(eo)) = (ep, eo) {
            prop_assert!(
                ep.shape() == eo.shape() && same_bits(ep.as_slice(), eo.as_slice()),
                "target embeddings differ"
            );
        }
    }
    let bp: Vec<&PreparedFile> = pruned.iter().collect();
    let bo: Vec<&PreparedFile> = oracle.iter().collect();
    same_step(model.train_step(&bp), model.train_step(&bo))?;
    same_step(
        model.train_step_parallel(&bp, pool),
        model.train_step_parallel(&bo, pool),
    )
}

fn check_case(case: &Case, pool: &WorkerPool) -> Result<(), TestCaseError> {
    for init in INITS {
        for agg in AGGREGATIONS {
            let model = graph_model(case.steps, init, agg, case.loss);
            let (pruned, oracle): (Vec<_>, Vec<_>) = case
                .files
                .iter()
                .map(|f| prepared_pair(f, case.steps, &model))
                .unzip();
            check_model(&model, &pruned, &oracle, pool)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pruned_forward_is_bit_identical_to_all_nodes_oracle(case in arb_case()) {
        let pool = WorkerPool::new(2);
        let _modes = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = kernel_mode();
        for mode in [KernelMode::Fast, KernelMode::Naive] {
            set_kernel_mode(mode);
            let result = check_case(&case, &pool);
            set_kernel_mode(before);
            result.map_err(|e| TestCaseError::fail(format!("{mode:?}: {e}")))?;
        }
    }
}

/// Real program graphs through [`TypeModel::prepare`], including the
/// paper's `T = 8`.
#[test]
fn prepared_program_graphs_match_all_nodes_oracle() {
    const SOURCES: &[&str] = &[
        "def f(count: int) -> int:\n    return count + 1\n",
        "class Box:\n    def __init__(self, items: List[int]):\n        self.items = items\n\n    def total(self) -> int:\n        acc = 0\n        for x in self.items:\n            acc = acc + x\n        return acc\n",
        "import os\n\ndef read(path: str, limit):\n    name = os.path.basename(path)\n    if limit > 0:\n        name = name[:limit]\n    return name\n\nresult = read('a/b', 3)\n",
    ];
    let graphs: Vec<ProgramGraph> = SOURCES
        .iter()
        .map(|src| {
            let parsed = parse(src).unwrap();
            let table = SymbolTable::build(&parsed.module);
            build_graph(&parsed, &table, &GraphConfig::default(), "real.py")
        })
        .collect();
    let pool = WorkerPool::new(2);
    let _modes = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = kernel_mode();
    for mode in [KernelMode::Fast, KernelMode::Naive] {
        set_kernel_mode(mode);
        for steps in [0, 1, 2, 4, 8] {
            for init in INITS {
                for agg in AGGREGATIONS {
                    let model = graph_model(steps, init, agg, LossKind::Typilus);
                    let pruned: Vec<PreparedFile> =
                        graphs.iter().map(|g| model.prepare(g)).collect();
                    let oracle: Vec<PreparedFile> = graphs
                        .iter()
                        .zip(&pruned)
                        .map(|(g, p)| {
                            let mut o = p.clone();
                            o.all_nodes_oracle = Some(relations(g));
                            o
                        })
                        .collect();
                    if let Err(e) = check_model(&model, &pruned, &oracle, &pool) {
                        set_kernel_mode(before);
                        panic!("{mode:?} T={steps} {init:?} {agg:?}: {e}");
                    }
                }
            }
        }
    }
    set_kernel_mode(before);
}
