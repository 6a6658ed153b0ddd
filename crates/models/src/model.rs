//! The end-to-end trainable model: an encoder (graph / sequence / path)
//! plus a loss head (classification / space / Typilus), as in the 3×3
//! grid of paper Table 2.

use crate::gnn::{Aggregation, GnnEncoder};
use crate::input::{count_labels, prepare, NodeInit, PrepareConfig, PreparedFile, Views};
use crate::loss::{classification_loss, space_loss, typilus_loss};
use crate::path::PathEncoder;
use crate::seq::SeqEncoder;
use crate::transformer::TransformerEncoder;
use crate::vocab::{TypeVocab, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use typilus_graph::ProgramGraph;
use typilus_nn::{Gradients, Linear, ParamSet, Tape, Tensor, Var, WorkerPool};
use typilus_types::PyType;

/// Which encoder family to use (paper Table 2 row groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EncoderKind {
    /// GGNN over program graphs (`Graph*`).
    Graph,
    /// biGRU over token sequences (`Seq*` / DeepTyper).
    Seq,
    /// code2seq-style path model (`Path*`).
    Path,
    /// Small transformer over the token sequence (the paper's Sec. 6.1
    /// "Transformers" comparison point; not part of Table 2).
    Transformer,
}

/// Which training objective to use (paper Table 2 column groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LossKind {
    /// Closed-vocabulary classification, Eq. 1 (`*2Class`).
    Class,
    /// Deep similarity learning, Eq. 3 (`*2Space`).
    Space,
    /// The combined loss, Eq. 4 (`*Typilus`).
    Typilus,
}

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Encoder family.
    pub encoder: EncoderKind,
    /// Training objective.
    pub loss: LossKind,
    /// Embedding / hidden width `D`.
    pub dim: usize,
    /// GNN message-passing steps `T` (paper: 8).
    pub gnn_steps: usize,
    /// Similarity-loss margin `m`.
    pub margin: f32,
    /// Classification weight `λ` in Eq. 4 (paper: 1).
    pub lambda: f32,
    /// Initial node state construction (Table 4 ablation).
    pub node_init: NodeInit,
    /// Message aggregation (paper: max).
    pub aggregation: Aggregation,
    /// Minimum occurrences for a subtoken to enter the vocabulary.
    pub min_subtoken_count: usize,
    /// Maximum vocabulary size.
    pub max_vocab: usize,
    /// Minimum annotation count for a type to get a classification slot.
    pub min_type_count: usize,
    /// RNG seed for parameter initialisation.
    pub seed: u64,
    /// Input preparation limits.
    pub prepare: PrepareConfig,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            encoder: EncoderKind::Graph,
            loss: LossKind::Typilus,
            dim: 32,
            gnn_steps: 8,
            margin: 2.0,
            lambda: 1.0,
            node_init: NodeInit::Subtoken,
            aggregation: Aggregation::Max,
            min_subtoken_count: 2,
            max_vocab: 10_000,
            min_type_count: 1,
            seed: 0,
            prepare: PrepareConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum EncoderImpl {
    Graph(Box<GnnEncoder>),
    Seq(Box<SeqEncoder>),
    Path(Box<PathEncoder>),
    Transformer(Box<TransformerEncoder>),
}

/// Per-file state carried from the parallel forward phase of a training
/// step to its parallel backward phase (which consumes it on the worker
/// that built it).
struct FileForward<'p> {
    tape: Tape<'p>,
    selected: Var,
    types: Vec<PyType>,
}

/// A trainable type-prediction model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TypeModel {
    /// Hyperparameters the model was built with.
    pub config: ModelConfig,
    /// All trainable weights.
    pub params: ParamSet,
    encoder: EncoderImpl,
    /// Prototype head over the full type vocabulary (`*2Class`).
    class_head: Option<Linear>,
    /// Projection `W` + prototype head over erased types (Typilus, Eq. 4).
    typilus_head: Option<(Linear, Linear)>,
    subtoken_vocab: Vocab,
    token_vocab: Vocab,
    /// Closed vocabulary over full types (classification models).
    pub type_vocab: TypeVocab,
    /// Vocabulary over parameter-erased types (Typilus loss).
    pub erased_vocab: TypeVocab,
}

impl TypeModel {
    /// Builds a model, deriving vocabularies from the training graphs.
    pub fn new(config: ModelConfig, training_graphs: &[ProgramGraph]) -> TypeModel {
        let (sub_counts, tok_counts) = count_labels(training_graphs);
        let subtoken_vocab = Vocab::build(&sub_counts, config.min_subtoken_count, config.max_vocab);
        let token_vocab = Vocab::build(&tok_counts, config.min_subtoken_count, config.max_vocab);

        let annotations: Vec<PyType> = training_graphs
            .iter()
            .flat_map(|g| g.targets.iter())
            .filter_map(|t| crate::input::parse_ground_truth(t.annotation.as_deref()))
            .collect();
        let type_vocab = TypeVocab::build(annotations.iter(), config.min_type_count);
        let erased: Vec<PyType> = annotations.iter().map(PyType::erased).collect();
        let erased_vocab = TypeVocab::build(erased.iter(), config.min_type_count);

        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = match config.encoder {
            EncoderKind::Graph => EncoderImpl::Graph(Box::new(GnnEncoder::new(
                &mut params,
                subtoken_vocab.len(),
                token_vocab.len(),
                config.dim,
                config.gnn_steps,
                config.node_init,
                config.aggregation,
                &mut rng,
            ))),
            EncoderKind::Seq => EncoderImpl::Seq(Box::new(SeqEncoder::new(
                &mut params,
                subtoken_vocab.len(),
                config.dim,
                &mut rng,
            ))),
            EncoderKind::Path => EncoderImpl::Path(Box::new(PathEncoder::new(
                &mut params,
                subtoken_vocab.len() + token_vocab.len(),
                config.dim,
                &mut rng,
            ))),
            EncoderKind::Transformer => {
                EncoderImpl::Transformer(Box::new(TransformerEncoder::new(
                    &mut params,
                    subtoken_vocab.len(),
                    config.dim,
                    2,
                    config.prepare.max_seq_len,
                    &mut rng,
                )))
            }
        };
        let class_head = match config.loss {
            LossKind::Class => Some(Linear::new(
                &mut params,
                "head.class",
                config.dim,
                type_vocab.len(),
                &mut rng,
            )),
            _ => None,
        };
        let typilus_head = match config.loss {
            LossKind::Typilus => {
                let proj =
                    Linear::new_no_bias(&mut params, "head.proj", config.dim, config.dim, &mut rng);
                let protos = Linear::new(
                    &mut params,
                    "head.erased",
                    config.dim,
                    erased_vocab.len(),
                    &mut rng,
                );
                Some((proj, protos))
            }
            _ => None,
        };
        TypeModel {
            config,
            params,
            encoder,
            class_head,
            typilus_head,
            subtoken_vocab,
            token_vocab,
            type_vocab,
            erased_vocab,
        }
    }

    /// Prepares a graph with this model's vocabularies, building only the
    /// views its encoder reads.
    pub fn prepare(&self, graph: &ProgramGraph) -> PreparedFile {
        let views = match &self.encoder {
            EncoderImpl::Graph(e) => Views::Graph {
                node_init: e.node_init,
                steps: e.steps,
            },
            EncoderImpl::Seq(_) | EncoderImpl::Transformer(_) => Views::Tokens,
            EncoderImpl::Path(_) => Views::Paths,
        };
        prepare(
            graph,
            &self.subtoken_vocab,
            &self.token_vocab,
            &self.config.prepare,
            views,
        )
    }

    /// [`TypeModel::prepare`] over many graphs on the worker pool;
    /// results keep input order.
    pub fn prepare_batch(&self, graphs: &[ProgramGraph], pool: &WorkerPool) -> Vec<PreparedFile> {
        pool.map_ordered(graphs, |_, g| self.prepare(g))
    }

    /// Encodes one prepared file to target embeddings `[targets, D]`.
    /// Returns `None` when the file has no targets (or no tokens, for the
    /// sequence model).
    pub fn embed(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Option<Var> {
        if file.targets.is_empty() {
            return None;
        }
        Some(match &self.encoder {
            EncoderImpl::Graph(e) => e.encode(tape, file),
            EncoderImpl::Seq(e) => {
                if file.token_seq.is_empty() {
                    return None;
                }
                e.encode(tape, file)
            }
            EncoderImpl::Path(e) => e.encode(tape, file),
            EncoderImpl::Transformer(e) => {
                if file.token_seq.is_empty() {
                    return None;
                }
                e.encode(tape, file)
            }
        })
    }

    /// Computes the training loss for a batch of embeddings whose rows
    /// align with `types` (the ground-truth types of the batch).
    ///
    /// # Panics
    ///
    /// Panics if `types.len()` differs from the embedding rows.
    pub fn loss(&self, tape: &mut Tape<'_>, embeddings: Var, types: &[PyType]) -> Var {
        assert_eq!(
            tape.value(embeddings).rows(),
            types.len(),
            "one type per row"
        );
        match self.config.loss {
            LossKind::Class => {
                let labels: Vec<usize> = types.iter().map(|t| self.type_vocab.id(t)).collect();
                let head = self.class_head.as_ref().expect("class head exists");
                let logits = head.apply(tape, embeddings);
                classification_loss(tape, logits, &labels)
            }
            LossKind::Space => {
                let ids = type_identity_ids(types);
                space_loss(tape, embeddings, &ids, self.config.margin)
            }
            LossKind::Typilus => {
                let ids = type_identity_ids(types);
                let labels: Vec<usize> = types
                    .iter()
                    .map(|t| self.erased_vocab.id(&t.erased()))
                    .collect();
                let (proj, protos) = self.typilus_head.as_ref().expect("typilus head exists");
                let projected = proj.apply(tape, embeddings);
                let logits = protos.apply(tape, projected);
                typilus_loss(
                    tape,
                    embeddings,
                    &ids,
                    self.config.margin,
                    logits,
                    &labels,
                    self.config.lambda,
                )
            }
        }
    }

    /// One training step over a batch of prepared files: encodes every
    /// file, concatenates annotated targets, computes the loss and
    /// returns `(loss value, gradients)`. Returns `None` if the batch has
    /// no annotated targets.
    pub fn train_step(&self, batch: &[&PreparedFile]) -> Option<(f32, Gradients)> {
        let mut tape = Tape::new(&self.params);
        let mut parts: Vec<Var> = Vec::new();
        let mut types: Vec<PyType> = Vec::new();
        for file in batch {
            let Some(emb) = self.embed(&mut tape, file) else {
                continue;
            };
            // Select only annotated targets.
            let mut keep = Vec::new();
            for (i, t) in file.targets.iter().enumerate() {
                if let Some(ty) = &t.ty {
                    keep.push(i);
                    types.push(ty.clone());
                }
            }
            if keep.is_empty() {
                continue;
            }
            let selected = tape.gather(emb, &keep);
            parts.push(selected);
        }
        if types.is_empty() {
            return None;
        }
        let embeddings = tape.concat_rows(&parts);
        let loss = self.loss(&mut tape, embeddings, &types);
        let value = tape.value(loss).item();
        let grads = tape.backward(loss);
        Some((value, grads))
    }

    /// Data-parallel [`TypeModel::train_step`]: per-file forward and
    /// backward passes fan across the worker pool while the batch-level
    /// loss (whose pairwise term couples files) stays on one sequential
    /// tape.
    ///
    /// Three phases:
    ///
    /// 1. **Forward (parallel)** — each file is encoded on its own tape,
    ///    keeping only annotated targets.
    /// 2. **Loss (sequential)** — the per-file embedding values enter a
    ///    fresh tape as inputs, are concatenated, and the batch loss is
    ///    computed exactly as in `train_step`;
    ///    [`Tape::backward_with_inputs`] yields the loss-head gradients
    ///    plus d loss / d embedding per file.
    /// 3. **Backward (parallel)** — each file's forward tape is re-walked
    ///    from its embedding via [`Tape::backward_from`]. The job list is
    ///    index-aligned with the batch, so the pool's striding sends each
    ///    file back to the worker that ran its forward pass, and the tape
    ///    is consumed there — its buffers retire into the arena of the
    ///    thread that allocated them, keeping worker arenas warm across
    ///    steps.
    ///
    /// Per-file gradients merge in file-index order, so the result is
    /// bit-identical for every pool size (the loss *value* equals
    /// `train_step`'s; gradients may differ from `train_step` only in
    /// float-accumulation order).
    pub fn train_step_parallel(
        &self,
        batch: &[&PreparedFile],
        pool: &WorkerPool,
    ) -> Option<(f32, Gradients)> {
        // Phase 1: independent per-file forward passes. The result stays
        // index-aligned with `batch` (files without annotated targets
        // keep a `None` slot) so phase 3 hits the same worker stripes.
        let forwards: Vec<Option<FileForward<'_>>> =
            pool.map_ordered(batch, |_, file| self.file_forward(file));
        if forwards.iter().all(Option::is_none) {
            return None;
        }

        // Phase 2: one sequential tape for the batch-coupled loss. Its
        // inputs copy each file's embeddings into caller-pool buffers.
        let mut loss_tape = Tape::new(&self.params);
        let mut parts = Vec::new();
        let mut types = Vec::new();
        for fw in forwards.iter().flatten() {
            let embedding = typilus_nn::pooled_copy(fw.tape.value(fw.selected));
            parts.push(loss_tape.input(embedding));
            types.extend(fw.types.iter().cloned());
        }
        let embeddings = loss_tape.concat_rows(&parts);
        let loss = self.loss(&mut loss_tape, embeddings, &types);
        let value = loss_tape.value(loss).item();
        let (mut grads, seeds) = loss_tape.backward_with_inputs(loss, &parts);

        // Phase 3: per-file backward passes, seeded with d loss / d emb.
        // Jobs own their forward state; the closure consumes it, so each
        // tape is dropped on the worker whose arena backs it. A worker
        // seeds its backward with a copy from its own pool, and the
        // caller recycles the seeds it allocated: the only buffers that
        // change threads are the per-file gradients, which are retired
        // through the shared pool after every worker has drawn its own
        // (so no draw ever races a return).
        let mut seed_refs = seeds.iter();
        let mut jobs: Vec<Option<(FileForward<'_>, &Tensor)>> = forwards
            .into_iter()
            .map(|fw| fw.map(|fw| (fw, seed_refs.next().expect("one seed per forward"))))
            .collect();
        let per_file: Vec<Option<Gradients>> = pool.map_ordered_mut(&mut jobs, |_, job| {
            job.take().map(|(fw, seed)| {
                fw.tape
                    .backward_from(fw.selected, typilus_nn::pooled_copy(seed))
            })
        });
        for seed in seeds {
            typilus_nn::recycle(seed);
        }
        // Fixed (file-index) merge order keeps float accumulation
        // deterministic across thread counts.
        for g in per_file.into_iter().flatten() {
            grads.merge(g);
        }
        Some((value, grads))
    }

    /// Phase-1 forward pass for one file: encode and keep annotated
    /// targets.
    fn file_forward(&self, file: &PreparedFile) -> Option<FileForward<'_>> {
        let mut tape = Tape::new(&self.params);
        let emb = self.embed(&mut tape, file)?;
        let mut keep = Vec::new();
        let mut types = Vec::new();
        for (i, t) in file.targets.iter().enumerate() {
            if let Some(ty) = &t.ty {
                keep.push(i);
                types.push(ty.clone());
            }
        }
        if keep.is_empty() {
            return None;
        }
        let selected = tape.gather(emb, &keep);
        Some(FileForward {
            tape,
            selected,
            types,
        })
    }

    /// Inference: embeds every target of a file (annotated or not) and
    /// returns the raw embedding matrix, or `None` without targets.
    pub fn embed_inference(&self, file: &PreparedFile) -> Option<Tensor> {
        let mut tape = Tape::new(&self.params);
        let emb = self.embed(&mut tape, file)?;
        Some(tape.value(emb).clone())
    }

    /// [`TypeModel::embed_inference`] over many files on the worker
    /// pool; results keep input order.
    pub fn embed_inference_batch(
        &self,
        files: &[&PreparedFile],
        pool: &WorkerPool,
    ) -> Vec<Option<Tensor>> {
        pool.map_ordered(files, |_, file| self.embed_inference(file))
    }

    /// Classification-head prediction for a file: per target, the best
    /// non-UNK class and its probability. Returns `None` when the
    /// model has no classification head (non-[`LossKind::Class`]
    /// models) or when the file embeds to nothing.
    pub fn predict_class(&self, file: &PreparedFile) -> Option<Vec<(PyType, f32)>> {
        let head = self.class_head.as_ref()?;
        let mut tape = Tape::new(&self.params);
        let emb = self.embed(&mut tape, file)?;
        let logits = head.apply(&mut tape, emb);
        let logp = tape.log_softmax(logits);
        let v = tape.value(logp);
        let mut out = Vec::with_capacity(v.rows());
        for r in 0..v.rows() {
            // Best non-UNK class (UNK is not a predictable type).
            let (best, best_lp) = v
                .row(r)
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, &lp)| (i, lp))
                .fold((0usize, f32::NEG_INFINITY), |acc, cur| {
                    if cur.1 > acc.1 {
                        cur
                    } else {
                        acc
                    }
                });
            out.push((self.type_vocab.ty(best).clone(), best_lp.exp()));
        }
        Some(out)
    }

    /// The subtoken vocabulary (shared with corpora statistics tools).
    pub fn subtoken_vocab(&self) -> &Vocab {
        &self.subtoken_vocab
    }

    /// The whole-label vocabulary.
    pub fn token_vocab(&self) -> &Vocab {
        &self.token_vocab
    }
}

/// Assigns a stable 64-bit identity per distinct type string, for the
/// pairwise similarity loss.
fn type_identity_ids(types: &[PyType]) -> Vec<u64> {
    let mut next = 0u64;
    let mut map: HashMap<String, u64> = HashMap::new();
    types
        .iter()
        .map(|t| {
            *map.entry(t.to_string()).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use typilus_graph::{build_graph, GraphConfig};
    use typilus_nn::Adam;
    use typilus_pyast::{parse, SymbolTable};

    fn graphs(sources: &[&str]) -> Vec<ProgramGraph> {
        sources
            .iter()
            .enumerate()
            .map(|(i, src)| {
                let parsed = parse(src).unwrap();
                let table = SymbolTable::build(&parsed.module);
                build_graph(
                    &parsed,
                    &table,
                    &GraphConfig::default(),
                    &format!("f{i}.py"),
                )
            })
            .collect()
    }

    const TRAIN: &[&str] = &[
        "def f(count: int) -> int:\n    return count + 1\n",
        "def g(name: str) -> str:\n    return name\n",
        "def h(num_items: int, label: str) -> int:\n    return num_items\n",
        "def k(title: str) -> str:\n    other = title\n    return other\n",
    ];

    fn small_config(encoder: EncoderKind, loss: LossKind) -> ModelConfig {
        ModelConfig {
            encoder,
            loss,
            dim: 16,
            gnn_steps: 3,
            min_subtoken_count: 1,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn all_nine_variants_build_and_step() {
        let gs = graphs(TRAIN);
        for encoder in [EncoderKind::Graph, EncoderKind::Seq, EncoderKind::Path] {
            for loss in [LossKind::Class, LossKind::Space, LossKind::Typilus] {
                let model = TypeModel::new(small_config(encoder, loss), &gs);
                let prepared: Vec<_> = gs.iter().map(|g| model.prepare(g)).collect();
                let batch: Vec<&PreparedFile> = prepared.iter().collect();
                let (loss_val, grads) = model
                    .train_step(&batch)
                    .expect("batch has annotated targets");
                assert!(
                    loss_val.is_finite(),
                    "{encoder:?}/{loss:?} loss = {loss_val}"
                );
                assert!(grads.global_norm().is_finite());
            }
        }
    }

    /// The pooled parallel step must return the exact `train_step` loss
    /// value, and bit-identical gradients for every pool size.
    #[test]
    fn parallel_step_is_thread_count_invariant() {
        let gs = graphs(TRAIN);
        for loss in [LossKind::Class, LossKind::Space, LossKind::Typilus] {
            let model = TypeModel::new(small_config(EncoderKind::Graph, loss), &gs);
            let prepared: Vec<_> = gs.iter().map(|g| model.prepare(g)).collect();
            let batch: Vec<&PreparedFile> = prepared.iter().collect();
            let (seq_loss, _) = model.train_step(&batch).unwrap();
            let (one_loss, one_grads) = model
                .train_step_parallel(&batch, &WorkerPool::new(1))
                .unwrap();
            assert_eq!(
                seq_loss.to_bits(),
                one_loss.to_bits(),
                "{loss:?}: parallel loss must equal the sequential loss"
            );
            let check = |n_loss: f32, n_grads: &Gradients, what: &str| {
                assert_eq!(one_loss.to_bits(), n_loss.to_bits(), "{loss:?}: {what}");
                let pairs: Vec<_> = one_grads.iter().zip(n_grads.iter()).collect();
                assert!(!pairs.is_empty());
                for ((id_a, ga), (id_b, gb)) in pairs {
                    assert_eq!(id_a, id_b);
                    assert_eq!(ga.shape(), gb.shape());
                    for (a, b) in ga.as_slice().iter().zip(gb.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{loss:?}: gradient differs: {what}"
                        );
                    }
                }
            };
            for threads in [2, 3, 8] {
                let pool = WorkerPool::new(threads);
                let (n_loss, n_grads) = model.train_step_parallel(&batch, &pool).unwrap();
                check(n_loss, &n_grads, &format!("pool of {threads}"));
            }
        }
    }

    #[test]
    fn parallel_step_trains_as_well_as_sequential() {
        let gs = graphs(TRAIN);
        let mut model = TypeModel::new(small_config(EncoderKind::Graph, LossKind::Typilus), &gs);
        let prepared: Vec<_> = gs.iter().map(|g| model.prepare(g)).collect();
        let batch: Vec<&PreparedFile> = prepared.iter().collect();
        let pool = WorkerPool::new(2);
        let mut adam = Adam::new(0.01);
        let (first, _) = model.train_step_parallel(&batch, &pool).unwrap();
        for _ in 0..15 {
            let (_, grads) = model.train_step_parallel(&batch, &pool).unwrap();
            adam.step(&mut model.params, grads);
        }
        let (last, _) = model.train_step_parallel(&batch, &pool).unwrap();
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn batched_inference_matches_one_by_one() {
        let gs = graphs(TRAIN);
        let model = TypeModel::new(small_config(EncoderKind::Graph, LossKind::Typilus), &gs);
        let prepared: Vec<_> = gs.iter().map(|g| model.prepare(g)).collect();
        let refs: Vec<&PreparedFile> = prepared.iter().collect();
        let batched = model.embed_inference_batch(&refs, &WorkerPool::new(3));
        for (file, b) in prepared.iter().zip(batched) {
            let single = model.embed_inference(file).unwrap();
            let b = b.unwrap();
            assert_eq!(single.shape(), b.shape());
            for (x, y) in single.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn prepare_batch_matches_per_graph() {
        let gs = graphs(TRAIN);
        let model = TypeModel::new(small_config(EncoderKind::Graph, LossKind::Typilus), &gs);
        let pooled = model.prepare_batch(&gs, &WorkerPool::new(3));
        assert_eq!(pooled.len(), gs.len());
        for (g, p) in gs.iter().zip(&pooled) {
            let single = model.prepare(g);
            assert_eq!(single.targets.len(), p.targets.len());
            assert_eq!(single.token_seq, p.token_seq);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let gs = graphs(TRAIN);
        let mut model = TypeModel::new(small_config(EncoderKind::Graph, LossKind::Typilus), &gs);
        let prepared: Vec<_> = gs.iter().map(|g| model.prepare(g)).collect();
        let batch: Vec<&PreparedFile> = prepared.iter().collect();
        let mut adam = Adam::new(0.01);
        let (first, _) = model.train_step(&batch).unwrap();
        for _ in 0..15 {
            let (_, grads) = model.train_step(&batch).unwrap();
            adam.step(&mut model.params, grads);
        }
        let (last, _) = model.train_step(&batch).unwrap();
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn class_model_predicts_known_types() {
        let gs = graphs(TRAIN);
        let mut model = TypeModel::new(small_config(EncoderKind::Graph, LossKind::Class), &gs);
        let prepared: Vec<_> = gs.iter().map(|g| model.prepare(g)).collect();
        let batch: Vec<&PreparedFile> = prepared.iter().collect();
        let mut adam = Adam::new(0.02);
        for _ in 0..40 {
            let (_, grads) = model.train_step(&batch).unwrap();
            adam.step(&mut model.params, grads);
        }
        let preds = model.predict_class(&prepared[0]).unwrap();
        let count_idx = prepared[0]
            .targets
            .iter()
            .position(|t| t.name == "count")
            .unwrap();
        assert_eq!(preds[count_idx].0.to_string(), "int");
    }

    #[test]
    fn embeddings_cluster_by_type_after_training() {
        let gs = graphs(TRAIN);
        let mut model = TypeModel::new(small_config(EncoderKind::Graph, LossKind::Typilus), &gs);
        let prepared: Vec<_> = gs.iter().map(|g| model.prepare(g)).collect();
        let batch: Vec<&PreparedFile> = prepared.iter().collect();
        let mut adam = Adam::new(0.02);
        for _ in 0..60 {
            let (_, grads) = model.train_step(&batch).unwrap();
            adam.step(&mut model.params, grads);
        }
        // Collect embeddings with ground truth.
        let mut by_type: HashMap<String, Vec<Vec<f32>>> = HashMap::new();
        for file in &prepared {
            let emb = model.embed_inference(file).unwrap();
            for (i, t) in file.targets.iter().enumerate() {
                if let Some(ty) = &t.ty {
                    by_type
                        .entry(ty.to_string())
                        .or_default()
                        .push(emb.row(i).to_vec());
                }
            }
        }
        let ints = &by_type["int"];
        let strs = &by_type["str"];
        let d_within = Tensor::l1_row_distance(&ints[0], &ints[1]);
        let d_across = Tensor::l1_row_distance(&ints[0], &strs[0]);
        assert!(
            d_within < d_across,
            "within-type distance {d_within} should be below across-type {d_across}"
        );
    }

    #[test]
    fn serde_round_trip_of_model_shape() {
        let gs = graphs(TRAIN);
        let model = TypeModel::new(small_config(EncoderKind::Graph, LossKind::Typilus), &gs);
        // Exercise (de)serialisation through serde's derive using the
        // compact bincode-like format via serde's test-friendly path:
        // Clone + compare parameter count is sufficient shape evidence.
        let copy = model.clone();
        assert_eq!(copy.params.scalar_count(), model.params.scalar_count());
        assert_eq!(copy.type_vocab.len(), model.type_vocab.len());
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::model::tests_support::graphs_for_tests;

    #[test]
    fn every_encoder_kind_round_trips_through_serbin() {
        let gs = graphs_for_tests();
        for encoder in [
            EncoderKind::Graph,
            EncoderKind::Seq,
            EncoderKind::Path,
            EncoderKind::Transformer,
        ] {
            let config = ModelConfig {
                encoder,
                loss: LossKind::Typilus,
                dim: 8,
                gnn_steps: 2,
                min_subtoken_count: 1,
                ..ModelConfig::default()
            };
            let model = TypeModel::new(config, &gs);
            let bytes = typilus_serbin::to_bytes(&model).expect("serialises");
            let back: TypeModel = typilus_serbin::from_bytes(&bytes).expect("deserialises");
            assert_eq!(back.params.scalar_count(), model.params.scalar_count());
            // Restored weights produce identical embeddings.
            let prepared = model.prepare(&gs[0]);
            let a = model.embed_inference(&prepared).expect("targets exist");
            let b = back.embed_inference(&prepared).expect("targets exist");
            assert_eq!(a, b, "{encoder:?} embeddings must survive persistence");
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use typilus_graph::{build_graph, GraphConfig, ProgramGraph};
    use typilus_pyast::{parse, SymbolTable};

    /// A small shared fixture corpus for model tests.
    pub(crate) fn graphs_for_tests() -> Vec<ProgramGraph> {
        [
            "def f(count: int) -> int:\n    return count + 1\n",
            "def g(name: str) -> str:\n    return name\n",
        ]
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let parsed = parse(src).unwrap();
            let table = SymbolTable::build(&parsed.module);
            build_graph(
                &parsed,
                &table,
                &GraphConfig::default(),
                &format!("f{i}.py"),
            )
        })
        .collect()
    }
}
