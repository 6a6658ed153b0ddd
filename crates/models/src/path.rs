//! The code2seq-style path baseline (paper Sec. 6.1, "Path*" rows).
//!
//! Each target symbol is represented by a self-weighted average of
//! encoded leaf-to-leaf AST paths that touch the symbol's tokens,
//! following the paper's adaptation of code2seq (Alon et al.) to single-
//! vector prediction via the attention-style pooling of Gilmer et al.
//! Predictions are independent per symbol, which the paper credits for
//! the Path models' slightly weaker results.

use crate::input::{LeafPath, PreparedFile};
use serde::{Deserialize, Serialize};
use typilus_nn::{Embedding, Linear, ParamId, ParamSet, Tape, Tensor, Var};

/// The path-based encoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathEncoder {
    element_embedding: Embedding,
    path_proj: Linear,
    attention: ParamId,
    /// Output width `D`.
    pub dim: usize,
}

impl PathEncoder {
    /// Creates the encoder. Path elements (endpoint subtokens and interior
    /// non-terminal labels) share one embedding table indexed by the
    /// combined id space of [`LeafPath`] (`subtoken_vocab.len() +
    /// token_vocab.len()` entries).
    pub fn new<R: rand::Rng>(
        params: &mut ParamSet,
        combined_vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> PathEncoder {
        let element_embedding = Embedding::new(params, "path.elem", combined_vocab, dim, rng);
        let path_proj = Linear::new(params, "path.proj", dim, dim, rng);
        let attention = params.add("path.attn", Tensor::glorot(dim, 1, rng));
        PathEncoder {
            element_embedding,
            path_proj,
            attention,
            dim,
        }
    }

    /// Encodes one path into a `[1, D]` vector.
    fn encode_path(&self, tape: &mut Tape<'_>, path: &LeafPath) -> Var {
        let groups = vec![0usize; path.element_ids.len()];
        let mean = self
            .element_embedding
            .lookup_mean(tape, &path.element_ids, &groups, 1);
        let proj = self.path_proj.apply(tape, mean);
        tape.tanh(proj)
    }

    /// Type embedding of one target from its paths, `[1, D]`.
    fn encode_target(&self, tape: &mut Tape<'_>, paths: &[LeafPath]) -> Var {
        if paths.is_empty() {
            return tape.input(Tensor::zeros(1, self.dim));
        }
        let vecs: Vec<Var> = paths.iter().map(|p| self.encode_path(tape, p)).collect();
        let stacked = tape.concat_rows(&vecs); // [P, D]
                                               // Self-weighted average: α = softmax(stacked · w).
        let w = tape.param(self.attention);
        let scores = tape.matmul(stacked, w); // [P, 1]
        let scores_row = tape.transpose(scores); // [1, P]
        let log_alpha = tape.log_softmax(scores_row);
        let alpha = tape.exp(log_alpha); // [1, P]
        tape.matmul(alpha, stacked) // [1, D]
    }

    /// Type embeddings of all targets, `[targets, D]`.
    ///
    /// # Panics
    ///
    /// Panics if the file has no targets.
    pub fn encode(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        assert!(
            !file.targets.is_empty(),
            "encode requires at least one target"
        );
        let rows: Vec<Var> = file
            .target_paths
            .iter()
            .map(|paths| self.encode_target(tape, paths))
            .collect();
        tape.concat_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{count_labels, prepare, PrepareConfig, PreparedFile, Views};
    use crate::vocab::Vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use typilus_graph::{build_graph, GraphConfig};
    use typilus_pyast::{parse, SymbolTable};

    fn prepared(src: &str) -> (PreparedFile, usize) {
        let parsed = parse(src).unwrap();
        let table = SymbolTable::build(&parsed.module);
        let graph = build_graph(&parsed, &table, &GraphConfig::default(), "t.py");
        let (sub, tok) = count_labels(std::slice::from_ref(&graph));
        let sv = Vocab::build(&sub, 1, 1000);
        let tv = Vocab::build(&tok, 1, 1000);
        let combined = sv.len() + tv.len();
        (
            prepare(&graph, &sv, &tv, &PrepareConfig::default(), Views::Paths),
            combined,
        )
    }

    #[test]
    fn encode_shapes() {
        let (file, vocab) = prepared("def f(count, items):\n    return count + len(items)\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = PathEncoder::new(&mut params, vocab, 12, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert_eq!(tape.value(emb).shape(), (file.targets.len(), 12));
    }

    #[test]
    fn attention_weights_sum_to_one() {
        let (file, vocab) = prepared("x = a + b\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = PathEncoder::new(&mut params, vocab, 8, &mut rng);
        let x_idx = file.targets.iter().position(|t| t.name == "x").unwrap();
        assert!(!file.target_paths[x_idx].is_empty());
        // The encoded embedding must lie in the convex hull of path
        // vectors, so its max-abs is bounded by 1 (tanh outputs).
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert!(tape
            .value(emb)
            .as_slice()
            .iter()
            .all(|v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn gradients_reach_attention() {
        let (file, vocab) = prepared("total = price * count\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = PathEncoder::new(&mut params, vocab, 8, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        let sq = tape.mul(emb, emb);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        let touched = params
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        assert!(
            touched >= 3,
            "embedding, projection and attention should train"
        );
    }

    #[test]
    fn pathless_target_gets_zero_embedding() {
        // A module-level symbol with one occurrence and no other
        // identifiers nearby may have no paths.
        let (file, vocab) = prepared("lonely = 1\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = PathEncoder::new(&mut params, vocab, 8, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert_eq!(tape.value(emb).rows(), file.targets.len());
    }
}
