//! A small transformer encoder baseline.
//!
//! The paper (Sec. 6.1, "Transformers") reports testing small
//! transformers in place of DeepTyper's biGRU and finding they did not
//! improve on it, attributing this to transformers' appetite for data
//! and their quadratic memory in sequence length. This module
//! reproduces that comparison point: a compact pre-norm transformer
//! (learned positional embeddings, single-head self-attention, two
//! blocks) over the same token sequence and consistency pooling as the
//! sequence baseline.

use crate::input::PreparedFile;
use serde::{Deserialize, Serialize};
use typilus_nn::{Embedding, Linear, ParamSet, Tape, Tensor, Var};

/// One pre-norm transformer block: self-attention + feed-forward, both
/// with residual connections.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Block {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    ff1: Linear,
    ff2: Linear,
}

impl Block {
    fn new<R: rand::Rng>(params: &mut ParamSet, name: &str, dim: usize, rng: &mut R) -> Block {
        Block {
            wq: Linear::new_no_bias(params, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new_no_bias(params, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new_no_bias(params, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new_no_bias(params, &format!("{name}.wo"), dim, dim, rng),
            ff1: Linear::new(params, &format!("{name}.ff1"), dim, 2 * dim, rng),
            ff2: Linear::new(params, &format!("{name}.ff2"), 2 * dim, dim, rng),
        }
    }

    fn apply(&self, tape: &mut Tape<'_>, x: Var, dim: usize) -> Var {
        // Pre-norm attention with residual.
        let normed = tape.row_norm(x);
        let q = self.wq.apply(tape, normed);
        let k = self.wk.apply(tape, normed);
        let v = self.wv.apply(tape, normed);
        let scores = tape.matmul_t(q, k); // [L, L]
        let scaled = tape.scale(scores, 1.0 / (dim as f32).sqrt());
        let log_attn = tape.log_softmax(scaled);
        let attn = tape.exp(log_attn);
        let mixed = tape.matmul(attn, v);
        let projected = self.wo.apply(tape, mixed);
        let x = tape.add(x, projected);
        // Pre-norm feed-forward with residual.
        let normed = tape.row_norm(x);
        let h = self.ff1.apply(tape, normed);
        let h = tape.relu(h);
        let h = self.ff2.apply(tape, h);
        tape.add(x, h)
    }
}

/// The transformer sequence encoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerEncoder {
    embedding: Embedding,
    positions: Embedding,
    blocks: Vec<Block>,
    out_proj: Linear,
    /// Output width `D`.
    pub dim: usize,
    /// Maximum sequence length (positions beyond it reuse the last slot).
    pub max_len: usize,
}

impl TransformerEncoder {
    /// Creates a transformer with `blocks` pre-norm layers.
    pub fn new<R: rand::Rng>(
        params: &mut ParamSet,
        subtoken_vocab: usize,
        dim: usize,
        blocks: usize,
        max_len: usize,
        rng: &mut R,
    ) -> TransformerEncoder {
        let embedding = Embedding::new(params, "xf.subtok", subtoken_vocab, dim, rng);
        let positions = Embedding::new(params, "xf.pos", max_len, dim, rng);
        let blocks = (0..blocks)
            .map(|i| Block::new(params, &format!("xf.block{i}"), dim, rng))
            .collect();
        let out_proj = Linear::new(params, "xf.out", dim, dim, rng);
        TransformerEncoder {
            embedding,
            positions,
            blocks,
            out_proj,
            dim,
            max_len,
        }
    }

    /// Per-token representations `[L, D]`.
    pub fn token_states(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        let len = file.token_seq.len();
        let mut ids = Vec::new();
        let mut groups = Vec::new();
        for (pos, &node) in file.token_seq.iter().enumerate() {
            for &s in &file.node_subtokens[node as usize] {
                ids.push(s);
                groups.push(pos);
            }
        }
        let tok = self.embedding.lookup_mean(tape, &ids, &groups, len);
        let pos_ids: Vec<usize> = (0..len).map(|p| p.min(self.max_len - 1)).collect();
        let pos = self.positions.lookup(tape, &pos_ids);
        let mut x = tape.add(tok, pos);
        for block in &self.blocks {
            x = block.apply(tape, x, self.dim);
        }
        let x = tape.row_norm(x);
        self.out_proj.apply(tape, x)
    }

    /// Type embeddings of the file's targets, `[targets, D]` — same
    /// consistency pooling as the biGRU baseline.
    ///
    /// # Panics
    ///
    /// Panics if the file has no targets or no tokens.
    pub fn encode(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        assert!(
            !file.targets.is_empty(),
            "encode requires at least one target"
        );
        assert!(!file.token_seq.is_empty(), "transformer requires tokens");
        let states = self.token_states(tape, file);
        let mut ids = Vec::new();
        let mut segs = Vec::new();
        for (t, positions) in file.target_positions.iter().enumerate() {
            for &p in positions {
                if p < file.token_seq.len() {
                    ids.push(p);
                    segs.push(t);
                }
            }
        }
        if ids.is_empty() {
            return tape.input(Tensor::zeros(file.targets.len(), self.dim));
        }
        let rows = tape.gather(states, &ids);
        tape.segment_mean(rows, &segs, file.targets.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{count_labels, prepare, PrepareConfig, Views};
    use crate::vocab::Vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use typilus_graph::{build_graph, GraphConfig};
    use typilus_pyast::{parse, SymbolTable};

    fn prepared(src: &str) -> (PreparedFile, Vocab) {
        let parsed = parse(src).unwrap();
        let table = SymbolTable::build(&parsed.module);
        let graph = build_graph(&parsed, &table, &GraphConfig::default(), "t.py");
        let (sub, tok) = count_labels(std::slice::from_ref(&graph));
        let sv = Vocab::build(&sub, 1, 1000);
        let tv = Vocab::build(&tok, 1, 1000);
        (
            prepare(&graph, &sv, &tv, &PrepareConfig::default(), Views::Tokens),
            sv,
        )
    }

    #[test]
    fn encode_shapes() {
        let (file, sv) = prepared("def f(a, b):\n    return a + b\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = TransformerEncoder::new(&mut params, sv.len(), 16, 2, 128, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert_eq!(tape.value(emb).shape(), (file.targets.len(), 16));
    }

    #[test]
    fn attention_rows_mix_information() {
        // With more tokens than max_len, positions clamp instead of
        // panicking.
        let (file, sv) = prepared("a = 1\nb = a + 2\nc = b * a\nd = c - b\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = TransformerEncoder::new(&mut params, sv.len(), 8, 1, 4, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert!(tape.value(emb).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_reach_all_blocks() {
        let (file, sv) = prepared("total = price * count\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = TransformerEncoder::new(&mut params, sv.len(), 8, 2, 64, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        let t = tape.tanh(emb);
        let loss = tape.mean_all(t);
        let grads = tape.backward(loss);
        let touched = params
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        // 2 embeddings + 2 blocks x 8 params + out proj x 2.
        assert!(touched >= 14, "only {touched} params received gradients");
    }
}
