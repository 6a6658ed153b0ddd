//! The DeepTyper-style sequence baseline (paper Sec. 6.1, "Seq*" rows).
//!
//! A two-layer bidirectional GRU over the token sequence with
//! *consistency modules*: after each biGRU layer (including the output
//! layer — the paper's addition (b)), representations of tokens bound to
//! the same variable are averaged and mixed back in, giving each variable
//! a single consistent representation. Token inputs use subtoken-averaged
//! embeddings (the paper's addition (a) relative to DeepTyper).

use crate::input::PreparedFile;
use serde::{Deserialize, Serialize};
use typilus_nn::{Embedding, GruCell, Linear, ParamSet, Tape, Tensor, Var};

/// The biGRU sequence encoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeqEncoder {
    embedding: Embedding,
    fwd1: GruCell,
    bwd1: GruCell,
    fwd2: GruCell,
    bwd2: GruCell,
    out_proj: Linear,
    /// Output width `D`.
    pub dim: usize,
}

impl SeqEncoder {
    /// Creates the encoder; `dim` must be even (split across directions).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is odd.
    pub fn new<R: rand::Rng>(
        params: &mut ParamSet,
        subtoken_vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> SeqEncoder {
        assert!(dim.is_multiple_of(2), "sequence model width must be even");
        let h = dim / 2;
        let embedding = Embedding::new(params, "seq.subtok", subtoken_vocab, dim, rng);
        let fwd1 = GruCell::new(params, "seq.fwd1", dim, h, rng);
        let bwd1 = GruCell::new(params, "seq.bwd1", dim, h, rng);
        let fwd2 = GruCell::new(params, "seq.fwd2", dim, h, rng);
        let bwd2 = GruCell::new(params, "seq.bwd2", dim, h, rng);
        let out_proj = Linear::new(params, "seq.out", dim, dim, rng);
        SeqEncoder {
            embedding,
            fwd1,
            bwd1,
            fwd2,
            bwd2,
            out_proj,
            dim,
        }
    }

    /// One directional GRU pass over `[L, in]`, returning `[L, h]` in
    /// sequence order.
    fn pass(
        &self,
        tape: &mut Tape<'_>,
        gru: &GruCell,
        inputs: Var,
        len: usize,
        reverse: bool,
    ) -> Var {
        let mut states: Vec<Var> = Vec::with_capacity(len);
        let mut h = tape.input(Tensor::zeros(1, gru.hidden_dim));
        for step in 0..len {
            let i = if reverse { len - 1 - step } else { step };
            let x = tape.gather(inputs, &[i]);
            h = gru.step(tape, x, h);
            states.push(h);
        }
        if reverse {
            states.reverse();
        }
        tape.concat_rows(&states)
    }

    /// The consistency module: averages representations within each
    /// variable group and mixes the average back into each position.
    fn consistency(&self, tape: &mut Tape<'_>, x: Var, file: &PreparedFile) -> Var {
        let means = tape.segment_mean(x, &file.token_group, file.num_groups);
        let back = tape.gather(means, &file.token_group);
        let sum = tape.add(x, back);
        tape.scale(sum, 0.5)
    }

    /// Per-token representations `[L, D]`.
    pub fn token_states(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        let len = file.token_seq.len();
        // Token inputs: mean of subtoken embeddings per token.
        let mut ids = Vec::new();
        let mut groups = Vec::new();
        for (pos, &node) in file.token_seq.iter().enumerate() {
            for &s in &file.node_subtokens[node as usize] {
                ids.push(s);
                groups.push(pos);
            }
        }
        let x = self.embedding.lookup_mean(tape, &ids, &groups, len);
        // Layer 1.
        let f1 = self.pass(tape, &self.fwd1, x, len, false);
        let b1 = self.pass(tape, &self.bwd1, x, len, true);
        let h1 = tape.concat_cols(&[f1, b1]);
        let h1 = self.consistency(tape, h1, file);
        // Layer 2.
        let f2 = self.pass(tape, &self.fwd2, h1, len, false);
        let b2 = self.pass(tape, &self.bwd2, h1, len, true);
        let h2 = tape.concat_cols(&[f2, b2]);
        let h2 = self.consistency(tape, h2, file);
        self.out_proj.apply(tape, h2)
    }

    /// Type embeddings of the file's targets, `[targets, D]`. Targets
    /// with no token occurrence (possible after sequence truncation) get
    /// a zero embedding.
    ///
    /// # Panics
    ///
    /// Panics if the file has no targets or no tokens.
    pub fn encode(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        assert!(
            !file.targets.is_empty(),
            "encode requires at least one target"
        );
        assert!(!file.token_seq.is_empty(), "sequence model requires tokens");
        let states = self.token_states(tape, file);
        // Average the positions bound to each target (one segment per
        // target; unbound targets have no rows and stay zero).
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
        let enc = SeqEncoder::new(&mut params, sv.len(), 16, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert_eq!(tape.value(emb).shape(), (file.targets.len(), 16));
    }

    #[test]
    fn return_target_gets_nonzero_embedding() {
        let (file, sv) = prepared("def f(a):\n    return a\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = SeqEncoder::new(&mut params, sv.len(), 16, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        let ret_idx = file
            .targets
            .iter()
            .position(|t| t.kind == typilus_pyast::SymbolKind::Return)
            .unwrap();
        let row = tape.value(emb).row(ret_idx);
        assert!(
            row.iter().any(|&v| v != 0.0),
            "return embedding should be nonzero"
        );
    }

    #[test]
    fn gradients_flow_through_both_layers() {
        let (file, sv) = prepared("x = compute(y)\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = SeqEncoder::new(&mut params, sv.len(), 8, &mut rng);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        let loss = tape.mean_all(emb);
        let grads = tape.backward(loss);
        let touched = params
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        // Embedding + 4 GRUs (9 params each) + projection (2).
        assert!(touched >= 30, "only {touched} params received gradients");
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_width_rejected() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let _ = SeqEncoder::new(&mut params, 10, 15, &mut rng);
    }
}
