//! The gated graph neural network encoder (paper Sec. 4.3).
//!
//! Message passing follows Eq. 6 with the GGNN instantiation: one learned
//! matrix per edge label and direction (`mᵗ = E_k h`), max-pooling
//! aggregation (the paper found max better than sum and likens it to a
//! meet-like lattice operator), and a single GRU cell as the update
//! function, unrolled `T = 8` steps. Initial node states average learned
//! subtoken embeddings (Eq. 7); token- and character-level variants back
//! the Table 4 ablation. Each step updates only the nodes the targets'
//! final states depend on, as listed by the file's receptive-field
//! [`Schedule`](crate::schedule::Schedule).

use crate::input::{NodeInit, PreparedFile, CHAR_VOCAB, NUM_RELATIONS};
use serde::{Deserialize, Serialize};
use typilus_nn::{Embedding, GruCell, Linear, ParamSet, Tape, Tensor, Var};

/// Message aggregation operator (paper: max; sum as ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Aggregation {
    /// Elementwise maximum over incoming messages (paper default).
    Max,
    /// Sum of incoming messages (classic GGNN).
    Sum,
}

/// The GGNN encoder producing type embeddings for symbol nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnEncoder {
    subtoken_embedding: Embedding,
    token_embedding: Embedding,
    char_embedding: Embedding,
    messages: Vec<Linear>,
    gru: GruCell,
    /// Number of message-passing steps `T`.
    pub steps: usize,
    /// Hidden width `D`.
    pub dim: usize,
    /// Initial node state construction.
    pub node_init: NodeInit,
    /// Aggregation operator.
    pub aggregation: Aggregation,
}

impl GnnEncoder {
    /// Creates a GGNN encoder.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: rand::Rng>(
        params: &mut ParamSet,
        subtoken_vocab: usize,
        token_vocab: usize,
        dim: usize,
        steps: usize,
        node_init: NodeInit,
        aggregation: Aggregation,
        rng: &mut R,
    ) -> GnnEncoder {
        let subtoken_embedding = Embedding::new(params, "gnn.subtok", subtoken_vocab, dim, rng);
        let token_embedding = Embedding::new(params, "gnn.tok", token_vocab, dim, rng);
        let char_embedding = Embedding::new(params, "gnn.char", CHAR_VOCAB, dim, rng);
        let messages = (0..NUM_RELATIONS)
            .map(|k| Linear::new_no_bias(params, &format!("gnn.msg{k}"), dim, dim, rng))
            .collect();
        let gru = GruCell::new(params, "gnn.gru", dim, dim, rng);
        GnnEncoder {
            subtoken_embedding,
            token_embedding,
            char_embedding,
            messages,
            gru,
            steps,
            dim,
            node_init,
            aggregation,
        }
    }

    /// Initial node states `h⁰` of `nodes`, one row per node in order.
    fn initial_states(&self, tape: &mut Tape<'_>, file: &PreparedFile, nodes: &[u32]) -> Var {
        let mean_of = |emb: &Embedding, tape: &mut Tape<'_>, per_node: &[Vec<usize>]| {
            let mut ids = Vec::new();
            let mut groups = Vec::new();
            for (row, &n) in nodes.iter().enumerate() {
                for &id in &per_node[n as usize] {
                    ids.push(id);
                    groups.push(row);
                }
            }
            emb.lookup_mean(tape, &ids, &groups, nodes.len())
        };
        match self.node_init {
            NodeInit::Subtoken => mean_of(&self.subtoken_embedding, tape, &file.node_subtokens),
            NodeInit::Token => {
                let ids: Vec<usize> = nodes
                    .iter()
                    .map(|&n| file.node_token_id[n as usize])
                    .collect();
                self.token_embedding.lookup(tape, &ids)
            }
            NodeInit::Char => mean_of(&self.char_embedding, tape, &file.node_chars),
        }
    }

    /// Type embeddings of the file's prediction targets, `[targets, D]`.
    ///
    /// Runs the message-passing steps of the file's receptive-field
    /// [`Schedule`](crate::schedule::Schedule): step `t` updates only the
    /// nodes the targets' final states depend on, which gives the same
    /// bits as updating every node. The file must have been prepared
    /// with `Views::Graph` for this encoder's `node_init` and `steps`
    /// (as [`TypeModel::prepare`](crate::TypeModel::prepare) does).
    ///
    /// # Panics
    ///
    /// Panics if the file has no targets (check before calling).
    pub fn encode(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        assert!(
            !file.targets.is_empty(),
            "encode requires at least one target"
        );
        #[cfg(test)]
        if let Some(relations) = &file.all_nodes_oracle {
            return self.encode_all_nodes(tape, file, relations);
        }
        let schedule = &file.schedule;
        let mut h = self.initial_states(tape, file, &schedule.initial);
        for step in &schedule.steps {
            let rows = step.active.len();
            let agg = if schedule.slots.is_empty() {
                tape.input(Tensor::zeros(rows, self.dim))
            } else {
                let mut message_rows = Vec::with_capacity(schedule.slots.len());
                for (&k, span) in schedule.slots.iter().zip(step.offsets.windows(2)) {
                    let srcs = indices(&step.src[span[0] as usize..span[1] as usize]);
                    let src_states = tape.gather(h, &srcs);
                    message_rows.push(self.messages[k].apply(tape, src_states));
                }
                let all_messages = tape.concat_rows(&message_rows);
                let dsts = indices(&step.dst);
                match self.aggregation {
                    Aggregation::Max => tape.segment_max(all_messages, &dsts, rows),
                    Aggregation::Sum => tape.segment_sum(all_messages, &dsts, rows),
                }
            };
            let prev = if step.carry.is_empty() {
                h
            } else {
                tape.gather(h, &indices(&step.carry))
            };
            h = self.gru.step(tape, agg, prev);
        }
        tape.gather(h, &indices(&schedule.target_rows))
    }

    /// The all-nodes forward the schedule replaced, kept as the oracle
    /// the pruned [`GnnEncoder::encode`] is tested against: `T` steps
    /// over every node and every edge, then the target rows.
    #[cfg(test)]
    fn encode_all_nodes(
        &self,
        tape: &mut Tape<'_>,
        file: &PreparedFile,
        relations: &[Vec<(u32, u32)>],
    ) -> Var {
        let all: Vec<u32> = (0..file.num_nodes as u32).collect();
        let mut h = self.initial_states(tape, file, &all);
        let rels: Vec<(usize, Vec<usize>, Vec<usize>)> = relations
            .iter()
            .enumerate()
            .filter(|(_, edges)| !edges.is_empty())
            .map(|(k, edges)| {
                let srcs: Vec<usize> = edges.iter().map(|&(s, _)| s as usize).collect();
                let dsts: Vec<usize> = edges.iter().map(|&(_, d)| d as usize).collect();
                (k, srcs, dsts)
            })
            .collect();
        for _ in 0..self.steps {
            let agg = if rels.is_empty() {
                tape.input(Tensor::zeros(file.num_nodes, self.dim))
            } else {
                let mut message_rows = Vec::new();
                let mut message_dsts = Vec::new();
                for (k, srcs, dsts) in &rels {
                    let src_states = tape.gather(h, srcs);
                    let msg = self.messages[*k].apply(tape, src_states);
                    message_rows.push(msg);
                    message_dsts.extend(dsts.iter().copied());
                }
                let all_messages = tape.concat_rows(&message_rows);
                match self.aggregation {
                    Aggregation::Max => {
                        tape.segment_max(all_messages, &message_dsts, file.num_nodes)
                    }
                    Aggregation::Sum => {
                        tape.segment_sum(all_messages, &message_dsts, file.num_nodes)
                    }
                }
            };
            h = self.gru.step(tape, agg, h);
        }
        let idx: Vec<usize> = file.targets.iter().map(|t| t.node as usize).collect();
        tape.gather(h, &idx)
    }
}

/// Widens stored `u32` row indices for the tape's gather/segment ops.
fn indices(rows: &[u32]) -> Vec<usize> {
    rows.iter().map(|&r| r as usize).collect()
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

    fn file_and_vocabs_for(src: &str, node_init: NodeInit) -> (PreparedFile, Vocab, Vocab) {
        let parsed = parse(src).unwrap();
        let table = SymbolTable::build(&parsed.module);
        let graph = build_graph(&parsed, &table, &GraphConfig::default(), "t.py");
        let (sub, tok) = count_labels(std::slice::from_ref(&graph));
        let sv = Vocab::build(&sub, 1, 1000);
        let tv = Vocab::build(&tok, 1, 1000);
        let views = Views::Graph {
            node_init,
            steps: 4,
        };
        let file = prepare(&graph, &sv, &tv, &PrepareConfig::default(), views);
        (file, sv, tv)
    }

    fn file_and_vocabs(src: &str) -> (PreparedFile, Vocab, Vocab) {
        file_and_vocabs_for(src, NodeInit::Subtoken)
    }

    fn encoder(sv: &Vocab, tv: &Vocab, params: &mut ParamSet, init: NodeInit) -> GnnEncoder {
        let mut rng = StdRng::seed_from_u64(42);
        GnnEncoder::new(
            params,
            sv.len(),
            tv.len(),
            16,
            4,
            init,
            Aggregation::Max,
            &mut rng,
        )
    }

    #[test]
    fn encode_shapes() {
        let (file, sv, tv) = file_and_vocabs("def f(a, b):\n    c = a + b\n    return c\n");
        let mut params = ParamSet::new();
        let enc = encoder(&sv, &tv, &mut params, NodeInit::Subtoken);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert_eq!(tape.value(emb).shape(), (file.targets.len(), 16));
    }

    #[test]
    fn all_node_inits_work() {
        for init in [NodeInit::Subtoken, NodeInit::Token, NodeInit::Char] {
            let (file, sv, tv) = file_and_vocabs_for("x = some_value\n", init);
            let mut params = ParamSet::new();
            let enc = encoder(&sv, &tv, &mut params, init);
            let mut tape = Tape::new(&params);
            let emb = enc.encode(&mut tape, &file);
            assert_eq!(tape.value(emb).rows(), file.targets.len(), "{init:?}");
        }
    }

    #[test]
    fn gradients_reach_embeddings_and_messages() {
        let (file, sv, tv) = file_and_vocabs("def f(n):\n    return n + 1\n");
        let mut params = ParamSet::new();
        let enc = encoder(&sv, &tv, &mut params, NodeInit::Subtoken);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        let t = tape.tanh(emb);
        let loss = tape.mean_all(t);
        let grads = tape.backward(loss);
        let touched = params
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        // Subtoken table + at least several message matrices + GRU weights.
        assert!(touched > 8, "only {touched} params received gradients");
    }

    #[test]
    fn sum_aggregation_differs_from_max() {
        let (file, sv, tv) = file_and_vocabs("a = b + c\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(42);
        let enc_max = GnnEncoder::new(
            &mut params,
            sv.len(),
            tv.len(),
            16,
            4,
            NodeInit::Subtoken,
            Aggregation::Max,
            &mut rng,
        );
        let mut enc_sum = enc_max.clone();
        enc_sum.aggregation = Aggregation::Sum;
        let mut tape = Tape::new(&params);
        let e1 = enc_max.encode(&mut tape, &file);
        let e2 = enc_sum.encode(&mut tape, &file);
        assert_ne!(tape.value(e1), tape.value(e2));
    }

    #[test]
    fn deterministic_encoding() {
        let (file, sv, tv) = file_and_vocabs("total = count * price\n");
        let mut params = ParamSet::new();
        let enc = encoder(&sv, &tv, &mut params, NodeInit::Subtoken);
        let v1 = {
            let mut tape = Tape::new(&params);
            let e = enc.encode(&mut tape, &file);
            tape.value(e).clone()
        };
        let v2 = {
            let mut tape = Tape::new(&params);
            let e = enc.encode(&mut tape, &file);
            tape.value(e).clone()
        };
        assert_eq!(v1, v2);
    }
}
