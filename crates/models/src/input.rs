//! Model-ready views of a program graph.
//!
//! Every encoder family starts from the same [`ProgramGraph`], but each
//! reads different views of it, and a [`PreparedFile`] holds only the
//! views of the family it was prepared for ([`Views`]):
//!
//! - the graph encoder: the ids its node initialisation reads
//!   (subtoken, token or character ids per node) and the
//!   receptive-field [`Schedule`] built from the edges, grouped by label
//!   and direction;
//! - the sequence and transformer encoders: subtoken ids per node, the
//!   token sequence with variable-consistency groups, and each target's
//!   sequence positions;
//! - the path encoder: leaf-to-leaf AST paths per prediction target.
//!
//! The views an encoder does not read stay empty.

use crate::schedule::Schedule;
use crate::vocab::Vocab;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use typilus_graph::{subtokens, EdgeLabel, NodeKind, ProgramGraph};
use typilus_pyast::SymbolKind;
use typilus_types::PyType;

/// Number of directed relation slots: eight labels × two directions.
pub const NUM_RELATIONS: usize = EdgeLabel::COUNT * 2;

/// How initial node representations are formed (paper Table 4, bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeInit {
    /// Mean of learned subtoken embeddings (the paper's default, Eq. 7).
    Subtoken,
    /// One embedding per whole label (token-level, as DeepTyper).
    Token,
    /// Mean of character embeddings (a light stand-in for the paper's
    /// character CNN).
    Char,
}

/// A prediction target with its parsed ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreparedTarget {
    /// Graph node index of the symbol.
    pub node: u32,
    /// The symbol's id in the file's symbol table.
    pub symbol: typilus_pyast::SymbolId,
    /// Symbol name.
    pub name: String,
    /// Variable / parameter / return / member.
    pub kind: SymbolKind,
    /// Parsed ground-truth type, if the source had a (parsable)
    /// annotation that is neither `Any` nor bare `None`.
    pub ty: Option<PyType>,
}

/// One leaf-to-leaf AST path for the path-based encoder: subtokens of the
/// start leaf, labels of the interior nodes, subtokens of the end leaf.
///
/// Ids live in a *combined* space: endpoint subtokens use subtoken-vocab
/// ids in `0..subtoken_vocab.len()`; interior non-terminal labels use
/// token-vocab ids offset by `subtoken_vocab.len()`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeafPath {
    /// Element ids along the path in the combined id space.
    pub element_ids: Vec<usize>,
}

/// A program graph preprocessed into the tensors one encoder family
/// reads (see [`Views`]); every view that family does not read is empty.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PreparedFile {
    /// Number of graph nodes.
    pub num_nodes: usize,
    /// Subtoken ids per node (subtoken-initialised graph view, token
    /// view).
    pub node_subtokens: Vec<Vec<usize>>,
    /// Whole-label id per node (token-initialised graph view).
    pub node_token_id: Vec<usize>,
    /// Character ids per node, bytes mapped into a small alphabet
    /// (character-initialised graph view).
    pub node_chars: Vec<Vec<usize>>,
    /// The GGNN's receptive-field schedule over the edges, grouped into
    /// relation slots `2k` (label `k` forward) and `2k+1` (label `k`
    /// reversed) (graph view).
    pub schedule: Schedule,
    /// Prediction targets (every view).
    pub targets: Vec<PreparedTarget>,
    /// Graph-node indices of the token sequence, in source order (token
    /// view).
    pub token_seq: Vec<u32>,
    /// Consistency group per sequence position; positions bound to the
    /// same symbol share a group id (token view).
    pub token_group: Vec<usize>,
    /// Number of consistency groups (token view).
    pub num_groups: usize,
    /// For each target, the sequence positions bound to its symbol
    /// (token view).
    pub target_positions: Vec<Vec<usize>>,
    /// For each target, sampled leaf-to-leaf paths (path view).
    pub target_paths: Vec<Vec<LeafPath>>,
    /// Source file label.
    pub file: String,
    /// Test-only: the file's `(src, dst)` pairs per relation slot. When
    /// set, the graph encoder runs its all-nodes oracle forward over
    /// them instead of the schedule.
    #[cfg(test)]
    pub(crate) all_nodes_oracle: Option<Vec<Vec<(u32, u32)>>>,
}

/// Which views [`prepare`] builds: exactly those one encoder family
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Views {
    /// The graph encoder: the per-node ids its node initialisation
    /// reads, the receptive-field schedule and the targets.
    Graph {
        /// Which per-node ids to build.
        node_init: NodeInit,
        /// Message-passing steps `T` the schedule covers.
        steps: usize,
    },
    /// The sequence and transformer encoders: subtoken ids per node, the
    /// token sequence, its consistency groups and the target positions.
    Tokens,
    /// The path encoder: sampled leaf-to-leaf paths per target.
    Paths,
}

/// Construction options for [`PreparedFile`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PrepareConfig {
    /// Maximum tokens kept for the sequence view.
    pub max_seq_len: usize,
    /// Maximum paths sampled per target.
    pub max_paths_per_target: usize,
    /// Maximum interior length of a sampled path.
    pub max_path_len: usize,
}

impl Default for PrepareConfig {
    fn default() -> Self {
        PrepareConfig {
            max_seq_len: 400,
            max_paths_per_target: 8,
            max_path_len: 9,
        }
    }
}

/// Maps a character to a small stable alphabet id (1..=38); 0 is UNK.
pub fn char_id(c: char) -> usize {
    match c {
        'a'..='z' => 1 + (c as usize - 'a' as usize),
        'A'..='Z' => 1 + (c as usize - 'A' as usize),
        '0'..='9' => 27 + (c as usize - '0' as usize),
        '_' => 37,
        '.' => 38,
        _ => 0,
    }
}

/// Size of the character alphabet (including UNK).
pub const CHAR_VOCAB: usize = 39;

/// Counts subtoken and whole-label frequencies over graphs, for building
/// the vocabularies.
pub fn count_labels(graphs: &[ProgramGraph]) -> (BTreeMap<String, usize>, BTreeMap<String, usize>) {
    let mut sub = BTreeMap::new();
    let mut tok = BTreeMap::new();
    for g in graphs {
        for n in &g.nodes {
            *tok.entry(n.label.clone()).or_insert(0) += 1;
            for s in subtokens(&n.label) {
                *sub.entry(s).or_insert(0) += 1;
            }
        }
    }
    (sub, tok)
}

/// Parses an annotation string to the ground-truth type used in training
/// and evaluation. `Any`, bare `None` and unparsable annotations yield
/// `None` (the paper excludes `Any`/`None` annotations from its dataset).
pub fn parse_ground_truth(annotation: Option<&str>) -> Option<PyType> {
    let text = annotation?;
    let ty: PyType = text.parse().ok()?;
    if ty.is_top() || ty == PyType::None {
        return None;
    }
    Some(ty)
}

/// Prepares one program graph for the encoder family `views` names.
pub fn prepare(
    graph: &ProgramGraph,
    subtoken_vocab: &Vocab,
    token_vocab: &Vocab,
    config: &PrepareConfig,
    views: Views,
) -> PreparedFile {
    // Targets with parsed ground truth.
    let targets: Vec<PreparedTarget> = graph
        .targets
        .iter()
        .map(|t| PreparedTarget {
            node: t.node,
            symbol: t.symbol,
            name: t.name.clone(),
            kind: t.kind,
            ty: parse_ground_truth(t.annotation.as_deref()),
        })
        .collect();
    let mut file = PreparedFile {
        num_nodes: graph.nodes.len(),
        targets,
        file: graph.file.clone(),
        ..PreparedFile::default()
    };
    match views {
        Views::Graph { node_init, steps } => {
            match node_init {
                NodeInit::Subtoken => {
                    file.node_subtokens = node_subtoken_ids(graph, subtoken_vocab)
                }
                NodeInit::Token => {
                    file.node_token_id = graph
                        .nodes
                        .iter()
                        .map(|n| token_vocab.id(&n.label))
                        .collect();
                }
                NodeInit::Char => {
                    file.node_chars = graph
                        .nodes
                        .iter()
                        .map(|n| {
                            let chars: Vec<usize> = n.label.chars().take(24).map(char_id).collect();
                            if chars.is_empty() {
                                vec![0]
                            } else {
                                chars
                            }
                        })
                        .collect();
                }
            }
            let target_nodes: Vec<u32> = file.targets.iter().map(|t| t.node).collect();
            file.schedule =
                Schedule::build(file.num_nodes, &relations(graph), &target_nodes, steps);
        }
        Views::Tokens => {
            file.node_subtokens = node_subtoken_ids(graph, subtoken_vocab);
            let occ = Occurrences::new(graph, config);
            (file.token_group, file.num_groups) = occ.consistency_groups();
            file.target_positions = occ.target_positions(&file.targets);
            file.token_seq = occ.token_seq;
        }
        Views::Paths => {
            let occ = Occurrences::new(graph, config);
            file.target_paths =
                occ.target_paths(graph, &file.targets, subtoken_vocab, token_vocab, config);
        }
    }
    file
}

/// Subtoken ids per node, `[UNK]` for labels without subtokens.
fn node_subtoken_ids(graph: &ProgramGraph, subtoken_vocab: &Vocab) -> Vec<Vec<usize>> {
    // Labels repeat heavily within a file (keywords, operators, names
    // in use), so each distinct label is split and looked up once.
    let mut by_label: HashMap<&str, Vec<usize>> = HashMap::new();
    graph
        .nodes
        .iter()
        .map(|n| {
            by_label
                .entry(n.label.as_str())
                .or_insert_with(|| {
                    let subs: Vec<usize> = subtokens(&n.label)
                        .iter()
                        .map(|s| subtoken_vocab.id(s))
                        .collect();
                    if subs.is_empty() {
                        vec![crate::vocab::UNK_ID]
                    } else {
                        subs
                    }
                })
                .clone()
        })
        .collect()
}

/// `(src, dst)` pairs per relation slot: slot `2k` is label `k` forward,
/// `2k+1` is label `k` reversed; each slot keeps the graph's edge order.
pub(crate) fn relations(graph: &ProgramGraph) -> Vec<Vec<(u32, u32)>> {
    let mut relations = vec![Vec::new(); NUM_RELATIONS];
    for e in &graph.edges {
        let k = e.label.as_index();
        relations[2 * k].push((e.src, e.dst));
        relations[2 * k + 1].push((e.dst, e.src));
    }
    relations
}

/// The token sequence and the symbol occurrences along it, from which
/// the token and path views derive.
struct Occurrences {
    /// Graph-node indices of the token nodes in source order, truncated
    /// to `max_seq_len`.
    token_seq: Vec<u32>,
    /// Sequence position -> symbol node it is bound to; ordered so every
    /// walk over it is position-ascending (determinism contract, lint
    /// rule D1).
    bound: BTreeMap<usize, u32>,
    /// Symbol node -> its sequence positions, ascending.
    positions_by_symbol: BTreeMap<u32, Vec<usize>>,
    /// Symbol node -> the non-terminal it occurs at (return symbols have
    /// no token occurrences; their occurrence edge comes from the
    /// function-def non-terminal).
    nonterm_occurrence: HashMap<u32, u32>,
    /// AST parent of each node, from CHILD edges.
    parent: Vec<Option<u32>>,
}

impl Occurrences {
    fn new(graph: &ProgramGraph, config: &PrepareConfig) -> Occurrences {
        // Token nodes in creation order are source order.
        let token_seq: Vec<u32> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Token)
            .map(|(i, _)| i as u32)
            .take(config.max_seq_len)
            .collect();
        let pos_of_node: HashMap<u32, usize> =
            token_seq.iter().enumerate().map(|(p, &n)| (n, p)).collect();
        let mut bound: BTreeMap<usize, u32> = BTreeMap::new();
        let mut nonterm_occurrence: HashMap<u32, u32> = HashMap::new();
        for e in graph.edges_with(EdgeLabel::OccurrenceOf) {
            if let Some(&pos) = pos_of_node.get(&e.src) {
                bound.insert(pos, e.dst);
            }
            if graph.nodes[e.src as usize].kind == NodeKind::NonTerminal {
                nonterm_occurrence.insert(e.dst, e.src);
            }
        }
        let mut positions_by_symbol: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (&pos, &sym) in &bound {
            positions_by_symbol.entry(sym).or_default().push(pos);
        }
        for v in positions_by_symbol.values_mut() {
            v.sort_unstable();
        }
        let mut parent: Vec<Option<u32>> = vec![None; graph.nodes.len()];
        for e in graph.edges_with(EdgeLabel::Child) {
            parent[e.dst as usize] = Some(e.src);
        }
        Occurrences {
            token_seq,
            bound,
            positions_by_symbol,
            nonterm_occurrence,
            parent,
        }
    }

    /// Consistency group per sequence position (positions bound to the
    /// same symbol share a group; unbound positions get their own) and
    /// the number of groups.
    fn consistency_groups(&self) -> (Vec<usize>, usize) {
        let mut symbol_group: HashMap<u32, usize> = HashMap::new();
        let mut token_group = vec![0usize; self.token_seq.len()];
        let mut next_group = 0usize;
        for (pos, group) in token_group.iter_mut().enumerate() {
            let g = match self.bound.get(&pos) {
                Some(&sym) => *symbol_group.entry(sym).or_insert_with(|| {
                    let g = next_group;
                    next_group += 1;
                    g
                }),
                None => {
                    let g = next_group;
                    next_group += 1;
                    g
                }
            };
            *group = g;
        }
        (token_group, next_group)
    }

    /// The sequence positions bound to each target's symbol.
    fn target_positions(&self, targets: &[PreparedTarget]) -> Vec<Vec<usize>> {
        targets
            .iter()
            .map(|t| {
                let direct = self
                    .positions_by_symbol
                    .get(&t.node)
                    .cloned()
                    .unwrap_or_default();
                if !direct.is_empty() {
                    return direct;
                }
                // Return symbols have no token occurrences; fall back to
                // the function header tokens (children of the
                // function-def node), which is how DeepTyper anchors
                // return predictions.
                match self.nonterm_occurrence.get(&t.node) {
                    Some(&func_node) => self
                        .token_seq
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| self.parent[n as usize] == Some(func_node))
                        .map(|(p, _)| p)
                        .take(4)
                        .collect(),
                    None => Vec::new(),
                }
            })
            .collect()
    }

    /// Sampled leaf-to-leaf paths per target, starting at the target's
    /// token occurrences (or its non-terminal occurrence).
    fn target_paths(
        &self,
        graph: &ProgramGraph,
        targets: &[PreparedTarget],
        subtoken_vocab: &Vocab,
        token_vocab: &Vocab,
        config: &PrepareConfig,
    ) -> Vec<Vec<LeafPath>> {
        let identifier_tokens: Vec<u32> = self
            .token_seq
            .iter()
            .copied()
            .filter(|&n| {
                let label = &graph.nodes[n as usize].label;
                label
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
            })
            .collect();
        targets
            .iter()
            .map(|t| {
                let starts: Vec<u32> = self
                    .positions_by_symbol
                    .get(&t.node)
                    .map(|ps| ps.iter().map(|&p| self.token_seq[p]).collect())
                    .unwrap_or_else(|| {
                        self.nonterm_occurrence
                            .get(&t.node)
                            .map(|&n| vec![n])
                            .unwrap_or_default()
                    });
                sample_paths(
                    graph,
                    &self.parent,
                    &starts,
                    &identifier_tokens,
                    subtoken_vocab,
                    token_vocab,
                    config,
                )
            })
            .collect()
    }
}

/// Deterministically samples leaf-to-leaf paths from each start node to
/// nearby identifier tokens through the AST parent chain.
#[allow(clippy::too_many_arguments)]
fn sample_paths(
    graph: &ProgramGraph,
    parent: &[Option<u32>],
    starts: &[u32],
    identifier_tokens: &[u32],
    subtoken_vocab: &Vocab,
    token_vocab: &Vocab,
    config: &PrepareConfig,
) -> Vec<LeafPath> {
    let ancestors = |mut n: u32| -> Vec<u32> {
        let mut out = vec![n];
        while let Some(p) = parent[n as usize] {
            out.push(p);
            n = p;
            if out.len() > 32 {
                break;
            }
        }
        out
    };
    let mut paths = Vec::new();
    'outer: for &start in starts {
        let up = ancestors(start);
        let up_pos: HashMap<u32, usize> = up.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        // Nearest identifier tokens around the start in sequence order.
        for &other in identifier_tokens {
            if other == start {
                continue;
            }
            let down = ancestors(other);
            // Lowest common ancestor.
            let Some((lca_down_idx, lca_up_idx)) = down
                .iter()
                .enumerate()
                .find_map(|(i, n)| up_pos.get(n).map(|&j| (i, j)))
            else {
                continue;
            };
            let interior_len = lca_up_idx + lca_down_idx;
            if interior_len > config.max_path_len {
                continue;
            }
            let mut element_ids = Vec::new();
            for s in subtokens(&graph.nodes[start as usize].label) {
                element_ids.push(subtoken_vocab.id(&s));
            }
            // Up through interior labels (token-level vocab, offset into
            // the combined id space).
            let offset = subtoken_vocab.len();
            for &n in up.iter().take(lca_up_idx + 1).skip(1) {
                element_ids.push(offset + token_vocab.id(&graph.nodes[n as usize].label));
            }
            for &n in down.iter().take(lca_down_idx).skip(1).rev() {
                element_ids.push(offset + token_vocab.id(&graph.nodes[n as usize].label));
            }
            for s in subtokens(&graph.nodes[other as usize].label) {
                element_ids.push(subtoken_vocab.id(&s));
            }
            paths.push(LeafPath { element_ids });
            if paths.len() >= config.max_paths_per_target {
                break 'outer;
            }
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use typilus_graph::{build_graph, GraphConfig};
    use typilus_pyast::{parse, SymbolTable};

    fn graph_of(src: &str) -> ProgramGraph {
        let parsed = parse(src).unwrap();
        let table = SymbolTable::build(&parsed.module);
        build_graph(&parsed, &table, &GraphConfig::default(), "t.py")
    }

    fn prepared_as(src: &str, views: Views) -> PreparedFile {
        let graph = graph_of(src);
        let (sub, tok) = count_labels(std::slice::from_ref(&graph));
        let sv = Vocab::build(&sub, 1, 1000);
        let tv = Vocab::build(&tok, 1, 1000);
        prepare(&graph, &sv, &tv, &PrepareConfig::default(), views)
    }

    fn prepared(src: &str) -> PreparedFile {
        prepared_as(src, Views::Tokens)
    }

    const FUNC: &str = "def f(count: int, label):\n    total = count + 1\n    return total\n";

    #[test]
    fn relations_include_reverses() {
        let rels = relations(&graph_of("x = 1\ny = x\n"));
        let k = EdgeLabel::NextToken.as_index();
        assert_eq!(rels[2 * k].len(), rels[2 * k + 1].len());
        let fwd = &rels[2 * k][0];
        let rev = &rels[2 * k + 1][0];
        assert_eq!((fwd.0, fwd.1), (rev.1, rev.0));
    }

    #[test]
    fn graph_views_skip_sequence_and_path_views() {
        for node_init in [NodeInit::Subtoken, NodeInit::Token, NodeInit::Char] {
            let p = prepared_as(
                FUNC,
                Views::Graph {
                    node_init,
                    steps: 3,
                },
            );
            assert!(p.token_seq.is_empty(), "{node_init:?}");
            assert!(
                p.token_group.is_empty() && p.num_groups == 0,
                "{node_init:?}"
            );
            assert!(p.target_positions.is_empty(), "{node_init:?}");
            assert!(p.target_paths.is_empty(), "{node_init:?}");
            // Only the ids this initialisation reads, for every node.
            let lens = (
                p.node_subtokens.len(),
                p.node_token_id.len(),
                p.node_chars.len(),
            );
            let n = p.num_nodes;
            let expected = match node_init {
                NodeInit::Subtoken => (n, 0, 0),
                NodeInit::Token => (0, n, 0),
                NodeInit::Char => (0, 0, n),
            };
            assert_eq!(lens, expected, "{node_init:?}");
            assert_eq!(p.schedule.steps.len(), 3);
            assert_eq!(p.schedule.target_rows.len(), p.targets.len());
            assert!(!p.targets.is_empty());
        }
    }

    #[test]
    fn token_and_path_views_fill_what_their_encoders_read() {
        let tokens = prepared_as(FUNC, Views::Tokens);
        assert_eq!(tokens.node_subtokens.len(), tokens.num_nodes);
        assert!(!tokens.token_seq.is_empty());
        assert_eq!(tokens.token_group.len(), tokens.token_seq.len());
        assert!(tokens.num_groups > 0);
        assert_eq!(tokens.target_positions.len(), tokens.targets.len());
        assert!(tokens.target_positions.iter().any(|p| !p.is_empty()));
        assert!(tokens.target_paths.is_empty());
        assert!(tokens.node_token_id.is_empty() && tokens.node_chars.is_empty());
        assert!(tokens.schedule.initial.is_empty() && tokens.schedule.steps.is_empty());

        let paths = prepared_as(FUNC, Views::Paths);
        assert_eq!(paths.target_paths.len(), paths.targets.len());
        assert!(paths.target_paths.iter().any(|p| !p.is_empty()));
        assert!(paths.token_seq.is_empty() && paths.target_positions.is_empty());
        assert!(paths.node_subtokens.is_empty());
        assert!(paths.schedule.initial.is_empty() && paths.schedule.steps.is_empty());
    }

    #[test]
    fn ground_truth_parsing() {
        let p = prepared("def f(a: int, b: Any, c) -> None:\n    return None\n");
        let a = p.targets.iter().find(|t| t.name == "a").unwrap();
        assert_eq!(a.ty.as_ref().unwrap().to_string(), "int");
        let b = p.targets.iter().find(|t| t.name == "b").unwrap();
        assert!(b.ty.is_none(), "Any is excluded");
        let c = p.targets.iter().find(|t| t.name == "c").unwrap();
        assert!(c.ty.is_none(), "unannotated");
        let ret = p
            .targets
            .iter()
            .find(|t| t.kind == SymbolKind::Return)
            .unwrap();
        assert!(ret.ty.is_none(), "bare None return is excluded");
    }

    #[test]
    fn consistency_groups_share_symbols() {
        let p = prepared("total = 1\nresult = total + total\n");
        // Find positions of the three `total` tokens.
        let positions: Vec<usize> = p
            .token_seq
            .iter()
            .enumerate()
            .filter(|(_, &_n)| true)
            .map(|(i, _)| i)
            .collect();
        assert!(!positions.is_empty());
        let total_positions: Vec<usize> = p
            .targets
            .iter()
            .find(|t| t.name == "total")
            .map(|t| {
                p.target_positions[p.targets.iter().position(|x| x.name == t.name).unwrap()].clone()
            })
            .unwrap();
        assert_eq!(total_positions.len(), 3);
        let g0 = p.token_group[total_positions[0]];
        assert!(total_positions.iter().all(|&pos| p.token_group[pos] == g0));
    }

    #[test]
    fn paths_exist_for_parameters() {
        let p = prepared_as("def f(count):\n    return count + offset\n", Views::Paths);
        let count_idx = p.targets.iter().position(|t| t.name == "count").unwrap();
        assert!(
            !p.target_paths[count_idx].is_empty(),
            "expected paths for parameter symbol"
        );
        for path in &p.target_paths[count_idx] {
            assert!(!path.element_ids.is_empty());
        }
    }

    #[test]
    fn subtoken_fallback_to_unk() {
        // Every node has at least one subtoken and one character id.
        let p = prepared("x = 1\n");
        assert!(p.node_subtokens.iter().all(|s| !s.is_empty()));
        let views = Views::Graph {
            node_init: NodeInit::Char,
            steps: 1,
        };
        let p = prepared_as("x = 1\n", views);
        assert!(p.node_chars.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn char_alphabet() {
        assert_eq!(char_id('a'), 1);
        assert_eq!(char_id('A'), 1);
        assert_eq!(char_id('z'), 26);
        assert_eq!(char_id('0'), 27);
        assert_eq!(char_id('_'), 37);
        assert_eq!(char_id('!'), 0);
        assert!(CHAR_VOCAB > char_id('.'));
    }
}
