//! Corpus preparation: parse, deduplicate, build graphs, split.

use std::collections::BTreeMap;
use std::fmt;
use typilus_corpus::{deduplicate, split_with, Corpus, Split, DEFAULT_THRESHOLD};
use typilus_graph::{build_graph, GraphConfig, ProgramGraph};
use typilus_nn::{resolve_threads, WorkerPool};
use typilus_pyast::{parse, Parsed, StmtKind, SymbolTable};
use typilus_types::TypeHierarchy;

/// One source file with everything derived from it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Pseudo-path.
    pub name: String,
    /// Raw source text.
    pub source: String,
    /// Parse result (AST + tokens).
    pub parsed: Parsed,
    /// Symbol table.
    pub table: SymbolTable,
    /// Program graph (annotations erased per the config).
    pub graph: ProgramGraph,
}

/// Why a source file was excluded from the prepared corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The file is not valid Python; carries the parse error text.
    ParseError(String),
    /// The file parsed but produced an empty program graph (nothing to
    /// train or predict on).
    EmptyGraph,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::ParseError(e) => write!(f, "parse error: {e}"),
            SkipReason::EmptyGraph => write!(f, "empty program graph"),
        }
    }
}

/// Files excluded during corpus preparation, keyed by file name
/// (`BTreeMap`, so every report over it is deterministic). The
/// pipeline degrades gracefully — one unparseable file never aborts
/// ingestion — but what was skipped is named, never hidden.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    /// Skipped file name → why it was skipped.
    pub skipped: BTreeMap<String, SkipReason>,
}

impl Quarantine {
    /// Number of quarantined files.
    pub fn len(&self) -> usize {
        self.skipped.len()
    }

    /// Whether every file survived preparation.
    pub fn is_empty(&self) -> bool {
        self.skipped.is_empty()
    }

    /// Number of files skipped for parse errors.
    pub fn parse_errors(&self) -> usize {
        self.skipped
            .values()
            .filter(|r| matches!(r, SkipReason::ParseError(_)))
            .count()
    }

    /// Number of files skipped for empty graphs.
    pub fn empty_graphs(&self) -> usize {
        self.skipped
            .values()
            .filter(|r| matches!(r, SkipReason::EmptyGraph))
            .count()
    }

    /// One-line summary, e.g. `"2 files quarantined (1 parse error, 1
    /// empty graph)"`.
    pub fn summary(&self) -> String {
        format!(
            "{} files quarantined ({} parse errors, {} empty graphs)",
            self.len(),
            self.parse_errors(),
            self.empty_graphs()
        )
    }
}

/// A corpus parsed, deduplicated and split, ready for training.
#[derive(Debug, Clone)]
pub struct PreparedCorpus {
    /// Files that survived parsing and dedup.
    pub files: Vec<SourceFile>,
    /// Train/valid/test indices into `files`.
    pub split: Split,
    /// Files dropped during preparation, with typed reasons.
    pub quarantine: Quarantine,
}

impl PreparedCorpus {
    /// Builds graphs for every parseable, non-duplicate file and splits
    /// 70-10-20 (paper proportions). Extraction is embarrassingly
    /// parallel and fans out over a worker pool sized by
    /// `TYPILUS_THREADS`, or the available cores when it is unset (the
    /// paper extracts graphs for 118k files, so this is the pipeline's
    /// batch stage).
    pub fn from_corpus(corpus: &Corpus, graph_config: &GraphConfig, seed: u64) -> PreparedCorpus {
        let named: Vec<(&str, &str)> = corpus
            .files
            .iter()
            .map(|f| (f.name.as_str(), f.source.as_str()))
            .collect();
        PreparedCorpus::from_sources(&named, graph_config, seed)
    }

    /// Builds a prepared corpus from arbitrary named sources (e.g. `.py`
    /// files read from disk), with the same dedup / parallel extraction /
    /// split pipeline as [`PreparedCorpus::from_corpus`].
    pub fn from_sources(
        named_sources: &[(&str, &str)],
        graph_config: &GraphConfig,
        seed: u64,
    ) -> PreparedCorpus {
        let sources: Vec<&str> = named_sources.iter().map(|(_, s)| *s).collect();
        let kept = deduplicate(&sources, DEFAULT_THRESHOLD);
        // Each extraction result is either a usable file or a typed
        // skip reason: a broken file degrades to a quarantine entry
        // instead of silently vanishing (or killing the worker). The
        // pool returns results in input order, so files, quarantine and
        // split do not depend on the thread count.
        let pool = WorkerPool::new(resolve_threads(None));
        let extracted = pool.map_ordered(&kept, |_, &idx| {
            let (name, source) = named_sources[idx];
            let parsed = match parse(source) {
                Ok(parsed) => parsed,
                Err(e) => return Err((name.to_string(), SkipReason::ParseError(e.to_string()))),
            };
            let table = SymbolTable::build(&parsed.module);
            let graph = build_graph(&parsed, &table, graph_config, name);
            // An empty or comment-only file builds just the module-root
            // node: nothing to train on.
            if graph.node_count() <= 1 {
                return Err((name.to_string(), SkipReason::EmptyGraph));
            }
            Ok(SourceFile {
                name: name.to_string(),
                source: source.to_string(),
                parsed,
                table,
                graph,
            })
        });
        let mut files = Vec::new();
        let mut quarantine = Quarantine::default();
        for extracted in extracted {
            match extracted {
                Ok(file) => files.push(file),
                Err((name, reason)) => {
                    quarantine.skipped.insert(name, reason);
                }
            }
        }
        let split = split_with(files.len(), seed, 0.7, 0.1);
        PreparedCorpus {
            files,
            split,
            quarantine,
        }
    }

    /// Graphs of the given file indices.
    pub fn graphs_of(&self, indices: &[usize]) -> Vec<ProgramGraph> {
        indices
            .iter()
            .map(|&i| self.files[i].graph.clone())
            .collect()
    }

    /// Registers every class defined anywhere in the corpus into a type
    /// hierarchy (the evaluation lattice must know user-defined types).
    pub fn register_classes(&self, hierarchy: &mut TypeHierarchy) {
        fn walk(stmts: &[typilus_pyast::Stmt], hierarchy: &mut TypeHierarchy) {
            for stmt in stmts {
                match &stmt.kind {
                    StmtKind::ClassDef(c) => {
                        let bases: Vec<String> = c
                            .bases
                            .iter()
                            .filter_map(typilus_pyast::Expr::annotation_text)
                            .collect();
                        let refs: Vec<&str> = bases.iter().map(String::as_str).collect();
                        hierarchy.register_class(&c.name, &refs);
                        walk(&c.body, hierarchy);
                    }
                    StmtKind::FunctionDef(f) => walk(&f.body, hierarchy),
                    _ => {}
                }
            }
        }
        for f in &self.files {
            walk(&f.parsed.module.body, hierarchy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typilus_corpus::{generate, CorpusConfig};

    #[test]
    fn prepares_and_splits() {
        let corpus = generate(&CorpusConfig {
            files: 12,
            seed: 1,
            ..CorpusConfig::default()
        });
        let prepared = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 0);
        // Duplicates removed; everything else parses.
        assert!(prepared.files.len() >= 10);
        assert!(prepared.files.len() <= 12);
        let n = prepared.files.len();
        assert_eq!(
            prepared.split.train.len() + prepared.split.valid.len() + prepared.split.test.len(),
            n
        );
        for f in &prepared.files {
            assert!(f.graph.node_count() > 0, "{} has an empty graph", f.name);
        }
    }

    #[test]
    fn broken_files_are_quarantined_with_typed_reasons() {
        let named = [
            ("good.py", "def f(x: int) -> int:\n    return x\n"),
            ("broken.py", "def f(:\n"),
            ("empty.py", ""),
        ];
        let prepared = PreparedCorpus::from_sources(&named, &GraphConfig::default(), 0);
        assert_eq!(prepared.files.len(), 1);
        assert_eq!(prepared.files[0].name, "good.py");
        assert_eq!(prepared.quarantine.len(), 2);
        assert!(matches!(
            prepared.quarantine.skipped.get("broken.py"),
            Some(SkipReason::ParseError(_))
        ));
        assert_eq!(
            prepared.quarantine.skipped.get("empty.py"),
            Some(&SkipReason::EmptyGraph)
        );
        assert_eq!(prepared.quarantine.parse_errors(), 1);
        assert_eq!(prepared.quarantine.empty_graphs(), 1);
        assert_eq!(
            prepared.quarantine.summary(),
            "2 files quarantined (1 parse errors, 1 empty graphs)"
        );
    }

    #[test]
    fn clean_corpus_has_empty_quarantine() {
        let corpus = generate(&CorpusConfig {
            files: 8,
            seed: 2,
            ..CorpusConfig::default()
        });
        let prepared = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 0);
        assert!(prepared.quarantine.is_empty());
    }

    #[test]
    fn classes_registered() {
        let corpus = generate(&CorpusConfig {
            files: 12,
            seed: 1,
            ..CorpusConfig::default()
        });
        let prepared = PreparedCorpus::from_corpus(&corpus, &GraphConfig::default(), 0);
        let mut h = TypeHierarchy::new();
        prepared.register_classes(&mut h);
        let classes = corpus.universe.user_classes();
        let known = classes.iter().filter(|c| h.contains(c)).count();
        assert!(known > 0, "at least some user classes registered");
    }
}
