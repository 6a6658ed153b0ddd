//! The complete inference path of paper Fig. 1 (right): predict with the
//! TypeSpace, then let the optional type checker discard candidates that
//! provably break the program, returning only verified suggestions.

use crate::data::PreparedCorpus;
use crate::pipeline::TrainedSystem;
use typilus_check::{CheckerProfile, TypeChecker};
use typilus_pyast::symtable::{SymbolId, SymbolKind};
use typilus_pyast::{Parsed, SymbolTable};
use typilus_types::PyType;

/// A checker-verified type suggestion for one symbol.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// The symbol's id in its file's symbol table.
    pub symbol: SymbolId,
    /// Symbol name.
    pub name: String,
    /// Symbol kind.
    pub kind: SymbolKind,
    /// The suggested type (the highest-confidence candidate that passed
    /// the checker).
    pub ty: PyType,
    /// Model confidence of the suggested candidate.
    pub confidence: f32,
    /// The symbol's existing annotation, if any (a differing suggestion
    /// then flags a potential annotation error, paper Sec. 7).
    pub existing: Option<PyType>,
    /// How many higher-ranked candidates the checker rejected first.
    pub rejected_above: usize,
}

/// Options for suggestion generation.
#[derive(Debug, Clone, Copy)]
pub struct SuggestOptions {
    /// Checker profile used for verification.
    pub profile: CheckerProfile,
    /// Candidates below this confidence are not considered.
    pub min_confidence: f32,
    /// How many ranked candidates to try per symbol before giving up.
    pub max_candidates: usize,
    /// Also suggest for symbols that already have an annotation
    /// (surfacing disagreements instead of only filling gaps).
    pub include_annotated: bool,
}

impl Default for SuggestOptions {
    fn default() -> Self {
        SuggestOptions {
            profile: CheckerProfile::Mypy,
            min_confidence: 0.2,
            max_candidates: 3,
            include_annotated: false,
        }
    }
}

impl TrainedSystem {
    /// Verified suggestions for a source string.
    ///
    /// # Errors
    ///
    /// Returns the parse error for invalid source.
    pub fn suggest_source(
        &self,
        source: &str,
        options: &SuggestOptions,
    ) -> Result<Vec<Suggestion>, typilus_pyast::ParseError> {
        let parsed = typilus_pyast::parse(source)?;
        let table = typilus_pyast::SymbolTable::build(&parsed.module);
        let prepared = self.prepare_parsed(&parsed, &table, "<input>");
        let predictions = self.predict_prepared(&prepared, usize::MAX);
        Ok(self.verify_candidates(&parsed, &table, predictions, options))
    }

    /// Verified suggestions for a corpus file.
    pub fn suggest_file(
        &self,
        data: &PreparedCorpus,
        file_idx: usize,
        options: &SuggestOptions,
    ) -> Vec<Suggestion> {
        let file = &data.files[file_idx];
        let predictions = self.predict_file(data, file_idx);
        self.verify_candidates(&file.parsed, &file.table, predictions, options)
    }

    fn verify_candidates(
        &self,
        parsed: &Parsed,
        table: &SymbolTable,
        predictions: Vec<crate::pipeline::SymbolPrediction>,
        options: &SuggestOptions,
    ) -> Vec<Suggestion> {
        let checker = TypeChecker::new(options.profile);
        // A file that already fails cannot attribute new errors to the
        // substitution; skip verification-by-checker and suggest nothing,
        // as in the paper's protocol.
        if !checker.check(parsed, table).is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for p in predictions {
            if p.ground_truth.is_some() && !options.include_annotated {
                continue;
            }
            let mut rejected = 0usize;
            for candidate in p.candidates.iter().take(options.max_candidates) {
                if candidate.probability < options.min_confidence {
                    break; // candidates are sorted; the rest are weaker
                }
                if candidate.ty.is_top() {
                    continue;
                }
                let issues =
                    checker.check_with_override(parsed, table, p.symbol, candidate.ty.clone());
                if issues.is_empty() {
                    out.push(Suggestion {
                        symbol: p.symbol,
                        name: p.name.clone(),
                        kind: p.kind,
                        ty: candidate.ty.clone(),
                        confidence: candidate.probability,
                        existing: p.ground_truth.clone(),
                        rejected_above: rejected,
                    });
                    break;
                }
                rejected += 1;
            }
        }
        out.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{train, TypilusConfig};
    use typilus_corpus::{generate, CorpusConfig};
    use typilus_models::ModelConfig;

    fn tiny_system() -> (TrainedSystem, PreparedCorpus) {
        let corpus = generate(&CorpusConfig {
            files: 25,
            seed: 6,
            ..CorpusConfig::default()
        });
        let data = PreparedCorpus::from_corpus(&corpus, &typilus_graph::GraphConfig::default(), 6);
        let config = TypilusConfig {
            model: ModelConfig {
                dim: 16,
                gnn_steps: 3,
                min_subtoken_count: 1,
                ..ModelConfig::default()
            },
            epochs: 5,
            lr: 0.02,
            ..TypilusConfig::default()
        };
        (train(&data, &config), data)
    }

    #[test]
    fn suggestions_are_verified_and_sorted() {
        let (system, data) = tiny_system();
        let options = SuggestOptions::default();
        let checker = TypeChecker::new(options.profile);
        let mut any = false;
        for &idx in &data.split.test {
            let file = &data.files[idx];
            let suggestions = system.suggest_file(&data, idx, &options);
            let mut last = f32::INFINITY;
            for s in &suggestions {
                any = true;
                assert!(s.confidence <= last + 1e-6, "sorted by confidence");
                last = s.confidence;
                assert!(
                    s.existing.is_none(),
                    "default options skip annotated symbols"
                );
                // Re-verify: the suggestion must type check.
                let issues =
                    checker.check_with_override(&file.parsed, &file.table, s.symbol, s.ty.clone());
                assert!(issues.is_empty(), "suggestion {s:?} fails its own check");
            }
        }
        assert!(
            any,
            "expected at least one suggestion across the test split"
        );
    }

    #[test]
    fn include_annotated_surfaces_disagreements() {
        let (system, data) = tiny_system();
        let options = SuggestOptions {
            include_annotated: true,
            min_confidence: 0.0,
            ..SuggestOptions::default()
        };
        let mut annotated_seen = false;
        for &idx in &data.split.test {
            for s in system.suggest_file(&data, idx, &options) {
                if s.existing.is_some() {
                    annotated_seen = true;
                }
            }
        }
        assert!(
            annotated_seen,
            "annotated symbols should appear when requested"
        );
    }

    #[test]
    fn suggest_source_round_trip() {
        let (system, _) = tiny_system();
        let suggestions = system
            .suggest_source(
                "def scale(count):\n    total = count * 2\n    return total\n",
                &SuggestOptions {
                    min_confidence: 0.0,
                    ..SuggestOptions::default()
                },
            )
            .expect("parses");
        assert!(!suggestions.is_empty());
    }
}
