//! # typilus-models
//!
//! The neural models of the Typilus reproduction: the GGNN encoder of the
//! paper plus the DeepTyper-style sequence and code2seq-style path
//! baselines, each trainable with the classification loss (Eq. 1), the
//! deep-similarity space loss (Eq. 3) or the combined Typilus loss
//! (Eq. 4) — the nine variants of paper Table 2.
//!
//! The high-level entry point is [`TypeModel`]: build it from training
//! graphs (vocabularies are derived automatically), call
//! [`TypeModel::train_step`] in a loop, then [`TypeModel::embed_inference`]
//! to obtain type embeddings for the TypeSpace (`typilus-space`).

#![warn(missing_docs)]

pub mod gnn;
pub mod input;
pub mod loss;
pub mod model;
#[cfg(test)]
mod oracle_tests;
pub mod path;
pub mod schedule;
pub mod seq;
pub mod transformer;
pub mod vocab;

pub use gnn::{Aggregation, GnnEncoder};
pub use input::{NodeInit, PrepareConfig, PreparedFile, PreparedTarget, Views};
pub use loss::{classification_loss, space_loss, typilus_loss};
pub use model::{EncoderKind, LossKind, ModelConfig, TypeModel};
pub use path::PathEncoder;
pub use schedule::{Schedule, ScheduleStep};
pub use seq::SeqEncoder;
pub use transformer::TransformerEncoder;
pub use vocab::{TypeVocab, Vocab, UNK_ID};
