//! # typilus-space
//!
//! The TypeSpace machinery of the Typilus reproduction: the adaptive
//! type map `τmap` (embedding → type markers), kNN type prediction with
//! the distance-weighted vote of paper Eq. 5, and an Annoy-style
//! random-projection forest for sub-linear queries under L1 (the paper
//! uses Annoy with the same metric).
//!
//! The forest is sharded so it scales to million-marker spaces:
//! [`shard`] builds tree groups in parallel with
//! deterministic per-shard seeds, [`disk`] lays the whole index out in
//! a contiguous little-endian format that [`SpaceIndex`] queries
//! zero-copy straight from a memory-mapped (or any borrowed) view, and
//! [`TypeMap`] keeps post-build markers queryable through a
//! deterministic overlay merged by periodic rebuild.
//!
//! ```
//! use typilus_space::{KnnConfig, TypeMap};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut map = TypeMap::new(2);
//! map.add(vec![0.0, 0.0], "int".parse()?)?;
//! map.add(vec![1.0, 1.0], "str".parse()?)?;
//! let top = map.predict_top(&[0.1, 0.0], KnnConfig::default()).unwrap();
//! assert_eq!(top.ty.to_string(), "int");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod disk;
pub mod error;
pub mod index;
pub mod kernel;
pub mod shard;
pub mod typemap;

#[cfg(test)]
mod oracle_tests;

pub use disk::{
    build_payload, AlignedBytes, SpaceIndex, SPACE_HEADER_LEN, SPACE_MAGIC, SPACE_VERSION,
};
pub use error::SpaceError;
pub use index::{
    l1, l1_pruned, l1_pruned_reference, l1_reference, ExactIndex, Hit, PointStore, QueryScratch,
    RpForestConfig,
};
pub use shard::SpaceConfig;
pub use typemap::{KnnConfig, TypeMap, TypePrediction};
