//! Ordered relation storage for the Minesweeper join algorithm.
//!
//! This crate implements the *model of indexes* from Section 2.1 of
//! "Beyond Worst-case Analysis for Joins with Minesweeper" (Ngo, Nguyen, Ré,
//! Rudra; PODS 2014). Every relation is stored as an ordered search tree
//! (a sorted trie, the in-memory analogue of a B-tree indexed on all columns)
//! whose search key is consistent with a global attribute order (GAO).
//!
//! The central access primitive is [`TrieRelation::find_gap`], the paper's
//! `R.FindGap(x, a)`: given an index tuple `x` identifying a trie node and a
//! value `a`, it returns the pair of 1-based coordinates `(x⁻, x⁺)` with
//! `R[(x, x⁻)] ≤ a ≤ R[(x, x⁺)]`, `x⁻` maximal and `x⁺` minimal, using the
//! out-of-range conventions (1)/(2) of the paper (`R[.., 0] = −∞`,
//! `R[.., len+1] = +∞`).
//!
//! The crate also provides:
//! * [`RelationBuilder`] — sorts and deduplicates tuples into a trie,
//! * [`Database`] — a catalog of named relations,
//! * [`ExecStats`] — operation counters; the number of `FindGap` calls is the
//!   empirical certificate-size proxy used in the paper's Section 5.2,
//! * [`TrieCursor`] — a leapfrog-style positional iterator used by the
//!   baseline worst-case-optimal algorithms,
//! * [`VersionedRelation`] + [`MergeView`] — the write path: immutable base
//!   tries with sorted in-memory deltas, merged lazily under the same
//!   cursor contract (see `docs/STORAGE.md`),
//! * [`TrieStorage`] — the node-level read trait every physical trie layout
//!   implements,
//! * [`BitLeafRelation`] — the hybrid dense-leaf layout: child runs that
//!   pass a density test become packed `u64` bitsets with a rank
//!   directory, selected per [`LeafPolicy`] at load/compaction time.

#![warn(missing_docs)]

pub mod backend;
pub mod bitleaf;
pub mod builder;
pub mod cursor;
pub mod database;
pub mod dict;
pub mod error;
pub mod gap_cursor;
pub mod merge;
pub mod shard;
pub mod sorted;
pub mod stats;
pub mod trie;
pub mod value;
pub mod versioned;

pub use backend::TrieStorage;
pub use bitleaf::{BitLeafRelation, LeafPolicy, StorageRef, DENSE_MIN_RUN, DENSE_SPAN_FACTOR};
pub use builder::RelationBuilder;
pub use cursor::TrieCursor;
pub use database::{Database, RelId};
pub use dict::{ColumnType, Dictionary, Value};
pub use error::StorageError;
pub use gap_cursor::GapCursor;
pub use merge::{MergeCursor, MergeIter, MergeNode, MergeView};
pub use shard::{equi_depth_shards, nested_shards, second_level_profile, ShardBounds, ShardSpec};
pub use stats::ExecStats;
pub use trie::{Gap, NodeId, TrieRelation};
pub use value::{Tuple, Val, NEG_INF, POS_INF};
pub use versioned::{VersionedRelation, WriteOp, WriteOutcome, COMPACT_DELTA_RATIO};
