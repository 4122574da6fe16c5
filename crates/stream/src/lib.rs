//! Incremental (streaming) association mining on the localized kernel.
//!
//! The paper's central property — after the tid-list exchange every
//! equivalence class is mined independently, with no further
//! communication (§4.1, §5.3) — makes *incremental* mining natural.
//! When a batch of new transactions arrives:
//!
//! 1. **ingest** — the batch is appended to the vertical database
//!    (tid-lists extend in place: new tids are strictly above all old
//!    ones, the same §6.3 disjoint-ascending-range argument that lets
//!    partial tid-lists concatenate without sorting);
//! 2. **delta** — item frequencies and the `L2` triangle are updated by
//!    counting *only the batch* and merging, never recounting history;
//! 3. **remine** — the *dirty set* is computed (see
//!    [`engine::StreamEngine::ingest_batch`] for the exact rule) and
//!    only those equivalence classes are re-mined through the existing
//!    `pipeline` kernel, on any
//!    [`Threads`](eclat::executor::Threads) pool;
//! 4. **merge** — clean classes carry their previous results over
//!    (filtered to the new, possibly higher, support threshold), dirty
//!    classes replace theirs, and rules are regenerated over the merged
//!    frequent set.
//!
//! The result after every batch is *exactly* the full re-mine of all
//! transactions seen so far — the golden replay tests assert
//! byte-identical snapshots on sparse and dense databases, so on both
//! sides of the per-class kernel choice.

pub mod engine;
pub mod stats;

pub use engine::{MinedState, StreamEngine};
pub use stats::{BatchStats, StreamStats, STREAM_SCHEMA_VERSION};
