//! Sorted transaction-id lists (tid-lists) and their intersection kernels.
//!
//! §4.2 of the paper: *"The vertical (or inverted) layout … consists of a
//! list of items, with each item followed by its tid-list — the list of all
//! the transaction identifiers containing the item. … if the tid-list is
//! sorted in increasing order, then the support of a candidate k-itemset
//! can be computed by simply intersecting the tid-lists of any two (k−1)-
//! subsets."*
//!
//! This crate provides the [`TidList`] type plus every intersection
//! variant the reproduction needs:
//!
//! * [`TidList::intersect`] — plain two-pointer merge;
//! * [`TidList::intersect_bounded`] — the paper's **short-circuited**
//!   intersection (§5.3): stop as soon as the upper bound on the result
//!   cardinality drops below the minimum support;
//! * [`TidList::gallop_intersect`] — galloping (exponential-search)
//!   kernel for size-skewed operands;
//! * [`TidList::difference`] — set difference, used by the d-Eclat
//!   *diffset* extension;
//! * `_metered` variants of the hot kernels that report the element
//!   comparisons performed, feeding the simulated-cluster cost model.
//!
//! * [`TidList::intersect_chunked`] / [`TidList::gallop_intersect_chunked`]
//!   — explicitly vectorized 8-wide unrolled block kernels for the sparse
//!   case (branchless lane sweeps the optimizer turns into packed
//!   compares).
//!
//! On top of the concrete kernels sits the [`TidSet`] trait — support,
//! (bounded/metered) join, multi-way look-ahead folds, and a byte-size
//! hook — implemented by [`TidList`], [`diffset::DiffSet`], the adaptive
//! galloping wrapper [`GallopList`], the chunked-kernel wrapper
//! [`ChunkedList`], the fixed-width bitmap [`BitmapSet`] (word `AND` +
//! popcount joins for dense classes), and the mid-recursion switching
//! [`AdaptiveSet`]. The mining recursion in the `eclat` crate is generic
//! over it. The miner itself uses three: [`TidList`] (the paper's layout,
//! for the simulated cluster and as the oracle), and per class either
//! [`BitmapSet`] (dense classes) or [`AdaptiveSet`] with zero fuel, i.e.
//! pure diffsets (all others). [`GallopList`], [`ChunkedList`] and
//! [`AdaptiveSet`] with fuel above zero are on no mining path; the
//! benchmark's kernel probes and this crate's tests keep them exercised.

pub mod adaptive;
pub mod bitmap;
pub mod diffset;
mod list;
pub mod set;

pub use adaptive::AdaptiveSet;
pub use bitmap::BitmapSet;
pub use list::{IntersectOutcome, TidList, LANES};
pub use set::{ChunkedList, GallopList, TidSet};
