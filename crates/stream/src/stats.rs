//! Per-batch and per-run statistics for the streaming engine.
//!
//! Serialized through [`mining_types::json`] like every other stats
//! surface in the workspace; the key set is pinned by
//! `tests/stats_schema.rs` at the repo root.

use mining_types::json::{Arr, Obj};

/// Bump when the JSON shape of [`StreamStats`]/[`BatchStats`] changes.
pub const STREAM_SCHEMA_VERSION: u64 = 1;

/// What one [`ingest_batch`](crate::StreamEngine::ingest_batch) did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// 0-based batch index (== generation before this batch).
    pub batch: u64,
    /// Transactions in this batch.
    pub transactions: u64,
    /// Transactions ingested so far, this batch included.
    pub total_transactions: u64,
    /// Absolute support threshold after this batch.
    pub threshold: u64,
    /// Distinct item pairs whose co-occurrence count grew this batch.
    pub changed_pairs: u64,
    /// Equivalence classes (frequent-pair prefixes) after this batch.
    pub classes_total: u64,
    /// Classes re-mined because a frequent member pair gained tids.
    pub classes_dirty: u64,
    /// Classes whose previous results carried over (threshold-filtered).
    pub classes_carried: u64,
    /// Dirty classes with no previous state (born at this batch).
    pub classes_born: u64,
    /// Previous classes with no frequent pair at the new threshold.
    pub classes_dropped: u64,
    /// The ISSUE's item-granular dirty bound: classes with any member
    /// pair touching an item changed this batch. Always
    /// `>= classes_dirty` (the engine's pair-granular rule is tighter).
    pub dirty_bound: u64,
    /// Frequent itemsets in the merged state.
    pub itemsets: u64,
    /// Rules regenerated over the merged state.
    pub rules: u64,
    /// Engine generation after this batch (== batch + 1).
    pub generation: u64,
    /// Wall-clock seconds appending the batch to the vertical database.
    pub ingest_secs: f64,
    /// Wall-clock seconds merging delta counts and computing the dirty set.
    pub delta_secs: f64,
    /// Wall-clock seconds re-mining the dirty classes.
    pub remine_secs: f64,
    /// Wall-clock seconds merging results and regenerating rules.
    pub merge_secs: f64,
}

impl BatchStats {
    /// A zeroed record for batch `batch` of `transactions` transactions.
    pub fn new(batch: u64, transactions: u64) -> BatchStats {
        BatchStats {
            batch,
            transactions,
            ..BatchStats::default()
        }
    }

    /// Fraction of classes re-mined this batch (0 when there are none).
    pub fn dirty_fraction(&self) -> f64 {
        if self.classes_total == 0 {
            0.0
        } else {
            self.classes_dirty as f64 / self.classes_total as f64
        }
    }

    /// JSON object for this batch.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("batch", self.batch)
            .u64("transactions", self.transactions)
            .u64("total_transactions", self.total_transactions)
            .u64("threshold", self.threshold)
            .u64("changed_pairs", self.changed_pairs)
            .u64("classes_total", self.classes_total)
            .u64("classes_dirty", self.classes_dirty)
            .u64("classes_carried", self.classes_carried)
            .u64("classes_born", self.classes_born)
            .u64("classes_dropped", self.classes_dropped)
            .u64("dirty_bound", self.dirty_bound)
            .f64("dirty_fraction", self.dirty_fraction())
            .u64("itemsets", self.itemsets)
            .u64("rules", self.rules)
            .u64("generation", self.generation)
            .f64("ingest_secs", self.ingest_secs)
            .f64("delta_secs", self.delta_secs)
            .f64("remine_secs", self.remine_secs)
            .f64("merge_secs", self.merge_secs)
            .finish()
    }
}

/// A whole streaming run: configuration plus one record per batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Kernel label, as in `MiningStats.representation`: `"auto"` (the
    /// per-class density choice) for the engine's re-mines.
    pub representation: String,
    /// Requested transactions per batch.
    pub batch_size: u64,
    /// Transactions ingested over the whole run.
    pub total_transactions: u64,
    /// Final absolute support threshold.
    pub threshold: u64,
    /// Frequent itemsets in the final state.
    pub itemsets: u64,
    /// Rules in the final state.
    pub rules: u64,
    /// Final engine generation (== number of batches).
    pub generation: u64,
    /// Per-batch records, in order.
    pub batches: Vec<BatchStats>,
}

impl StreamStats {
    /// Fold a batch record into the running totals.
    pub fn push(&mut self, batch: BatchStats) {
        self.total_transactions = batch.total_transactions;
        self.threshold = batch.threshold;
        self.itemsets = batch.itemsets;
        self.rules = batch.rules;
        self.generation = batch.generation;
        self.batches.push(batch);
    }

    /// JSON document for the run.
    pub fn to_json(&self) -> String {
        let mut arr = Arr::new();
        for b in &self.batches {
            arr.raw(&b.to_json());
        }
        Obj::new()
            .u64("schema_version", STREAM_SCHEMA_VERSION)
            .str("algorithm", "eclat")
            .str("variant", "stream")
            .str("representation", &self.representation)
            .u64("batch_size", self.batch_size)
            .u64("total_transactions", self.total_transactions)
            .u64("threshold", self.threshold)
            .u64("itemsets", self.itemsets)
            .u64("rules", self.rules)
            .u64("generation", self.generation)
            .raw("batches", &arr.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_json_shape() {
        let mut b = BatchStats::new(2, 10);
        b.classes_total = 4;
        b.classes_dirty = 1;
        let json = b.to_json();
        assert!(json.starts_with("{\"batch\":2,\"transactions\":10,"));
        assert!(json.contains("\"dirty_fraction\":0.25"));
    }

    #[test]
    fn stream_json_accumulates() {
        let mut s = StreamStats {
            representation: "auto".to_string(),
            batch_size: 10,
            ..StreamStats::default()
        };
        let mut b = BatchStats::new(0, 10);
        b.total_transactions = 10;
        b.generation = 1;
        b.itemsets = 5;
        s.push(b);
        assert_eq!(s.generation, 1);
        assert_eq!(s.itemsets, 5);
        let json = s.to_json();
        assert!(json
            .starts_with("{\"schema_version\":1,\"algorithm\":\"eclat\",\"variant\":\"stream\","));
        assert!(json.contains("\"batches\":[{\"batch\":0,"));
    }

    #[test]
    fn dirty_fraction_handles_empty() {
        assert_eq!(BatchStats::new(0, 0).dirty_fraction(), 0.0);
    }
}
