//! Golden replay harness for the incremental mining engine: streaming a
//! database batch-by-batch through [`eclat_stream::StreamEngine`] must
//! leave *exactly* the state a full re-mine of the prefix produces —
//! same itemsets, same supports, same rules — after **every** batch, on
//! sparse data (every class re-mined on diffsets) and dense data (every
//! class on bitmaps). Equality is checked on the serialized
//! results snapshot (generation equalized), so the two paths are pinned
//! byte for byte all the way through the storage layer.

use dbstore::{binfmt, HorizontalDb};
use eclat::pipeline::{Serial, Threads};
use eclat::EclatConfig;
use eclat_stream::{MinedState, StreamEngine};
use mining_types::{ItemId, MinSupport};
use proptest::prelude::*;
use questgen::{QuestGenerator, QuestParams};

/// `(side, transactions, minsup)`: a T10.I6 sample whose classes are all
/// below the density threshold at 1% (diffsets) and a tiny Quest sample
/// whose classes are all above it at 3% (bitmaps); the `eclat` pipeline
/// tests pin both sides.
fn sparse_and_dense() -> [(&'static str, Vec<Vec<ItemId>>, MinSupport); 2] {
    [
        (
            "sparse",
            QuestGenerator::new(QuestParams::t10_i6(3_000).with_seed(5)).generate_all(),
            MinSupport::from_percent(1.0),
        ),
        (
            "dense",
            QuestGenerator::new(QuestParams::tiny(800, 42)).generate_all(),
            MinSupport::from_percent(3.0),
        ),
    ]
}

/// Serialize a mined state with its generation forced to zero, so
/// incremental and from-scratch states compare on content alone (the
/// generation counter is the *only* intended difference).
fn snapshot_bytes(state: &MinedState) -> Vec<u8> {
    let mut snap = state.to_snapshot();
    snap.generation = 0;
    let mut buf = Vec::new();
    binfmt::write_results(&snap, &mut buf).expect("serialize to memory");
    buf
}

/// Replay `txns` through the engine in batches of `splits[i % len]`
/// transactions and assert byte-identity with the full re-mine of every
/// prefix. Returns the number of batches ingested.
fn assert_replay_matches_full(
    txns: &[Vec<ItemId>],
    splits: &[usize],
    minsup: MinSupport,
    confidence: f64,
    threads: &Threads,
) -> usize {
    assert!(splits.iter().all(|&k| k > 0));
    let cfg = EclatConfig::default();
    let num_items = txns
        .iter()
        .flat_map(|t| t.iter().map(|i| i.0 + 1))
        .max()
        .unwrap_or(0);
    let mut engine = StreamEngine::new(num_items, minsup, confidence, cfg.clone());
    let mut at = 0;
    let mut batches = 0;
    while at < txns.len() {
        let end = (at + splits[batches % splits.len()]).min(txns.len());
        let stats = engine.ingest_batch(&txns[at..end], threads);
        assert!(
            stats.classes_dirty <= stats.dirty_bound,
            "pair-granular dirty set exceeded the item-granular bound"
        );
        at = end;
        batches += 1;

        let prefix = HorizontalDb::from_transactions(txns[..at].to_vec());
        let full = MinedState::full_mine(&prefix, minsup, confidence, &cfg);
        assert_eq!(
            engine.state().frequent,
            full.frequent,
            "frequent sets diverged after batch {batches} ({at} txns)"
        );
        assert_eq!(
            engine.state().rules,
            full.rules,
            "rules diverged after batch {batches}"
        );
        assert_eq!(
            snapshot_bytes(engine.state()),
            snapshot_bytes(&full),
            "serialized snapshots diverged after batch {batches}"
        );
    }
    batches
}

/// The deterministic golden stream: a sparse and a dense questgen
/// database, each replayed in 4 batches and checked after every batch.
#[test]
fn replay_matches_full_remine_across_representations() {
    for (side, txns, minsup) in sparse_and_dense() {
        let batch = txns.len() / 4;
        let batches = assert_replay_matches_full(&txns, &[batch], minsup, 0.5, &Serial);
        assert_eq!(batches, 4, "{side}");
    }
}

/// A rising fractional threshold crosses the support border in both
/// directions mid-stream: ceil(25% · n) climbs from 50 to 200 across
/// the replay, so pairs frequent in the early prefix die without losing
/// a tid while batch-local patterns are born. Uneven batch sizes make
/// sure the threshold moves on every ingest.
#[test]
fn replay_survives_border_crossings_both_directions() {
    let txns = QuestGenerator::new(QuestParams::tiny(800, 1097)).generate_all();
    assert_replay_matches_full(
        &txns,
        &[200, 50, 350, 120],
        MinSupport::from_percent(25.0),
        0.3,
        &Serial,
    );
}

/// The re-mine phase runs on the same `Threads` executor as the batch
/// pipeline — every thread count must replay identically, on both sides
/// of the kernel choice.
#[test]
fn replay_is_policy_independent() {
    for (side, txns, minsup) in sparse_and_dense() {
        for p in [1, 2, 3, 8] {
            let batches = assert_replay_matches_full(
                &txns,
                &[txns.len().div_ceil(3)],
                minsup,
                0.5,
                &Threads::new(p),
            );
            assert_eq!(batches, 3, "{side} P={p}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary databases, arbitrary batch splits, and a support
    /// fraction high enough that the absolute threshold moves with
    /// nearly every batch — border crossings in both directions are the
    /// norm here, not the exception.
    #[test]
    fn incremental_equals_full_for_arbitrary_splits(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..6), 1..40),
        splits in proptest::collection::vec(1usize..8, 1..6),
        pct in 5.0f64..60.0,
        conf in 0.1f64..0.9,
    ) {
        let txns: Vec<Vec<ItemId>> = raw
            .into_iter()
            .map(|t| t.into_iter().map(ItemId).collect())
            .collect();
        assert_replay_matches_full(
            &txns,
            &splits,
            MinSupport::from_percent(pct),
            conf,
            &Serial,
        );
    }
}
