//! The full on-disk pipeline (§3's per-processor local-disk blocks made
//! literal): generate → write per-processor block files → read blocks
//! back → mine per the three-scan discipline → identical answer to the
//! in-memory run; plus the vertical files of the transformation phase.

use dbstore::{HorizontalDb, PartitionStore, VerticalDb};
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use mining_types::{FrequentSet, ItemId, MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};

/// Sequential Eclat with the default config.
fn sequential_eclat(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let cfg = EclatConfig::default();
    eclat::pipeline::run(db, minsup, &cfg, &mut OpMeter::new(), &Serial)
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eclat-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mining_from_disk_store_matches_in_memory() {
    let dir = tempdir("mine");
    let procs = 4;
    let store = PartitionStore::create(&dir, procs).unwrap();
    let db = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::tiny(2_000, 33)).generate_all(),
    );
    let written = store.write_blocks(&db).unwrap();
    assert_eq!(written.len(), procs);

    // reassemble from the block files in processor order
    let mut all: Vec<Vec<ItemId>> = Vec::new();
    for (p, &expected) in written.iter().enumerate() {
        let (block, bytes) = store.read_block(p).unwrap();
        assert_eq!(bytes, expected);
        all.extend(block.iter().map(|(_, t)| t.to_vec()));
    }
    let from_disk = HorizontalDb::from_transactions(all).with_num_items(db.num_items());
    assert_eq!(from_disk, db);

    let minsup = MinSupport::from_percent(1.0);
    assert_eq!(
        sequential_eclat(&from_disk, minsup),
        sequential_eclat(&db, minsup)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn vertical_files_round_trip_per_processor() {
    // The transformation phase's "written out to disk" step.
    let dir = tempdir("vert");
    let procs = 3;
    let store = PartitionStore::create(&dir, procs).unwrap();
    let db = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::tiny(900, 5)).generate_all(),
    );
    let partition = dbstore::BlockPartition::equal_blocks(db.num_transactions(), procs);
    let mut totals = 0u64;
    for (p, range) in partition.iter() {
        let vert = VerticalDb::from_horizontal_range(&db, range);
        totals += store.write_vertical(p, &vert).unwrap();
        let (back, _) = store.read_vertical(p).unwrap();
        assert_eq!(back, vert);
    }
    assert!(totals > 0);
    // merging the per-processor verticals reproduces the global one
    let parts: Vec<VerticalDb> = (0..procs)
        .map(|p| store.read_vertical(p).unwrap().0)
        .collect();
    let merged = dbstore::vertical::merge_partitions(&parts);
    assert_eq!(merged, VerticalDb::from_horizontal(&db));
    store.clear().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
