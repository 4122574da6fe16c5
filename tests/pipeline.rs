//! End-to-end pipeline: generate → serialize → partition → transform →
//! mine → rules — the full life of a database through the public API.

use dbstore::{binfmt, BlockPartition, HorizontalDb, VerticalDb};
use eclat::pipeline::Serial;
use mining_types::{MinSupport, OpMeter};
use questgen::{DatabaseStats, QuestGenerator, QuestParams};

#[test]
fn generate_serialize_mine_rules() {
    // 1. Generate.
    let params = QuestParams::tiny(4_000, 77);
    let txns = QuestGenerator::new(params).generate_all();
    let db = HorizontalDb::from_transactions(txns);
    let stats = DatabaseStats::measure(&db.iter().map(|(_, t)| t.to_vec()).collect::<Vec<_>>());
    assert_eq!(stats.num_transactions, 4_000);

    // 2. Serialize horizontally, read back, verify byte-for-byte equality.
    let mut buf = Vec::new();
    let written = binfmt::write_horizontal(&db, &mut buf).unwrap();
    assert_eq!(written as usize, buf.len());
    let (db2, read) = binfmt::read_horizontal(&mut buf.as_slice()).unwrap();
    assert_eq!(read, written);
    assert_eq!(db, db2);

    // 3. Vertical transformation round trip, including the partitioned
    //    path (what the cluster transformation does).
    let whole = VerticalDb::from_horizontal(&db);
    let partition = BlockPartition::equal_blocks(db.num_transactions(), 4);
    let parts: Vec<VerticalDb> = partition
        .iter()
        .map(|(_, r)| VerticalDb::from_horizontal_range(&db, r))
        .collect();
    let merged = dbstore::vertical::merge_partitions(&parts);
    assert_eq!(merged, whole);
    let mut vbuf = Vec::new();
    binfmt::write_vertical(&whole, &mut vbuf).unwrap();
    let (whole2, _) = binfmt::read_vertical(&mut vbuf.as_slice()).unwrap();
    assert_eq!(whole2, whole);

    // 4. Mine (with singletons so rules can be generated).
    let minsup = MinSupport::from_percent(1.5);
    let mut meter = OpMeter::new();
    let frequent = eclat::pipeline::run(
        &db2,
        minsup,
        &eclat::EclatConfig::with_singletons(),
        &mut meter,
        &Serial,
    );
    assert!(frequent.max_size() >= 2);

    // 5. Rules, each verified by direct counting.
    let rules = assoc_rules::generate(&frequent, 0.5);
    assert!(!rules.is_empty());
    for r in rules.iter().take(50) {
        assert!(r.confidence() >= 0.5);
        let both = db
            .iter()
            .filter(|(_, t)| {
                r.antecedent.is_subset_of_sorted(t) && r.consequent.is_subset_of_sorted(t)
            })
            .count() as u32;
        assert_eq!(both, r.support, "{r}");
        let ante = db
            .iter()
            .filter(|(_, t)| r.antecedent.is_subset_of_sorted(t))
            .count() as u32;
        assert_eq!(ante, r.antecedent_support, "{r}");
    }
}

#[test]
fn item_support_from_vertical_equals_horizontal_count() {
    let params = QuestParams::tiny(1_000, 9);
    let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
    let vert = VerticalDb::from_horizontal(&db);
    for (item, list) in vert.iter() {
        let direct = db
            .iter()
            .filter(|(_, t)| t.binary_search(&item).is_ok())
            .count() as u32;
        assert_eq!(list.support(), direct, "{item:?}");
    }
}

#[test]
fn partitioned_mining_block_structure() {
    // Verify the §6.3 property the whole transformation phase rests on:
    // per-block partial tid-lists concatenated in block order equal the
    // global list, for 2-itemsets (not just single items).
    let params = QuestParams::tiny(2_000, 13);
    let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
    let minsup = MinSupport::from_percent(2.0);
    let threshold = minsup.count_threshold(db.num_transactions());
    let mut m = OpMeter::new();
    let tri = eclat::transform::count_pairs(&db, 0..db.num_transactions(), &mut m);
    let l2: Vec<_> = tri
        .frequent_pairs(threshold)
        .map(|(a, b, _)| (a, b))
        .collect();
    assert!(!l2.is_empty());
    let idx = eclat::transform::index_pairs(&l2);
    let global = eclat::transform::build_pair_tidlists(&db, 0..db.num_transactions(), &idx, &mut m);

    let partition = BlockPartition::equal_blocks(db.num_transactions(), 5);
    let mut stitched = vec![tidlist::TidList::new(); l2.len()];
    for (_, range) in partition.iter() {
        let part = eclat::transform::build_pair_tidlists(&db, range, &idx, &mut m);
        for (slot, partial) in part.into_iter().enumerate() {
            stitched[slot].append_partial(&partial);
        }
    }
    assert_eq!(stitched, global);
}
