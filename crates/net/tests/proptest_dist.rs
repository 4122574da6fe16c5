//! Oracle properties of the distributed runtime.
//!
//! Two layers, mirroring `crates/core/tests/variant_equivalence.rs`:
//!
//! * the *pure* exchange — for random databases and any worker count,
//!   routing per-block partial tid-lists to their owners and
//!   concatenating in rank order reproduces the tid-lists a single
//!   sequential transform builds (the §6.3 offset-placement invariant);
//! * the *real* runtime — a live loopback cluster mines exactly the
//!   frequent set of the sequential miner.

use apriori::reference::random_db;
use dbstore::{BlockPartition, HorizontalDb};
use eclat::pipeline::{frequent_l2, Serial};
use eclat::transform::{build_pair_tidlists, count_pairs, index_pairs};
use eclat::EclatConfig;
use eclat_net::exchange::{assemble, route_partials};
use eclat_net::{mine_distributed, start_worker, DistConfig, WorkerConfig};
use mining_types::{MinSupport, OpMeter};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Run the pure exchange for `num_workers` blocks and return the
/// assembled global tid-lists of every frequent pair.
fn exchanged_lists(
    db: &HorizontalDb,
    threshold: u32,
    num_workers: u32,
) -> (Vec<(u32, u32)>, Vec<tidlist::TidList>) {
    let tri = count_pairs(db, 0..db.num_transactions(), &mut OpMeter::new());
    let l2 = frequent_l2(&tri, threshold);
    let idx = index_pairs(&l2);
    let partition = BlockPartition::equal_blocks(db.num_transactions(), num_workers as usize);

    // Every slot owned by worker 0 — ownership does not affect the
    // concatenation invariant, and this keeps all slots observable.
    let slot_owner = vec![0u32; l2.len()];
    let mut deposits: BTreeMap<u32, _> = BTreeMap::new();
    for rank in 0..num_workers {
        let range = partition.block(rank as usize);
        let tid_offset = range.start as u32;
        // Rebuild the block as its own zero-based database, exactly as a
        // worker sees it after `Assign`.
        let block_db = HorizontalDb::from_transactions(
            db.iter_range(range)
                .map(|(_, items)| items.to_vec())
                .collect(),
        )
        .with_num_items(db.num_items());
        let lists = build_pair_tidlists(
            &block_db,
            0..block_db.num_transactions(),
            &idx,
            &mut OpMeter::new(),
        );
        let routed = route_partials(&lists, &slot_owner, 1, tid_offset);
        deposits.insert(rank, routed.into_iter().next().unwrap());
    }
    let lists = assemble(&deposits, l2.len()).unwrap();
    (l2.iter().map(|&(a, b)| (a.0, b.0)).collect(), lists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchange_reassembles_the_sequential_tidlists(
        seed in 0u64..1_000_000,
        num_txns in 1usize..160,
        num_items in 4u32..24,
        avg_len in 2usize..8,
        num_workers in 1u32..9,
        threshold in 1u32..12,
    ) {
        let db = random_db(seed, num_txns, num_items, avg_len);
        // Oracle: one transform over the whole database.
        let tri = count_pairs(&db, 0..db.num_transactions(), &mut OpMeter::new());
        let l2 = frequent_l2(&tri, threshold);
        let idx = index_pairs(&l2);
        let global = build_pair_tidlists(&db, 0..db.num_transactions(), &idx, &mut OpMeter::new());

        let (pairs, lists) = exchanged_lists(&db, threshold, num_workers);
        prop_assert_eq!(pairs.len(), l2.len());
        for (slot, (oracle, assembled)) in global.iter().zip(&lists).enumerate() {
            prop_assert_eq!(
                oracle.tids(), assembled.tids(),
                "slot {} (pair {:?}) diverged with {} workers",
                slot, pairs[slot], num_workers
            );
        }
    }
}

proptest! {
    // Each case boots a real loopback cluster; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn live_cluster_equals_sequential_miner(
        seed in 0u64..100_000,
        num_workers in 1usize..5,
        pct in 2u32..12,
    ) {
        let db = random_db(seed, 120, 16, 6);
        let minsup = MinSupport::from_percent(f64::from(pct));
        let oracle = eclat::pipeline::run(&db, minsup, &EclatConfig::default(), &mut OpMeter::new(), &Serial);

        let workers: Vec<_> = (0..num_workers)
            .map(|_| start_worker(&WorkerConfig::default()).unwrap())
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let report = mine_distributed(&db, minsup, &addrs, &DistConfig::default()).unwrap();

        prop_assert_eq!(&report.frequent, &oracle, "W={}", num_workers);
        prop_assert_eq!(report.num_workers, num_workers);
        let stats = &report.stats;
        prop_assert_eq!(stats.num_frequent, oracle.len() as u64);
        let cluster = stats.cluster.as_ref().expect("dist runs carry a cluster section");
        prop_assert_eq!(cluster.procs.len(), num_workers);
    }
}
