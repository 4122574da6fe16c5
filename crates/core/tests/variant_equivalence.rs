//! Cross-variant equivalence on Quest-structured data: every Eclat
//! flavor — prefix classes, clique clusters, diffsets, thread-parallel, plus
//! MaxEclat's frontier — must agree, under every config combination.

use dbstore::HorizontalDb;
use eclat::pipeline::Serial;
use eclat::{EclatConfig, ScheduleHeuristic};
use mining_types::{FrequentSet, MinSupport, OpMeter};
use proptest::prelude::*;
use questgen::{QuestGenerator, QuestParams};

/// Sequential Eclat with the default config.
fn sequential_eclat(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let cfg = EclatConfig::default();
    eclat::pipeline::run(db, minsup, &cfg, &mut OpMeter::new(), &Serial)
}

fn quest(d: usize, seed: u64) -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::tiny(d, seed)).generate_all())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_variants_agree_on_quest_data(seed in 0u64..1000, pct in 1.0f64..6.0) {
        let db = quest(800, seed);
        let minsup = MinSupport::from_percent(pct);
        let reference = sequential_eclat(&db, minsup);

        let cfg = EclatConfig::default();
        let (clique, _) =
            eclat::clique::mine(&db, minsup, &cfg, &mut OpMeter::new(), &Serial, "sequential");
        prop_assert_eq!(&clique, &reference, "clique clustering");

        let threads = eclat::Threads::new(0);
        let par = eclat::pipeline::run(&db, minsup, &cfg, &mut OpMeter::new(), &threads);
        prop_assert_eq!(&par, &reference, "parallel");

        // maximal frontier consistency
        let (max, _) =
            eclat::maximal::mine(&db, minsup, &cfg, &mut OpMeter::new(), &threads, "parallel");
        let oracle = eclat::maximal::maximal_of(&reference);
        prop_assert_eq!(&max, &oracle, "MaxEclat");
        // every frequent itemset is under some maximal one
        for (is, _) in reference.iter() {
            prop_assert!(
                max.iter().any(|(m, _)| is.is_subset_of(m)),
                "{} not covered by any maximal set", is
            );
        }
    }

    #[test]
    fn config_matrix_agrees(seed in 0u64..200, sc in any::<bool>(), prune in any::<bool>()) {
        let db = quest(500, seed);
        let minsup = MinSupport::from_percent(2.0);
        let reference = sequential_eclat(&db, minsup);
        let cfg = EclatConfig {
            short_circuit: sc,
            prune,
            heuristic: ScheduleHeuristic::GreedyPairs,
            ..Default::default()
        };
        let mut meter = OpMeter::new();
        prop_assert_eq!(
            eclat::pipeline::run(&db, minsup, &cfg, &mut meter, &Serial),
            reference
        );
    }

    #[test]
    fn buffer_size_never_changes_cluster_results(
        seed in 0u64..100,
        buffer_kb in 1u64..64,
        hosts in 1usize..4,
        ppn in 1usize..3,
    ) {
        let db = quest(400, seed);
        let minsup = MinSupport::from_percent(2.0);
        let topo = memchannel::ClusterConfig::new(hosts, ppn);
        let cost = memchannel::CostModel::dec_alpha_1997();
        let reference = sequential_eclat(&db, minsup);
        let cfg = EclatConfig {
            buffer_bytes: buffer_kb * 1024,
            ..Default::default()
        };
        let rep = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg);
        prop_assert_eq!(&rep.frequent, &reference);
        // smaller buffers → at least as many exchange rounds
        prop_assert!(rep.exchange_rounds < 100_000);
    }
}

#[test]
fn smaller_exchange_buffers_mean_more_rounds() {
    let db = quest(1_500, 9);
    let minsup = MinSupport::from_percent(1.0);
    let topo = memchannel::ClusterConfig::new(4, 1);
    let cost = memchannel::CostModel::dec_alpha_1997();
    let run = |kb: u64| {
        eclat::cluster::mine_cluster(
            &db,
            minsup,
            &topo,
            &cost,
            &EclatConfig {
                buffer_bytes: kb * 1024,
                ..Default::default()
            },
        )
    };
    let small = run(2);
    let large = run(2048);
    assert_eq!(small.frequent, large.frequent);
    assert!(
        small.exchange_rounds >= large.exchange_rounds,
        "{} vs {}",
        small.exchange_rounds,
        large.exchange_rounds
    );
    // more lock-step rounds must not make the simulated time *smaller*
    // by more than noise
    assert!(small.total_secs() >= large.total_secs() * 0.99);
}

#[test]
fn support_monotonicity() {
    // Raising the threshold can only shrink the answer, and surviving
    // supports are unchanged.
    let db = quest(1_000, 4);
    let lo = sequential_eclat(&db, MinSupport::from_percent(1.0));
    let hi = sequential_eclat(&db, MinSupport::from_percent(3.0));
    assert!(hi.len() < lo.len());
    for (is, sup) in hi.iter() {
        assert_eq!(lo.support_of(is), Some(sup), "{is}");
    }
    let lo_threshold = MinSupport::from_percent(3.0).count_threshold(db.num_transactions());
    let surviving: FrequentSet = lo
        .iter()
        .filter(|&(_, s)| s >= lo_threshold)
        .map(|(is, s)| (is.clone(), s))
        .collect();
    assert_eq!(surviving, hi);
}
