//! The workspace's golden invariant: **every** miner produces the
//! identical frequent itemsets with identical supports on the same input.
//!
//! Algorithms covered: sequential Apriori, sequential Eclat (each class
//! on bitmaps or diffsets by density), the paper's tid-list kernel,
//! thread-parallel Eclat, cluster Eclat, hybrid Eclat, Count
//! Distribution, and Candidate Distribution — on realistic Quest data,
//! not just toy matrices.

use dbstore::HorizontalDb;
use eclat::pipeline::{self, Serial};
use eclat::EclatConfig;
use memchannel::{ClusterConfig, CostModel};
use mining_types::{FrequentSet, MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};

/// Sequential Eclat with the default config.
fn sequential_eclat(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let cfg = EclatConfig::default();
    eclat::pipeline::run(db, minsup, &cfg, &mut OpMeter::new(), &Serial)
}

fn quest_db(d: usize, seed: u64) -> HorizontalDb {
    HorizontalDb::from_transactions(QuestGenerator::new(QuestParams::tiny(d, seed)).generate_all())
}

/// The paper's tid-list kernel — the reference the per-class density
/// choice must reproduce.
fn paper_kernel(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    pipeline::run_tidlist_stats(db, minsup, &EclatConfig::default(), &mut OpMeter::new()).0
}

/// Every measured Eclat path — sequential, parallel, clique — must equal
/// the paper's tid-list kernel and Apriori, as must the simulated
/// cluster and hybrid variants.
fn assert_every_eclat_path_agrees(label: &str, db: &HorizontalDb, minsup: MinSupport) {
    let paper = paper_kernel(db, minsup);
    assert!(paper.max_size() >= 3, "{label}: mine below L2");
    let (cfg, m) = (EclatConfig::default(), &mut OpMeter::new());
    let (cost, topo) = (CostModel::dec_alpha_1997(), ClusterConfig::new(2, 2));
    let threads = eclat::Threads::new(0);
    for (name, got) in [
        ("apriori", strip_singletons(&apriori::mine(db, minsup))),
        (
            "sequential",
            eclat::pipeline::run(db, minsup, &cfg, m, &Serial),
        ),
        ("parallel", pipeline::run(db, minsup, &cfg, m, &threads)),
        (
            "clique",
            eclat::clique::mine(db, minsup, &cfg, m, &Serial, "sequential").0,
        ),
        (
            "cluster",
            eclat::cluster::mine_cluster(db, minsup, &topo, &cost, &cfg).frequent,
        ),
        (
            "hybrid",
            eclat::hybrid::mine_hybrid(db, minsup, &topo, &cost, &cfg).frequent,
        ),
    ] {
        assert_eq!(got, paper, "{label} {name}");
    }
}

fn strip_singletons(fs: &FrequentSet) -> FrequentSet {
    fs.iter()
        .filter(|(is, _)| is.len() >= 2)
        .map(|(is, s)| (is.clone(), s))
        .collect()
}

#[test]
fn all_miners_agree_on_quest_data() {
    let db = quest_db(3_000, 99);
    let minsup = MinSupport::from_percent(1.0);
    let cost = CostModel::dec_alpha_1997();
    let topo = ClusterConfig::new(2, 2);

    let apriori_full = apriori::mine(&db, minsup);
    assert!(
        apriori_full.max_size() >= 3,
        "test input should produce itemsets beyond pairs, got max size {}",
        apriori_full.max_size()
    );
    let reference = strip_singletons(&apriori_full);

    let eclat_seq = sequential_eclat(&db, minsup);
    assert_eq!(eclat_seq, reference, "sequential Eclat");

    let eclat_par = eclat::pipeline::run(
        &db,
        minsup,
        &eclat::EclatConfig::default(),
        &mut mining_types::OpMeter::new(),
        &eclat::Threads::new(0),
    );
    assert_eq!(eclat_par, reference, "parallel Eclat");

    let cluster = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(cluster.frequent, reference, "cluster Eclat");

    let hybrid = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(hybrid.frequent, reference, "hybrid Eclat");

    let cd = parbase::mine_count_dist(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(cd.frequent, apriori_full, "Count Distribution");

    let cand = parbase::mine_candidate_dist(&db, minsup, &topo, &cost, &Default::default());
    assert_eq!(cand.frequent, apriori_full, "Candidate Distribution");
}

#[test]
fn all_miners_agree_across_supports_and_seeds() {
    for seed in [3u64, 17] {
        let db = quest_db(1_500, seed);
        for pct in [0.8, 2.0, 5.0] {
            let minsup = MinSupport::from_percent(pct);
            let reference = sequential_eclat(&db, minsup);
            assert_eq!(
                eclat::pipeline::run(
                    &db,
                    minsup,
                    &eclat::EclatConfig::default(),
                    &mut mining_types::OpMeter::new(),
                    &eclat::Threads::new(0)
                ),
                reference,
                "seed {seed} pct {pct}"
            );
            assert_eq!(
                strip_singletons(&apriori::mine(&db, minsup)),
                reference,
                "seed {seed} pct {pct}"
            );
        }
    }
}

#[test]
fn every_topology_and_heuristic_agrees() {
    let db = quest_db(2_000, 5);
    let minsup = MinSupport::from_percent(1.5);
    let cost = CostModel::dec_alpha_1997();
    let reference = sequential_eclat(&db, minsup);
    for topo in [
        ClusterConfig::new(1, 1),
        ClusterConfig::new(3, 1),
        ClusterConfig::new(2, 3),
        ClusterConfig::new(5, 2),
    ] {
        for heuristic in [
            eclat::ScheduleHeuristic::GreedyPairs,
            eclat::ScheduleHeuristic::SupportWeighted,
            eclat::ScheduleHeuristic::RoundRobin,
        ] {
            let cfg = EclatConfig {
                heuristic,
                ..Default::default()
            };
            let rep = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg);
            assert_eq!(rep.frequent, reference, "{} {:?}", topo.label(), heuristic);
        }
    }
}

/// Small Quest samples straddle the density threshold: some classes
/// mine on bitmaps, the rest on diffsets, within one run (the `eclat`
/// pipeline tests pin this input as mixed).
#[test]
fn every_representation_agrees_on_quest_data() {
    let db = quest_db(2_000, 42);
    let minsup = MinSupport::from_percent(1.5);
    assert_every_eclat_path_agrees("quest", &db, minsup);
}

/// A dense database (every class on bitmaps) and a sparse T10.I6 sample
/// (every class on diffsets): each side of the per-class choice on its
/// own, as the `eclat` pipeline tests pin.
#[test]
fn every_representation_agrees_on_dense_data() {
    let dense = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::dense(1_500, 7)).generate_all(),
    );
    let sparse = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::t10_i6(3_000).with_seed(5)).generate_all(),
    );
    for (label, db, pct) in [("dense", dense, 20.0), ("sparse", sparse, 0.5)] {
        assert_every_eclat_path_agrees(label, &db, MinSupport::from_percent(pct));
    }
}

#[test]
fn maximal_mining_agrees_across_representations() {
    // A dense database (8-item core present in every transaction) forces
    // deep look-aheads on bitmaps; the Quest data mixes bitmap and
    // diffset classes; the T10.I6 sample is diffsets only.
    let dense = HorizontalDb::from_transactions(
        (0..200u32)
            .map(|i| {
                let mut t: Vec<mining_types::ItemId> = (0..8).map(mining_types::ItemId).collect();
                t.push(mining_types::ItemId(8 + (i % 7)));
                t
            })
            .collect::<Vec<_>>(),
    );
    let sparse = HorizontalDb::from_transactions(
        QuestGenerator::new(QuestParams::t10_i6(3_000).with_seed(5)).generate_all(),
    );
    for (label, db, pct) in [
        ("quest", quest_db(2_000, 42), 1.5),
        ("dense", dense, 1.5),
        ("sparse", sparse, 0.5),
    ] {
        let minsup = MinSupport::from_percent(pct);
        let reference = eclat::maximal::maximal_of(&paper_kernel(&db, minsup));
        assert!(!reference.is_empty(), "{label}");
        for short_circuit in [true, false] {
            let cfg = EclatConfig {
                short_circuit,
                ..Default::default()
            };
            let got = eclat::maximal::mine(
                &db,
                minsup,
                &cfg,
                &mut OpMeter::new(),
                &Serial,
                "sequential",
            )
            .0;
            assert_eq!(got, reference, "{label} sc {short_circuit}");
        }
    }
}

#[test]
fn downward_closure_on_quest_output() {
    let db = quest_db(2_500, 1);
    let minsup = MinSupport::from_percent(1.0);
    let mut meter = OpMeter::new();
    let fs = eclat::pipeline::run(
        &db,
        minsup,
        &EclatConfig::with_singletons(),
        &mut meter,
        &Serial,
    );
    assert_eq!(fs.closure_violation(), None);
}

#[test]
fn supports_match_direct_counting() {
    // Every reported support must equal a from-scratch scan count.
    let db = quest_db(1_000, 8);
    let minsup = MinSupport::from_percent(2.0);
    let fs = sequential_eclat(&db, minsup);
    assert!(!fs.is_empty());
    for (is, sup) in fs.iter() {
        let direct = db.iter().filter(|(_, t)| is.is_subset_of_sorted(t)).count() as u32;
        assert_eq!(direct, sup, "{is}");
    }
}
