//! Property-based cross-algorithm checks on arbitrary small databases:
//! brute force == Apriori == Eclat (seq, parallel, cluster) for any input
//! and any support, on dense databases (bitmap classes) and sparse ones
//! (diffset classes).

use apriori::reference::brute_force;
use dbstore::HorizontalDb;
use eclat::pipeline::{self, Serial};
use eclat::EclatConfig;
use memchannel::{ClusterConfig, CostModel};
use mining_types::{FrequentSet, ItemId, MinSupport, OpMeter};
use proptest::prelude::*;

/// Sequential Eclat with the default config.
fn sequential_eclat(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let cfg = EclatConfig::default();
    eclat::pipeline::run(db, minsup, &cfg, &mut OpMeter::new(), &Serial)
}

fn arb_db() -> impl Strategy<Value = HorizontalDb> {
    // up to 60 transactions over up to 12 items
    proptest::collection::vec(proptest::collection::vec(0u32..12, 1..8), 1..60).prop_map(|raw| {
        let txns: Vec<Vec<ItemId>> = raw
            .into_iter()
            .map(|t| t.into_iter().map(ItemId).collect())
            .collect();
        HorizontalDb::from_transactions(txns).with_num_items(12)
    })
}

/// Sparse databases: hundreds of short transactions over 14 items, with
/// one planted 4-item basket in every 100th so triples and quads reach
/// the 0.8% support. Their classes sit mostly below the density threshold
/// (diffsets), where [`arb_db`]'s small databases are all dense
/// (bitmaps). 14 items keep the brute-force oracle affordable.
fn arb_sparse_db() -> impl Strategy<Value = HorizontalDb> {
    (
        proptest::collection::vec(proptest::collection::vec(0u32..14, 1..3), 200..400),
        0u32..10,
    )
        .prop_map(|(raw, base)| {
            let txns: Vec<Vec<ItemId>> = raw
                .into_iter()
                .enumerate()
                .map(|(i, mut t)| {
                    if i % 100 == 0 {
                        t.extend([base, base + 1, base + 2, base + 4]);
                    }
                    t.into_iter().map(ItemId).collect()
                })
                .collect();
            HorizontalDb::from_transactions(txns).with_num_items(14)
        })
}

/// The paper's tid-list kernel — the reference for the per-class
/// density choice.
fn paper_kernel(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    pipeline::run_tidlist_stats(db, minsup, &EclatConfig::default(), &mut OpMeter::new()).0
}

fn strip_singletons(fs: &FrequentSet) -> FrequentSet {
    fs.iter()
        .filter(|(is, _)| is.len() >= 2)
        .map(|(is, s)| (is.clone(), s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn miners_match_brute_force(db in arb_db(), pct in 2.0f64..60.0) {
        let minsup = MinSupport::from_percent(pct);
        let truth = brute_force(&db, minsup);
        prop_assert_eq!(truth.closure_violation(), None);

        let ap = apriori::mine(&db, minsup);
        prop_assert_eq!(&ap, &truth);

        let ec = sequential_eclat(&db, minsup);
        prop_assert_eq!(&ec, &strip_singletons(&truth));

        let par = eclat::pipeline::run(&db, minsup, &eclat::EclatConfig::default(), &mut mining_types::OpMeter::new(), &eclat::Threads::new(0));
        prop_assert_eq!(&par, &ec);
    }

    #[test]
    fn cluster_variants_match_sequential(db in arb_db(), pct in 5.0f64..50.0, hosts in 1usize..4, ppn in 1usize..4) {
        let minsup = MinSupport::from_percent(pct);
        let topo = ClusterConfig::new(hosts, ppn);
        let cost = CostModel::dec_alpha_1997();
        let reference = sequential_eclat(&db, minsup);

        let cl = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &Default::default());
        prop_assert_eq!(&cl.frequent, &reference);
        prop_assert!(cl.total_secs() >= 0.0);

        let hy = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &Default::default());
        prop_assert_eq!(&hy.frequent, &reference);

        let cd = parbase::mine_count_dist(&db, minsup, &topo, &cost, &Default::default());
        prop_assert_eq!(strip_singletons(&cd.frequent), reference);
    }

    #[test]
    fn representations_match_tidlist_eclat(db in arb_db(), sparse in arb_sparse_db(), pct in 2.0f64..60.0) {
        // Golden equivalence for the per-class kernel choice: on dense
        // databases (bitmap classes) and sparse ones (diffset classes),
        // every measured path must reproduce the paper's tid-list
        // kernel, which must match brute force.
        for (db, minsup) in [(db, MinSupport::from_percent(pct)), (sparse, MinSupport::from_percent(0.8))] {
            let reference = paper_kernel(&db, minsup);
            let truth = brute_force(&db, minsup);
            prop_assert_eq!(&reference, &strip_singletons(&truth));
            prop_assert_eq!(&apriori::mine(&db, minsup), &truth);
            let cfg = EclatConfig::default();
            let seq = eclat::pipeline::run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
            prop_assert_eq!(&seq, &reference, "sequential");
            let par = eclat::pipeline::run(&db, minsup, &cfg, &mut OpMeter::new(), &eclat::Threads::new(0));
            prop_assert_eq!(&par, &reference, "parallel");
            let cq = eclat::clique::mine(&db, minsup, &cfg, &mut OpMeter::new(), &Serial, "sequential").0;
            prop_assert_eq!(&cq, &reference, "clique");
        }
    }

    #[test]
    fn maximal_matches_oracle(db in arb_db(), sparse in arb_sparse_db(), pct in 2.0f64..60.0) {
        // MaxEclat's look-ahead on bitmap or diffset classes must equal
        // the subsumption filter over the paper kernel's full frequent
        // set, with the short-circuit both on and off.
        for (db, minsup) in [(db, MinSupport::from_percent(pct)), (sparse, MinSupport::from_percent(0.8))] {
            let oracle = eclat::maximal::maximal_of(&paper_kernel(&db, minsup));
            for short_circuit in [true, false] {
                let cfg = EclatConfig {
                    short_circuit,
                    ..Default::default()
                };
                let got = eclat::maximal::mine(&db, minsup, &cfg, &mut OpMeter::new(), &Serial, "sequential").0;
                prop_assert_eq!(&got, &oracle, "sc={}", short_circuit);
            }
        }
    }

    #[test]
    fn rules_are_internally_consistent(db in arb_db(), pct in 10.0f64..50.0, conf in 0.1f64..0.9) {
        let minsup = MinSupport::from_percent(pct);
        let truth = brute_force(&db, minsup);
        let rules = assoc_rules::generate(&truth, conf);
        for r in rules {
            prop_assert!(r.confidence() >= conf);
            prop_assert!(r.support <= r.antecedent_support);
            prop_assert!(r.support <= r.consequent_support);
            let x = r.antecedent.union(&r.consequent);
            prop_assert_eq!(truth.support_of(&x), Some(r.support));
        }
    }
}
