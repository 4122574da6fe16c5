//! Property-based cross-algorithm checks on arbitrary small databases:
//! brute force == Apriori == Eclat (seq, parallel, cluster) for any input
//! and any support.

use apriori::reference::brute_force;
use dbstore::HorizontalDb;
use eclat::{EclatConfig, Representation};
use memchannel::{ClusterConfig, CostModel};
use mining_types::{FrequentSet, ItemId, MinSupport, OpMeter};
use proptest::prelude::*;

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

        let ec = eclat::sequential::mine(&db, minsup);
        prop_assert_eq!(&ec, &strip_singletons(&truth));

        let par = eclat::pipeline::run(&db, minsup, &eclat::EclatConfig::default(), &mut mining_types::OpMeter::new(), &eclat::Threads::new(0));
        prop_assert_eq!(&par, &ec);
    }

    #[test]
    fn cluster_variants_match_sequential(db in arb_db(), pct in 5.0f64..50.0, hosts in 1usize..4, ppn in 1usize..4) {
        let minsup = MinSupport::from_percent(pct);
        let topo = ClusterConfig::new(hosts, ppn);
        let cost = CostModel::dec_alpha_1997();
        let reference = eclat::sequential::mine(&db, minsup);

        let cl = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &Default::default());
        prop_assert_eq!(&cl.frequent, &reference);
        prop_assert!(cl.total_secs() >= 0.0);

        let hy = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &Default::default());
        prop_assert_eq!(&hy.frequent, &reference);

        let cd = parbase::mine_count_dist(&db, minsup, &topo, &cost, &Default::default());
        prop_assert_eq!(strip_singletons(&cd.frequent), reference);
    }

    #[test]
    fn representations_match_tidlist_eclat(db in arb_db(), pct in 2.0f64..60.0, depth in 0u32..4) {
        // Golden equivalence across the Representation knob: diffsets,
        // the depth-switching AdaptiveSet, bitmaps, and the density
        // selector must reproduce the tid-list result exactly, on every
        // execution variant. `depth * 250` doubles as a permille sweep
        // (0, 250, 500, 750) so auto-density hits mixed splits.
        let minsup = MinSupport::from_percent(pct);
        let reference = eclat::sequential::mine(&db, minsup);
        let topo = ClusterConfig::new(2, 2);
        let cost = CostModel::dec_alpha_1997();
        for repr in [
            Representation::Diffset,
            Representation::AutoSwitch { depth },
            Representation::Bitmap,
            Representation::AutoDensity { permille: depth * 250 },
        ] {
            let cfg = EclatConfig::with_representation(repr);
            let seq = eclat::sequential::mine_with(&db, minsup, &cfg, &mut OpMeter::new());
            prop_assert_eq!(&seq, &reference, "sequential {:?}", repr);
            let par = eclat::pipeline::run(&db, minsup, &cfg, &mut OpMeter::new(), &eclat::Threads::new(0));
            prop_assert_eq!(&par, &reference, "parallel {:?}", repr);
            let cl = eclat::cluster::mine_cluster(&db, minsup, &topo, &cost, &cfg);
            prop_assert_eq!(&cl.frequent, &reference, "cluster {:?}", repr);
            let hy = eclat::hybrid::mine_hybrid(&db, minsup, &topo, &cost, &cfg);
            prop_assert_eq!(&hy.frequent, &reference, "hybrid {:?}", repr);
            let cq = eclat::clique::mine_with(&db, minsup, &cfg, &mut OpMeter::new());
            prop_assert_eq!(&cq, &reference, "clique {:?}", repr);
        }
    }

    #[test]
    fn maximal_matches_oracle(db in arb_db(), pct in 2.0f64..60.0, depth in 0u32..4) {
        // MaxEclat's representation-aware look-ahead must equal the
        // subsumption filter over the full frequent set, for every
        // TidSet representation and with the short-circuit both on/off.
        let minsup = MinSupport::from_percent(pct);
        let oracle = eclat::maximal::maximal_of(&eclat::sequential::mine(&db, minsup));
        for repr in [
            Representation::TidList,
            Representation::Diffset,
            Representation::AutoSwitch { depth },
            Representation::Bitmap,
            Representation::AutoDensity { permille: depth * 250 },
        ] {
            for short_circuit in [true, false] {
                let cfg = EclatConfig {
                    short_circuit,
                    ..EclatConfig::with_representation(repr)
                };
                let got = eclat::maximal::mine_maximal_with(&db, minsup, &cfg, &mut OpMeter::new());
                prop_assert_eq!(&got, &oracle, "{:?} sc={}", repr, short_circuit);
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
