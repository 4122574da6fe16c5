//! Sequential Eclat — the paper's algorithm on one processor.
//!
//! Three database scans, exactly as §7 enumerates: *"The first scan for
//! building L2, the second for transforming the database, and the third
//! for obtaining the frequent itemsets"* (in-memory here, the scans are
//! the three passes over the horizontal structure; the cluster variant
//! prices them through the disk model).

use crate::compute::EclatConfig;
use crate::pipeline::{self, Serial};
use dbstore::HorizontalDb;
use mining_types::{FrequentSet, MinSupport, OpMeter};

/// Mine all frequent itemsets of size ≥ 2 with default configuration.
///
/// Like the paper's Eclat, singleton supports are not computed; pass
/// [`EclatConfig::with_singletons`] to [`mine_with`] for a complete
/// downward-closed result (needed by rule generation).
pub fn mine(db: &HorizontalDb, minsup: MinSupport) -> FrequentSet {
    let mut meter = OpMeter::new();
    mine_with(db, minsup, &EclatConfig::default(), &mut meter)
}

/// Mine with explicit configuration and metering: the three-phase
/// [`pipeline`] on the one-thread [`Serial`] pool.
pub fn mine_with(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> FrequentSet {
    pipeline::run(db, minsup, cfg, meter, &Serial)
}

/// [`mine_with`] that also returns the structured [`mining_types::MiningStats`] report
/// (per-phase timings/ops, per-level counts, per-class kernel work).
pub fn mine_stats(
    db: &HorizontalDb,
    minsup: MinSupport,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
) -> (FrequentSet, mining_types::MiningStats) {
    pipeline::run_stats(db, minsup, cfg, meter, &Serial, "sequential")
}

#[cfg(test)]
mod tests {
    use super::*;
    use apriori::reference::{brute_force, random_db};
    use mining_types::Itemset;

    fn iset(raw: &[u32]) -> Itemset {
        Itemset::of(raw)
    }

    fn strip_singletons(fs: &FrequentSet) -> FrequentSet {
        fs.iter()
            .filter(|(is, _)| is.len() >= 2)
            .map(|(is, s)| (is.clone(), s))
            .collect()
    }

    #[test]
    fn toy_database_hand_check() {
        let db = HorizontalDb::of(&[&[0, 1, 2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2], &[3]]);
        let fs = mine(&db, MinSupport::from_fraction(0.5)); // threshold 3
        assert_eq!(fs.support_of(&iset(&[0, 1])), Some(3));
        assert_eq!(fs.support_of(&iset(&[0, 2])), Some(3));
        assert_eq!(fs.support_of(&iset(&[1, 2])), Some(3));
        assert_eq!(fs.support_of(&iset(&[0, 1, 2])), None, "support 2 < 3");
        assert_eq!(fs.len(), 3, "no singletons by default");
    }

    #[test]
    fn agrees_with_brute_force() {
        for seed in 0..5u64 {
            let db = random_db(seed, 80, 12, 6);
            for pct in [5.0, 10.0, 25.0] {
                let minsup = MinSupport::from_percent(pct);
                let ours = mine(&db, minsup);
                let truth = strip_singletons(&brute_force(&db, minsup));
                assert_eq!(ours, truth, "seed {seed} pct {pct}");
            }
        }
    }

    #[test]
    fn agrees_with_apriori_including_singletons() {
        let db = random_db(42, 150, 14, 6);
        let minsup = MinSupport::from_percent(6.0);
        let mut meter = OpMeter::new();
        let ours = mine_with(&db, minsup, &EclatConfig::with_singletons(), &mut meter);
        let ap = apriori::mine(&db, minsup);
        assert_eq!(ours, ap);
        assert_eq!(ours.closure_violation(), None);
    }

    #[test]
    fn all_config_combinations_agree() {
        let db = random_db(7, 100, 12, 5);
        let minsup = MinSupport::from_percent(8.0);
        let base = mine(&db, minsup);
        for short_circuit in [true, false] {
            for prune in [true, false] {
                let cfg = EclatConfig {
                    short_circuit,
                    prune,
                    ..Default::default()
                };
                let mut meter = OpMeter::new();
                assert_eq!(
                    mine_with(&db, minsup, &cfg, &mut meter),
                    base,
                    "sc={short_circuit} prune={prune}"
                );
            }
        }
    }

    #[test]
    fn empty_database_and_no_frequent_pairs() {
        let empty = HorizontalDb::of(&[]);
        assert!(mine(&empty, MinSupport::from_percent(1.0)).is_empty());

        // every item occurs once — no frequent pair at threshold 2
        let sparse = HorizontalDb::of(&[&[0, 1], &[2, 3], &[4, 5]]);
        let fs = mine(&sparse, MinSupport::from_fraction(0.5));
        assert!(fs.is_empty());
    }

    #[test]
    fn meter_reports_the_three_scan_structure() {
        let db = random_db(3, 60, 10, 5);
        let mut meter = OpMeter::new();
        mine_with(
            &db,
            MinSupport::from_percent(10.0),
            &EclatConfig::default(),
            &mut meter,
        );
        // two horizontal scans → record >= 2·|D|
        assert!(meter.record >= 120);
        assert!(meter.pair_incr > 0, "triangular pass happened");
        assert!(meter.tid_cmp > 0, "intersections happened");
        assert_eq!(meter.hash_probe, 0, "no hash tree anywhere in Eclat");
    }
}
